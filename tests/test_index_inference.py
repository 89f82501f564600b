"""Directional covariance, ellipsoids, and their exact identities."""

import numpy as np
import pytest

from ksib.errors import DegeneracyError
from ksib.index_estimation import estimate_pulled
from ksib.index_inference import (build_influence, directional_covariance,
                                  directional_report, ellipsoid_covers,
                                  marginal_rows, sign_align, v_beta)
from ksib.numerics import chi2_quantile, factor_spd, min_eigenvalue


def random_instance(rng, d=3, n=12):
    feats = rng.normal(size=(n, d))
    ys = rng.normal(size=n)
    weights = rng.uniform(1.0, 8.0, size=n)
    beta = rng.normal(size=d)
    gram = np.eye(d) + 0.1 * np.ones((d, d))
    return feats, ys, weights, beta, gram


class TestBuildInfluence:
    def test_zero_residuals_zero_vectors(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        beta = np.array([2.0, 3.0])
        ys = feats @ beta
        infl = build_influence(feats, ys, np.ones(2), beta, np.eye(2), 0.5, 2)
        np.testing.assert_allclose(infl, 0.0, atol=1e-14)

    def test_single_round_formula(self):
        infl = build_influence(np.array([[1.0, 0.0]]), np.array([3.0]),
                               np.array([2.0]), np.zeros(2), np.eye(2),
                               alpha=0.5, t=1)
        np.testing.assert_allclose(infl, [[6.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_estimate_factor_gives_the_same_bits(self, seed):
        """The estimate's kept factor spares a second factorization of its
        Gram matrix, with bit-identical influence vectors."""
        rng = np.random.default_rng(seed)
        feats, ys, weights = rng.normal(size=(40, 3)), rng.normal(size=40), \
            rng.uniform(1.0, 8.0, size=40)
        est = estimate_pulled(feats, ys, weights, 60, 2e-3)
        assert np.array_equal(est.factor[0], factor_spd(est.gram)[0])
        plain = build_influence(feats, ys, weights, est.beta_hat, est.gram, 0.5, 60)
        kept = build_influence(feats, ys, weights, est.beta_hat, est.gram, 0.5, 60,
                               factor=est.factor)
        assert plain.tobytes() == kept.tobytes()

    def test_empty_history(self):
        infl = build_influence(np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                               np.zeros(2), np.eye(2), 0.5, 5)
        assert infl.shape == (0, 2)
        with pytest.raises(DegeneracyError):
            v_beta(infl)


class TestVBeta:
    def test_rank_one(self):
        infl = np.array([[6.0, 0.0]])
        np.testing.assert_allclose(v_beta(infl), [[36.0, 0.0], [0.0, 0.0]])

    def test_orthogonal_pair_gives_identity(self):
        infl = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(v_beta(infl), np.eye(2))

    def test_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            infl = rng.normal(size=(7, 3))
            assert min_eigenvalue(v_beta(infl)) >= -1e-10


class TestDirectionalCovariance:
    def test_axis_aligned_projector(self):
        v = directional_covariance(np.array([1.0, 0.0]), np.eye(2), 1, 0.5)
        np.testing.assert_allclose(v, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_norm_factor_cancels(self):
        beta = np.array([3.0, 4.0])
        v = directional_covariance(beta, 25.0 * np.eye(2), 1, 0.5)
        b = beta / 5.0
        np.testing.assert_allclose(v, np.eye(2) - np.outer(b, b), atol=1e-12)

    def test_null_space_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            beta = rng.normal(size=d)
            a = rng.normal(size=(d, d))
            vb = a @ a.T
            v = directional_covariance(beta, vb, int(rng.integers(1, 50)), 0.5)
            b = beta / np.linalg.norm(beta)
            assert abs(b @ v @ b) <= 1e-12 * max(np.trace(v), 1e-30)
            assert min_eigenvalue(v) >= -1e-10

    def test_zero_beta_degenerate(self):
        with pytest.raises(DegeneracyError):
            directional_covariance(np.zeros(2), np.eye(2), 1, 0.5)


class TestDirectionalReport:
    def test_radius_is_chi2(self):
        rep = directional_report(np.array([1.0, 1.0]), np.eye(2), 10, 0.5, 0.05)
        assert rep.ellipsoid_radius2 == pytest.approx(
            chi2_quantile(0.95, 1), abs=1e-9)

    def test_zero_covariance_point_ellipsoid(self):
        beta = np.array([2.0, 0.0])
        rep = directional_report(beta, np.zeros((2, 2)), 5, 0.5, 0.05)
        np.testing.assert_allclose(rep.marginal_half_widths, 0.0)
        assert ellipsoid_covers(rep, np.array([1.0, 0.0]))
        assert not ellipsoid_covers(rep, np.array([0.8, 0.6]))

    def test_marginal_half_width_formula(self):
        rng = np.random.default_rng(2)
        beta = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        rep = directional_report(beta, a @ a.T, 20, 0.5, 0.1)
        expect = np.sqrt(np.clip(np.diag(rep.v_dir), 0, None)
                         * rep.ellipsoid_radius2)
        np.testing.assert_allclose(rep.marginal_half_widths, expect)

    def test_alpha_invariant_coverage_decision(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 20))
            feats = rng.normal(size=(n, d))
            ys = rng.normal(size=n)
            weights = rng.uniform(1.0, 10.0, size=n)
            beta = rng.normal(size=d)
            gram = np.eye(d)
            t = int(rng.integers(n, 200))
            truth = rng.normal(size=d)
            truth /= np.linalg.norm(truth)
            decisions = []
            for alpha in (0.25, 0.5):
                infl = build_influence(feats, ys, weights, beta, gram, alpha, t)
                rep = directional_report(beta, v_beta(infl), t, alpha, 0.05)
                decisions.append(ellipsoid_covers(rep, truth))
            assert decisions[0] == decisions[1]


class TestSignAlignment:
    def test_flips_opposite_hemisphere(self):
        ref = np.array([1.0, 0.0])
        np.testing.assert_allclose(sign_align(np.array([-0.9, 0.1]), ref),
                                   [0.9, -0.1])

    def test_keeps_same_hemisphere(self):
        ref = np.array([1.0, 0.0])
        np.testing.assert_allclose(sign_align(np.array([0.9, 0.1]), ref),
                                   [0.9, 0.1])


class TestZeroNoiseCollapse:
    def test_half_widths_shrink_on_noiseless_linear_trajectory(self):
        """Linear link, no noise: widths collapse as rounds accumulate."""
        rng = np.random.default_rng(4)
        d = 2
        beta = np.array([0.6, 0.8])
        t_max = 999
        feats = rng.normal(size=(t_max, d))
        ys = feats @ beta                      # exact linear, sigma = 0
        pulled = rng.random(t_max) < 0.5
        weights_all = np.full(t_max, 2.0)      # 1/0.5
        widths = []
        for t in (200, 400, 600, 999):
            sel = pulled[:t]
            sub = feats[:t][sel]
            suby = ys[:t][sel]
            w = weights_all[:t][sel]
            gram = (sub * w[:, None]).T @ sub / t
            bhat = np.linalg.solve(gram, (w * suby) @ sub / t)
            infl = build_influence(sub, suby, w, bhat, gram, 0.5, t)
            rep = directional_report(bhat, v_beta(infl), t, 0.5, 0.05)
            widths.append(float(np.max(rep.marginal_half_widths)))
            assert ellipsoid_covers(rep, beta)
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 1e-6


class TestMarginalRows:
    def test_row_schema_and_coverage_flags(self):
        beta = np.array([3.0, 4.0])
        rep = directional_report(beta, 0.01 * np.eye(2), 50, 0.5, 0.05)
        truth = sign_align(np.array([0.6, 0.8]), rep.direction)
        rows = marginal_rows(7, 1, 200, rep, truth)
        assert [r["coord"] for r in rows] == [0, 1]
        for r in rows:
            assert set(r) == {"rep", "arm", "t", "coord", "center", "lo",
                              "hi", "covered"}
            assert r["lo"] <= r["center"] <= r["hi"]
            assert r["covered"] == 1
