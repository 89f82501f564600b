"""Pointwise link-function intervals: covariance core, CLT and band forms."""

import numpy as np
import pytest

import ksib.np_inference as np_inference
from ksib.errors import DomainError
from ksib.kernel_ridge import GaussianKernel, fit
from ksib.np_inference import (METHOD_BAND, METHOD_CLT, _loo_denominators,
                               as_band_ci, build_covariance,
                               calibrate_band_constant,
                               exploration_coefficient, pointwise_ci)
from ksib.numerics import min_eigenvalue, normal_quantile


def fitted_model(rng, n=12, wmax=6.0, bw=1.0, lam=0.4):
    u = rng.normal(size=n)
    y = rng.normal(size=n)
    w = rng.uniform(1.0, wmax, size=n)
    return fit(u, y, w, lam, GaussianKernel(bw), lam_scale="none")


class TestBuildCovariance:
    def test_single_point_worked_chain(self):
        # fit: c = 1/(1+1) so prediction 1/2, residual 1/2, core 1/16
        m = fit([0.0], [1.0], [1.0], 1.0, GaussianKernel(1.0))
        cov = build_covariance(m, gamma=0.5, lam=1.0)
        np.testing.assert_allclose(cov.core_matrix(), [[1.0 / 16.0]],
                                   atol=1e-14)
        assert cov.d2(0.0) == pytest.approx(1.0 / 16.0)

    def test_perfect_fit_zero_core(self):
        # interpolation limit: residuals vanish, so does the covariance
        rng = np.random.default_rng(0)
        u = np.linspace(-1, 1, 5)
        y = rng.normal(size=5)
        m = fit(u, y, np.ones(5), 1e-12, GaussianKernel(1.0))
        cov = build_covariance(m, 0.5, lam=1e-8)
        assert cov.d2(0.3) == pytest.approx(0.0, abs=1e-8)

    def test_reward_scaling_homogeneity(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=10)
        y = rng.normal(size=10)
        w = rng.uniform(1, 5, size=10)
        k = GaussianKernel(1.0)
        c = 3.7
        d2_base = build_covariance(fit(u, y, w, 0.3, k), 0.5).d2(0.1)
        d2_scaled = build_covariance(fit(u, c * y, w, 0.3, k), 0.5).d2(0.1)
        assert d2_scaled == pytest.approx(c * c * d2_base, rel=1e-9)

    def test_core_matrix_psd_and_d2_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cov = build_covariance(fitted_model(rng), 0.5)
            assert min_eigenvalue(cov.core_matrix()) >= -1e-10
            for u in rng.normal(size=20):
                assert cov.d2(float(u)) >= -1e-12

    def test_loo_mode_never_narrower(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = fitted_model(rng, lam=0.05)
            raw = build_covariance(m, 0.5, residual_mode="raw")
            loo = build_covariance(m, 0.5, residual_mode="loo")
            for u in rng.normal(size=5):
                assert loo.d2(float(u)) >= raw.d2(float(u)) - 1e-12

    def test_batch_d2_matches_scalar(self):
        rng = np.random.default_rng(4)
        cov = build_covariance(fitted_model(rng), 0.5)
        us = rng.normal(size=6)
        batch = cov.d2(us)
        for i, u in enumerate(us):
            assert batch[i] == pytest.approx(cov.d2(float(u)), rel=1e-12)


def explicit_leverage(model, lam):
    """Smoother leverage by the explicit inverse ``diag(D K D S^{-1})/n``."""
    n = model.n_support
    sqrt_w = np.sqrt(model.support_w)
    gram_w = model.kernel.gram(model.support_u) * np.outer(sqrt_w, sqrt_w)
    s_inv = np.linalg.inv(gram_w / n + lam * np.eye(n))
    return np.einsum("ij,ji->i", gram_w, s_inv) / n


class TestSharedFactor:
    @pytest.mark.parametrize("lam_scale", ["support", "none"])
    def test_loo_leverage_matches_explicit_inverse(self, lam_scale):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            m = fit(rng.normal(size=n), rng.normal(size=n),
                    rng.uniform(1.0, 50.0, size=n),
                    float(rng.uniform(1e-3, 0.5)),
                    GaussianKernel(float(rng.uniform(0.3, 2.0))), lam_scale)
            for lam in (None, 0.07):
                cov = build_covariance(m, 0.5, lam=lam, residual_mode="loo")
                h = 1.0 - _loo_denominators(cov._chol, cov.lam)
                np.testing.assert_allclose(h, explicit_leverage(m, cov.lam),
                                           rtol=0, atol=1e-10)

    def test_default_lam_factors_nothing(self, monkeypatch):
        def no_factor(*args, **kwargs):
            raise AssertionError("cho_factor called")

        rng = np.random.default_rng(11)
        m = fitted_model(rng, n=30, lam=0.05)
        monkeypatch.setattr(np_inference, "cho_factor", no_factor)
        for mode in ("raw", "loo"):
            build_covariance(m, 0.5, residual_mode=mode)
        with pytest.raises(AssertionError):
            build_covariance(m, 0.5, lam=0.1)

    def test_reused_factor_matches_fresh_factorization(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = fitted_model(rng, n=25, lam=0.02)
            shared = build_covariance(m, 0.5, residual_mode="loo")
            fresh = build_covariance(m, 0.5, lam=m.effective_ridge,
                                     residual_mode="loo")
            assert shared.lam == fresh.lam
            np.testing.assert_allclose(shared._resid, fresh._resid, rtol=1e-10)
            us = rng.normal(size=5)
            np.testing.assert_allclose(shared.d2(us), fresh.d2(us), rtol=1e-9)

    def test_jittered_fit_studentizes_jittered_system(self):
        m = fit([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1e-300, GaussianKernel(1.0),
                lam_scale="none")
        cov = build_covariance(m, 0.5)
        assert m.jitter > 0.0
        assert cov.lam == pytest.approx((m.system_ridge + m.jitter) / 2)


class TestLeverageClipCount:
    def test_counts_clipped_denominators(self):
        rng = np.random.default_rng(13)
        u = np.linspace(-2.0, 2.0, 15)
        for lam, expect_some in ((1e-6, True), (5.0, False)):
            m = fit(u, rng.normal(size=15), np.ones(15), lam,
                    GaussianKernel(0.3), lam_scale="none")
            cov = build_covariance(m, 0.5, residual_mode="loo")
            expected = int(np.sum(1.0 - explicit_leverage(m, cov.lam) < 0.05))
            assert cov.n_leverage_clipped == expected
            assert (expected > 0) == expect_some
            assert build_covariance(m, 0.5).n_leverage_clipped == 0


class TestPointwiseCi:
    def test_zero_variance_degenerate_interval(self):
        m = fit([0.0, 1.0], [0.5, 0.5], [1.0, 1.0], 0.2, GaussianKernel(1.0))
        cov = build_covariance(m, 0.5)
        cov._resid[:] = 0.0
        ci = pointwise_ci(m, cov, 0.5, 0.05, 10, 0.5)
        assert ci.lo == ci.center == ci.hi

    def test_quantile_and_scaling(self):
        m = fit([0.0], [1.0], [1.0], 1.0, GaussianKernel(1.0))
        cov = build_covariance(m, 0.5)
        ci = pointwise_ci(m, cov, 0.0, 0.05, 1, 0.5)
        d = np.sqrt(cov.d2(0.0))
        z = normal_quantile(0.975)
        assert ci.half_width == pytest.approx(z * d)
        assert ci.method == METHOD_CLT
        assert ci.lo == pytest.approx(ci.center - ci.half_width)
        # t = 1 makes the t^-gamma factor neutral for any gamma
        ci2 = pointwise_ci(m, cov, 0.0, 0.05, 1, 0.25)
        assert ci2.half_width == pytest.approx(ci.half_width)

    def test_t_scaling(self):
        m = fit([0.0], [1.0], [1.0], 1.0, GaussianKernel(1.0))
        cov = build_covariance(m, 0.5)
        h1 = pointwise_ci(m, cov, 0.0, 0.05, 100, 0.5).half_width
        h2 = pointwise_ci(m, cov, 0.0, 0.05, 400, 0.5).half_width
        assert h2 == pytest.approx(h1 / 2.0)

    def test_iid_coverage_near_nominal(self):
        """Uniform weights, true projections: CLT interval covers ~95%."""
        rng = np.random.default_rng(5)
        hits, total = 0, 0
        for _ in range(150):
            n = 250
            u = rng.normal(size=n)
            truth_fn = lambda z: 0.6 + 0.4 * np.tanh(z)
            y = truth_fn(u) + 0.1 * rng.normal(size=n)
            m = fit(u, y, np.ones(n), 1e-3, GaussianKernel(1.0),
                    lam_scale="none")
            cov = build_covariance(m, 0.5)
            for ustar in rng.normal(size=2):
                ci = pointwise_ci(m, cov, float(ustar), 0.05, n, 0.5)
                hits += ci.lo <= truth_fn(ustar) <= ci.hi
                total += 1
        assert hits / total >= 0.88


class TestAsBand:
    def test_unit_base_is_constant_in_theta(self):
        m = fit([0.0], [1.0], [1.0], 0.5, GaussianKernel(1.0))
        for theta in (0.05, 0.2, 0.45):
            ci = as_band_ci(m, 0.0, eta=0.05, r_tilde=0.025, theta=theta)
            assert ci.half_width == pytest.approx(2.0 * np.sqrt(2.0))
            assert ci.method == METHOD_BAND

    def test_full_length_four_root_two(self):
        m = fit([0.0], [1.0], [1.0], 0.5, GaussianKernel(1.0))
        ci = as_band_ci(m, 0.0, eta=0.05, r_tilde=0.025, theta=0.3)
        assert ci.hi - ci.lo == pytest.approx(4.0 * np.sqrt(2.0))

    def test_power_law_shrink(self):
        m = fit([0.0], [1.0], [1.0], 0.5, GaussianKernel(1.0))
        full = as_band_ci(m, 0.0, eta=0.05, r_tilde=0.02, theta=0.25)
        halved = as_band_ci(m, 0.0, eta=0.05, r_tilde=0.01, theta=0.25)
        assert halved.half_width / full.half_width == pytest.approx(
            2.0 ** -0.25)

    def test_domain_checks(self):
        m = fit([0.0], [1.0], [1.0], 0.5, GaussianKernel(1.0))
        with pytest.raises(DomainError):
            as_band_ci(m, 0.0, eta=0.05, r_tilde=0.0)
        with pytest.raises(DomainError):
            as_band_ci(m, 0.0, eta=0.05, r_tilde=0.1, theta=0.6)


class TestExplorationCoefficient:
    def test_constant_one(self):
        assert exploration_coefficient(np.ones(4)) == pytest.approx(0.25)

    def test_constant_half(self):
        assert exploration_coefficient([0.5, 0.5]) == pytest.approx(1.0)

    def test_harmonic_decay(self):
        t_small = exploration_coefficient(np.full(100, 0.3))
        t_large = exploration_coefficient(np.full(10_000, 0.3))
        assert t_large == pytest.approx(t_small / 100.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            exploration_coefficient([0.5, 0.0])


class TestCalibration:
    def test_smallest_covering_constant(self):
        errs = np.array([0.1, 0.4, 0.2])
        halves = np.array([1.0, 1.0, 2.0])
        c = calibrate_band_constant(errs, halves)
        assert c == pytest.approx(0.4)
        assert np.all(errs <= c * halves + 1e-15)

    def test_rejects_mismatch(self):
        with pytest.raises(DomainError):
            calibrate_band_constant([1.0], [1.0, 2.0])


class TestShrinkage:
    def test_half_width_shrinks_with_support(self):
        """Uniform exploration, fixed arm: widths decay from 200 to 999."""
        rng = np.random.default_rng(6)
        halves = {}
        u_all = rng.normal(size=999)
        y_all = 0.6 + 0.4 * np.tanh(u_all) + 0.05 * rng.normal(size=999)
        for n in (200, 999):
            u, y = u_all[:n], y_all[:n]
            from ksib.kernel_ridge import median_bandwidth, ridge_schedule
            m = fit(u, y, np.ones(n), ridge_schedule(n),
                    GaussianKernel(median_bandwidth(u)), lam_scale="none")
            cov = build_covariance(m, 0.5)
            hs = [pointwise_ci(m, cov, float(v), 0.05, n, 0.5).half_width
                  for v in np.linspace(-1.5, 1.5, 13)]
            halves[n] = float(np.mean(hs))
        assert halves[999] < halves[200]
