"""Pointwise link-function intervals: covariance core, CLT and band forms."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from dense_krr import DenseKrr

import ksib.kernel_ridge as kernel_ridge
from ksib.errors import DomainError
from ksib.harness import Scenario, inference_snapshot, run_trajectory
from ksib.kernel_ridge import (GaussianKernel, fit, median_bandwidth,
                               ridge_schedule)
from ksib.np_inference import (METHOD_BAND, METHOD_CLT, as_band_ci,
                               build_covariance, calibrate_band_constant,
                               exploration_coefficient, pointwise_ci)
from ksib.numerics import normal_quantile


def fitted_model(rng, n=12, wmax=6.0, bw=1.0, lam=0.4):
    u = rng.normal(size=n)
    y = rng.normal(size=n)
    w = rng.uniform(1.0, wmax, size=n)
    return fit(u, y, w, lam, GaussianKernel(bw))


def oracle(model):
    """The dense solve of ``model``'s system."""
    return DenseKrr(model.support_u, model.support_y, model.support_w,
                    model.ridge, model.kernel)


class TestBuildCovariance:
    def test_single_point_worked_chain(self):
        # fit: c = 1/(1+1) so prediction 1/2, residual 1/2, S = 2, v = 1/2,
        # core w^2 r^2 v^2 = 1/16
        m = fit([0.0], [1.0], [1.0], 1.0, GaussianKernel(1.0))
        cov = build_covariance(m, gamma=0.5, residual_mode="raw")
        assert cov.d2(0.0) == pytest.approx(1.0 / 16.0)

    def test_perfect_fit_zero_core(self):
        # interpolation limit: residuals vanish, so does the covariance
        rng = np.random.default_rng(0)
        u = np.linspace(-1, 1, 5)
        y = rng.normal(size=5)
        m = fit(u, y, np.ones(5), 1e-10 * 5, GaussianKernel(1.0))
        cov = build_covariance(m, 0.5, residual_mode="raw")
        assert cov.d2(0.3) == pytest.approx(0.0, abs=1e-8)

    def test_reward_scaling_homogeneity(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=10)
        y = rng.normal(size=10)
        w = rng.uniform(1, 5, size=10)
        k = GaussianKernel(1.0)
        c = 3.7
        ridge = 0.3 * u.size
        d2_base = build_covariance(fit(u, y, w, ridge, k), 0.5,
                                   residual_mode="raw").d2(0.1)
        d2_scaled = build_covariance(fit(u, c * y, w, ridge, k), 0.5,
                                     residual_mode="raw").d2(0.1)
        assert d2_scaled == pytest.approx(c * c * d2_base, rel=1e-9)

    def test_d2_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cov = build_covariance(fitted_model(rng), 0.5, residual_mode="raw")
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
        cov = build_covariance(fitted_model(rng), 0.5, residual_mode="raw")
        us = rng.normal(size=6)
        batch = cov.d2(us)
        for i, u in enumerate(us):
            assert batch[i] == pytest.approx(cov.d2(float(u)), rel=1e-12)


class TestSharedFactor:
    @pytest.mark.parametrize("scale", ["support", "none"])
    def test_loo_leverage_matches_explicit_inverse(self, scale):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            u, y = rng.normal(size=n), rng.normal(size=n)
            w = rng.uniform(1.0, 50.0, size=n)
            lam = float(rng.uniform(1e-3, 0.5))
            m = fit(u, y, w, lam * n if scale == "support" else lam,
                    GaussianKernel(float(rng.uniform(0.3, 2.0))))
            cov = build_covariance(m, 0.5, residual_mode="loo")
            np.testing.assert_allclose(cov.one_minus_h, oracle(m).one_minus_h(),
                                       rtol=0, atol=1e-10)

    def test_default_lam_factors_nothing(self, monkeypatch):
        # the covariance studentizes at the fit's own ridge through the
        # fit's factors, so it runs with every Cholesky routine disabled
        def no_factor(*args, **kwargs):
            raise AssertionError("Cholesky factorization called")

        rng = np.random.default_rng(11)
        m = fitted_model(rng, n=30, lam=0.05)
        monkeypatch.setattr(kernel_ridge, "dpotrf", no_factor)
        monkeypatch.setattr(scipy.linalg, "cho_factor", no_factor)
        monkeypatch.setattr(scipy.linalg, "cholesky", no_factor)
        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        for mode in ("raw", "loo"):
            build_covariance(m, 0.5, residual_mode=mode)
        with pytest.raises(AssertionError):
            fitted_model(rng, n=30, lam=0.05)

    def test_reused_factor_matches_fresh_factorization(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = fitted_model(rng, n=25, lam=0.02)
            dense = oracle(m)
            us = rng.normal(size=5)
            for mode in ("raw", "loo"):
                shared = build_covariance(m, 0.5, residual_mode=mode)
                np.testing.assert_allclose(shared.d2(us),
                                           dense.d2(us, 0.5, mode), rtol=1e-9)


class TestDenseOracle:
    @pytest.mark.parametrize("scenario", [dict(d=2, sigma=0.05),
                                          dict(d=5, sigma=0.20)])
    def test_every_snapshot_of_a_seeded_trajectory(self, scenario):
        sc = Scenario(T=1000, reps=1, seed=4, **scenario)
        log, _, _, _ = run_trajectory(sc, 0)
        for t in sc.inference_times:
            for arm in range(sc.n_arms):
                snap = inference_snapshot(log, t, arm, sc)
                cov, dense = snap.covariance, oracle(snap.covariance.model)
                np.testing.assert_allclose(cov.model.dual_coeffs,
                                           dense.dual_coeffs, rtol=0, atol=1e-9)
                np.testing.assert_allclose(cov.one_minus_h, dense.one_minus_h(),
                                           rtol=0, atol=1e-10)
                u = float(log.contexts[t] @ snap.direction)
                assert cov.d2(u) == pytest.approx(
                    dense.d2(u, sc.gamma, sc.np_residual_mode)[0], rel=1e-9)

    def test_snapshot_sized_covariance_holds_no_square_array(self):
        # the support of a t = 1e4 easy snapshot: one n x n float array
        # alone would take 417 MB
        rng = np.random.default_rng(0)
        n = 7219
        u = rng.normal(size=n)
        props = np.where(rng.uniform(size=n) < 0.05,
                         rng.uniform(1e-4, 0.01, size=n), 0.995)
        w = 1.0 / np.maximum(props, 1e-3)
        y = 0.6 + 0.4 * np.tanh(u) + 0.05 * rng.normal(size=n)
        kernel = GaussianKernel(median_bandwidth(u))
        tracemalloc.start()
        try:
            m = fit(u, y, w, ridge_schedule(9999), kernel)
            cov = build_covariance(m, 0.5, residual_mode="loo")
            d2 = cov.d2(np.linspace(-2.0, 2.0, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(d2 >= 0.0)
        assert peak < 100e6


class TestLeverageClipCount:
    def test_counts_clipped_denominators(self):
        rng = np.random.default_rng(13)
        u = np.linspace(-2.0, 2.0, 15)
        for lam, expect_some in ((1e-6, True), (5.0, False)):
            m = fit(u, rng.normal(size=15), np.ones(15), lam,
                    GaussianKernel(0.3))
            cov = build_covariance(m, 0.5, residual_mode="loo")
            expected = int(np.sum(oracle(m).one_minus_h() < 0.05))
            assert cov.n_leverage_clipped == expected
            assert (expected > 0) == expect_some
            raw = build_covariance(m, 0.5, residual_mode="raw")
            assert raw.n_leverage_clipped == 0


class TestPointwiseCi:
    def test_zero_variance_degenerate_interval(self):
        m = fit([0.0, 1.0], [0.5, 0.5], [1.0, 1.0], 0.2 * 2,
                GaussianKernel(1.0))
        cov = build_covariance(m, 0.5, residual_mode="raw")
        cov._resid[:] = 0.0
        ci = pointwise_ci(cov, 0.5, 0.05)
        assert ci.lo == ci.center == ci.hi

    def test_quantile_and_scaling(self):
        m = fit([0.0], [1.0], [1.0], 1.0, GaussianKernel(1.0))
        cov = build_covariance(m, 0.5, residual_mode="raw")
        ci = pointwise_ci(cov, 0.0, 0.05)
        d = np.sqrt(cov.d2(0.0))
        z = normal_quantile(0.975)
        assert ci.half_width == pytest.approx(z * d)
        assert ci.method == METHOD_CLT
        assert ci.lo == pytest.approx(ci.center - ci.half_width)
        # a support of one point makes n^-gamma and the covariance's
        # n^(2 gamma - 2) neutral for any gamma
        ci2 = pointwise_ci(build_covariance(m, 0.25, residual_mode="raw"),
                           0.0, 0.05)
        assert ci2.half_width == pytest.approx(ci.half_width)

    def test_support_size_scaling(self):
        """The interval is scaled by the support size of the covariance's
        own fit: ``z n^-gamma sqrt(d2)``, bit for bit, at n = 4."""
        m = fit([0.0, 0.5, 1.0, 1.5], [1.0, 0.2, 0.7, 0.4], np.ones(4), 1.0,
                GaussianKernel(1.0))
        cov = build_covariance(m, 0.5, residual_mode="raw")
        d2 = cov.d2(0.7)
        assert m.n_support == 4 and d2 > 0.0
        half = pointwise_ci(cov, 0.7, 0.05).half_width
        assert half == normal_quantile(1.0 - 0.05 / 2.0) * 4.0 ** -0.5 * np.sqrt(d2)

    def test_iid_coverage_near_nominal(self):
        """Uniform weights, true projections: CLT interval covers ~95%."""
        rng = np.random.default_rng(5)
        hits, total = 0, 0
        for _ in range(150):
            n = 250
            u = rng.normal(size=n)
            truth_fn = lambda z: 0.6 + 0.4 * np.tanh(z)
            y = truth_fn(u) + 0.1 * rng.normal(size=n)
            m = fit(u, y, np.ones(n), 1e-3, GaussianKernel(1.0))
            cov = build_covariance(m, 0.5, residual_mode="raw")
            for ustar in rng.normal(size=2):
                ci = pointwise_ci(cov, float(ustar), 0.05)
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
                    GaussianKernel(median_bandwidth(u)))
            cov = build_covariance(m, 0.5, residual_mode="raw")
            hs = [pointwise_ci(cov, float(v), 0.05).half_width
                  for v in np.linspace(-1.5, 1.5, 13)]
            halves[n] = float(np.mean(hs))
        assert halves[999] < halves[200]
