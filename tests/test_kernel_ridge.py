"""Weighted kernel ridge regression in dual form, against primal oracles."""

import numpy as np
import pytest

from ksib.errors import DomainError
from ksib.kernel_ridge import (GaussianKernel, fit, median_bandwidth,
                               ridge_schedule)


class LinearFeatureKernel:
    """k(u, v) = 1 + u v, the rank-2 feature map (1, u); test-only."""

    bandwidth = 1.0

    def __call__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.ndim and v.ndim:
            return 1.0 + np.multiply.outer(u, v)
        return 1.0 + u * v

    def gram(self, u):
        return self(u, u)


class TestKernel:
    def test_unit_diagonal(self):
        k = GaussianKernel(0.7)
        for u in (-3.0, 0.0, 5.5):
            assert k(u, u) == pytest.approx(1.0)

    def test_symmetric_and_bounded(self):
        k = GaussianKernel(1.3)
        rng = np.random.default_rng(0)
        u = rng.normal(size=10)
        g = k.gram(u)
        np.testing.assert_allclose(g, g.T)
        assert (g > 0).all() and (g <= 1.0 + 1e-15).all()

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(DomainError):
            GaussianKernel(0.0)


class TestMedianBandwidth:
    def test_three_points(self):
        assert median_bandwidth([0.0, 1.0, 3.0]) == 2.0

    def test_all_equal_fallback(self):
        assert median_bandwidth([5.0, 5.0, 5.0]) == 1.0

    def test_single_pair(self):
        assert median_bandwidth([0.0, 1.0]) == 1.0

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            median_bandwidth([1.0])

    def test_capped_subsample_is_deterministic_and_close(self):
        rng = np.random.default_rng(1)
        us = rng.normal(size=3000)
        full = median_bandwidth(us, cap=10_000_000)
        capped = median_bandwidth(us, cap=50_000)
        assert capped == median_bandwidth(us, cap=50_000)
        assert capped == pytest.approx(full, rel=0.1)


class TestRidgeSchedule:
    def test_t_one(self):
        assert ridge_schedule(1) == 1.0

    def test_decay_value(self):
        assert ridge_schedule(1000) == pytest.approx(0.7079, abs=2e-4)

    def test_zeta_zero_constant(self):
        assert ridge_schedule(57, zeta=0.0) == 1.0


class TestFit:
    def test_single_point(self):
        lam = 0.37
        m = fit([0.0], [1.0], [1.0], lam, GaussianKernel(1.0))
        assert m.predict(0.0) == pytest.approx(1.0 / (1.0 + lam))

    def test_uniform_weights_reduce_to_classical(self):
        rng = np.random.default_rng(2)
        k = GaussianKernel(0.8)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            u = rng.normal(size=n)
            y = rng.normal(size=n)
            lam = float(rng.uniform(0.01, 2.0))
            m = fit(u, y, np.ones(n), lam, k)
            classical = np.linalg.solve(k.gram(u) + n * lam * np.eye(n), y)
            np.testing.assert_allclose(m.dual_coeffs, classical, atol=1e-10)

    def test_primal_oracle_equivalence(self):
        rng = np.random.default_rng(3)
        kernel = LinearFeatureKernel()
        for _ in range(100):
            n = int(rng.integers(2, 7))
            u = rng.normal(size=n)
            y = rng.normal(size=n)
            w = rng.uniform(0.3, 25.0, size=n)
            lam = float(rng.uniform(0.02, 1.5))
            m = fit(u, y, w, lam, kernel)
            phi = np.column_stack([np.ones(n), u])
            theta = np.linalg.solve(phi.T @ (w[:, None] * phi)
                                    + lam * n * np.eye(2), phi.T @ (w * y))
            xs = rng.normal(size=5)
            primal = np.column_stack([np.ones(5), xs]) @ theta
            np.testing.assert_allclose(m.predict(xs), primal, atol=1e-8)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(4)
        n = 8
        u = np.linspace(-2, 2, n) + 0.01 * rng.normal(size=n)
        y = rng.normal(size=n)
        m = fit(u, y, np.ones(n), 1e-10, GaussianKernel(1.0))
        np.testing.assert_allclose(m.predict(u), y, atol=1e-4)

    def test_large_ridge_flattens(self):
        u = np.array([-1.0, 0.0, 1.0])
        y = np.array([5.0, -2.0, 3.0])
        m = fit(u, y, np.ones(3), 1e8, GaussianKernel(1.0))
        assert np.max(np.abs(m.predict(u))) < 1e-5

    def test_rejects_zero_weights_and_empty(self):
        with pytest.raises(DomainError):
            fit([0.0], [1.0], [0.0], 0.1, GaussianKernel(1.0))
        with pytest.raises(DomainError):
            fit([], [], [], 0.1, GaussianKernel(1.0))

    def test_lam_scale_none(self):
        u = np.array([0.0, 1.0])
        y = np.array([1.0, -1.0])
        scaled = fit(u, y, np.ones(2), 0.3, GaussianKernel(1.0), "support")
        plain = fit(u, y, np.ones(2), 0.6, GaussianKernel(1.0), "none")
        np.testing.assert_allclose(scaled.dual_coeffs, plain.dual_coeffs)
        assert scaled.system_ridge == pytest.approx(plain.system_ridge)


class TestFitCache:
    @pytest.mark.parametrize("lam_scale", ["support", "none"])
    def test_fitted_values_match_gram_product(self, lam_scale):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            k = GaussianKernel(float(rng.uniform(0.3, 2.0)))
            u = rng.normal(size=n)
            m = fit(u, rng.normal(size=n), rng.uniform(1.0, 50.0, size=n),
                    float(rng.uniform(1e-3, 1.0)), k, lam_scale)
            np.testing.assert_allclose(m.fitted_values(),
                                       k.gram(u) @ m.dual_coeffs, rtol=0,
                                       atol=1e-10)

    def test_factor_is_of_the_system_matrix(self):
        rng = np.random.default_rng(8)
        u, w = rng.normal(size=6), rng.uniform(1, 4, size=6)
        k = GaussianKernel(1.0)
        m = fit(u, rng.normal(size=6), w, 0.2, k)
        l = np.tril(m.chol[0])
        system = k.gram(u) * np.outer(np.sqrt(w), np.sqrt(w)) + \
            m.system_ridge * np.eye(6)
        np.testing.assert_allclose(l @ l.T, system, atol=1e-12)
        assert m.jitter == 0.0

    def test_jitter_retry_recorded(self):
        # duplicate points with a negligible ridge: D K D + ridge I is
        # singular in floating point and only the jitter retry factors it
        m = fit([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1e-300, GaussianKernel(1.0),
                lam_scale="none")
        assert m.jitter == pytest.approx(1e-10)
        np.testing.assert_allclose(m.fitted_values(), [1.0, 1.0], atol=1e-9)


class TestPredict:
    def test_far_field_decays(self):
        m = fit([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.1, GaussianKernel(1.0))
        assert abs(m.predict(60.0)) < 1e-12

    def test_antisymmetric_pair_zero_at_origin(self):
        m = fit([-1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], 0.2, GaussianKernel(1.0))
        assert m.predict(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_coefficient_mass(self):
        rng = np.random.default_rng(5)
        m = fit(rng.normal(size=9), rng.normal(size=9),
                rng.uniform(1, 4, size=9), 0.05, GaussianKernel(0.9))
        bound = np.sum(np.abs(m.dual_coeffs))
        for u in rng.normal(size=50):
            assert abs(m.predict(float(u))) <= bound + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        m = fit(rng.normal(size=7), rng.normal(size=7), np.ones(7), 0.1,
                GaussianKernel(1.1))
        us = rng.normal(size=6)
        batch = m.predict(us)
        for i, u in enumerate(us):
            assert batch[i] == pytest.approx(m.predict(float(u)), abs=1e-14)
