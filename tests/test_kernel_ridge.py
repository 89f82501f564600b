"""Weighted kernel ridge regression in dual form, against primal oracles."""

import tracemalloc

import numpy as np
import pytest
from dense_krr import DenseKrr
from hypothesis import given, settings
from hypothesis import strategies as st
from pairwise_median import pairwise_median_bandwidth
from scipy.linalg import cho_factor, cho_solve

from ksib.errors import DomainError
from ksib.harness import Scenario, inference_snapshot, run_trajectory
from ksib.kernel_ridge import (HINT_CAP, HINT_CELLS, PAIR_CAP,
                               PREDICTION_TOL, TRACE_FLOOR, GaussianKernel,
                               fit, median_bandwidth, ridge_schedule,
                               support_hint)
from ksib.np_inference import build_covariance


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

    def diag(self, u):
        return 1.0 + np.square(u)


class TestKernel:
    def test_unit_diagonal(self):
        k = GaussianKernel(0.7)
        for u in (-3.0, 0.0, 5.5):
            assert k(u, u) == pytest.approx(1.0)
        u = np.array([-3.0, 0.0, 5.5])
        np.testing.assert_array_equal(k.diag(u), np.diag(k.gram(u)))

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


def ulps_of_one(rng, n):
    """Points a few ulps above 1 among multiples of 2^-55 below 2^-51."""
    return np.where(rng.uniform(size=n) < rng.uniform(0.05, 0.5),
                    1.0 + rng.integers(0, 8, size=n) * 2.0 ** -52,
                    rng.integers(0, 16, size=n) * 2.0 ** -55)


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
        assert full == pairwise_median_bandwidth(us, cap=10_000_000)
        assert capped == median_bandwidth(us, cap=50_000)
        assert capped == pytest.approx(full, rel=0.1)

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0, 3.0],
                                     [1.0, 2.0, -np.inf, 5.0],
                                     [np.inf, 0.0]])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            median_bandwidth(bad)

    # sizes up to 1500 with caps that force strides; ties, integer grids,
    # duplicates, signed zeros, magnitudes from 1e-8 to 1e8 and negative
    # offsets; "ulps" mixes steps of a few ulps of 1 with smaller ones, so
    # that s_i + d rounds across the count's boundary
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(2, 1500),
           st.sampled_from(["normal", "grid", "duplicates", "signed_zeros",
                            "heavy", "offset", "ulps"]),
           st.integers(-27, 27),
           st.sampled_from([PAIR_CAP, 20_000, 1_000, 10, 1]),
           st.integers(0, 2**32 - 1))
    def test_equals_pairwise_oracle(self, n, shape, exponent, cap, seed):
        rng = np.random.default_rng(seed)
        us = rng.normal(size=n)
        if shape == "grid":
            us = rng.integers(-4, 5, size=n).astype(float)
        elif shape == "duplicates":
            us = rng.choice(us[: max(1, n // 10)], size=n)
        elif shape == "signed_zeros":
            us = np.where(rng.uniform(size=n) < 0.9,
                          rng.choice([0.0, -0.0], size=n), us)
        elif shape == "heavy":
            us = rng.standard_cauchy(size=n)
        elif shape == "offset":
            us = np.round(us, 3) - 1e8 * 2.0 ** -exponent
        elif shape == "ulps":
            us = ulps_of_one(rng, n)
        us = us * 2.0 ** exponent
        got = median_bandwidth(us, cap=cap)
        want = pairwise_median_bandwidth(us, cap=cap)
        assert got == want and np.signbit(got) == np.signbit(want)

    def test_equals_oracle_where_sums_round_across_the_boundary(self):
        # the "ulps" inputs at sizes where the count decides the bracket;
        # without the fix-up of fl(s_i + d), about 1 in 25 of them fails
        rng = np.random.default_rng(4)
        for _ in range(100):
            us = ulps_of_one(rng, int(rng.integers(200, 1500)))
            assert median_bandwidth(us) == pairwise_median_bandwidth(us)

    def test_largest_unstrided_support_stays_small(self):
        # 632 points give 199,396 pairs, the most PAIR_CAP takes unstrided;
        # their distance matrix alone would be 3.2 MB
        us = np.random.default_rng(2).normal(size=632)
        tracemalloc.start()
        try:
            median_bandwidth(us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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
            m = fit(u, y, np.ones(n), lam * n, k)
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
            m = fit(u, y, w, lam * n, kernel)
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
        m = fit(u, y, np.ones(n), 1e-10 * n, GaussianKernel(1.0))
        np.testing.assert_allclose(m.predict(u), y, atol=1e-4)

    def test_large_ridge_flattens(self):
        u = np.array([-1.0, 0.0, 1.0])
        y = np.array([5.0, -2.0, 3.0])
        m = fit(u, y, np.ones(3), 1e8 * 3, GaussianKernel(1.0))
        assert np.max(np.abs(m.predict(u))) < 1e-5

    def test_rejects_zero_weights_and_empty(self):
        with pytest.raises(DomainError):
            fit([0.0], [1.0], [0.0], 0.1, GaussianKernel(1.0))
        with pytest.raises(DomainError, match="weights must be positive"):
            fit([0.0, 1.0], [1.0, 0.0], [np.nan, 1.0], 0.1, GaussianKernel(1.0))
        with pytest.raises(DomainError):
            fit([], [], [], 0.1, GaussianKernel(1.0))

    def test_ridge_is_taken_as_passed(self):
        u = np.array([0.0, 1.0])
        y = np.array([1.0, -1.0])
        scaled = fit(u, y, np.ones(2), 0.3 * u.size, GaussianKernel(1.0))
        plain = fit(u, y, np.ones(2), 0.6, GaussianKernel(1.0))
        np.testing.assert_allclose(scaled.dual_coeffs, plain.dual_coeffs)
        assert scaled.ridge == pytest.approx(plain.ridge) == 0.6


class TestFitCache:
    @pytest.mark.parametrize("scale", ["support", "none"])
    def test_fitted_values_match_gram_product(self, scale):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            k = GaussianKernel(float(rng.uniform(0.3, 2.0)))
            u = rng.normal(size=n)
            y, w = rng.normal(size=n), rng.uniform(1.0, 50.0, size=n)
            lam = float(rng.uniform(1e-3, 1.0))
            m = fit(u, y, w, ridge_of(lam, scale, n), k)
            np.testing.assert_allclose(m.fitted, k.gram(u) @ m.dual_coeffs,
                                       rtol=0, atol=1e-10)

    def test_factor_is_of_the_system_matrix(self):
        rng = np.random.default_rng(8)
        u, w = rng.normal(size=6), rng.uniform(1, 4, size=6)
        k = GaussianKernel(1.0)
        m = fit(u, rng.normal(size=6), w, 0.2 * 6, k)
        lt = m.factor
        np.testing.assert_allclose(lt.T @ lt,
                                   k.gram(u) * np.outer(np.sqrt(w), np.sqrt(w)),
                                   atol=1e-12)
        r = np.tril(m.inner[0])
        np.testing.assert_allclose(r @ r.T, lt @ lt.T + m.ridge *
                                   np.eye(m.rank), atol=1e-12)

    def test_inner_solve_bit_identical_to_cho_factor_and_cho_solve(self):
        """The r x r solve calls dpotrf/dpotrs directly; the factor and the
        coefficients keep the bits of cho_factor/cho_solve, at rank 0 too."""
        rng = np.random.default_rng(12)
        cases = [(np.full(3, 1e-30), 1.0, ())]   # rank 0: nothing to factor
        for _ in range(25):
            n = int(rng.integers(1, 120))
            hint = rng.choice(n, size=int(rng.integers(0, min(n, 25) + 1)),
                              replace=False)
            cases.append((1.0 / rng.uniform(0.005, 1.0, size=n),
                          float(rng.uniform(0.01, 2.0)), hint))
        ranks = []
        for w, ridge, hint in cases:
            n = w.size
            u, y = rng.normal(size=n), rng.normal(size=n)
            m = fit(u, y, w, ridge, GaussianKernel(0.8), pivots=hint)
            lt, rhs = m.factor, np.sqrt(w) * y
            inner = lt @ lt.T
            inner[np.diag_indices(m.rank)] += ridge
            inner = cho_factor(inner, lower=True, check_finite=False)
            coef = cho_solve(inner, lt @ rhs, check_finite=False)
            z = (rhs - lt.T @ coef) / ridge
            assert m.inner[1] is inner[1] is True
            assert np.array_equal(m.inner[0], inner[0])
            assert np.array_equal(m.dual_coeffs, np.sqrt(w) * z)
            assert np.array_equal(m.fitted, y - ridge * z / np.sqrt(w))
            ranks.append(m.rank)
        assert ranks[0] == 0 and min(ranks[1:]) > 0

    def test_tiny_ridge_refused(self):
        # duplicate points with a negligible ridge: the Woodbury solve would
        # divide a cancelled difference by the ridge and answer 4.4e4 or more
        for lam in (1e-300, 1e-20):
            with pytest.raises(DomainError, match="round-off"):
                fit([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], lam,
                    GaussianKernel(1.0))


class TestPredict:
    def test_far_field_decays(self):
        m = fit([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.1 * 2,
                GaussianKernel(1.0))
        assert abs(m.predict(60.0)) < 1e-12

    def test_antisymmetric_pair_zero_at_origin(self):
        m = fit([-1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], 0.2 * 2,
                GaussianKernel(1.0))
        assert m.predict(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_coefficient_mass(self):
        rng = np.random.default_rng(5)
        m = fit(rng.normal(size=9), rng.normal(size=9),
                rng.uniform(1, 4, size=9), 0.05 * 9, GaussianKernel(0.9))
        bound = np.sum(np.abs(m.dual_coeffs))
        for u in rng.normal(size=50):
            assert abs(m.predict(float(u))) <= bound + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        m = fit(rng.normal(size=7), rng.normal(size=7), np.ones(7), 0.1 * 7,
                GaussianKernel(1.1))
        us = rng.normal(size=6)
        batch = m.predict(us)
        for i, u in enumerate(us):
            assert batch[i] == pytest.approx(m.predict(float(u)), abs=1e-14)


class TestSystemMatrix:
    def test_kernel_bit_identical_to_old_formula(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=9), rng.normal(size=4)
        k = GaussianKernel(0.8)
        old = np.exp(-0.5 * (np.subtract.outer(u, v) / 0.8) ** 2)
        assert np.array_equal(k(u, v), old)
        assert np.array_equal(k(u, v[0]), np.exp(-0.5 * ((u - v[0]) / 0.8) ** 2))
        scalar = k(0.3, -0.2)
        assert isinstance(scalar, np.float64)
        assert scalar == np.exp(-0.5 * ((0.3 - -0.2) / 0.8) ** 2)

    def test_scalar_point_bit_identical_to_array_path(self):
        """A float point skips the array conversions, not a bit of the
        arithmetic: kernel columns and predictions equal the 0-d and 1-d
        array paths."""
        rng = np.random.default_rng(2)
        u = rng.normal(size=60)
        k = GaussianKernel(0.7)
        m = fit(u, rng.normal(size=60), rng.uniform(1.0, 9.0, size=60), 0.3, k)
        for v in rng.normal(size=8):
            column = k(u, np.array([v]))[:, 0]
            for point in (float(v), np.float64(v), np.array(v)):
                assert np.array_equal(k(u, point), column)
                assert m.predict(point) == m.predict(np.array(v))


@st.composite
def supports(draw, max_n=60, min_bandwidth=0.05):
    """Supports like the policy's: weights up to 1/p_min, duplicates and
    heavy-tailed projections included."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    shape = draw(st.sampled_from(["normal", "duplicates", "heavy"]))
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    if shape == "duplicates":
        u = rng.choice(u[: max(1, n // 3)], size=n)
    elif shape == "heavy":
        u = rng.standard_cauchy(size=n) * 50.0
    props = np.where(rng.uniform(size=n) < 0.3, 1e-3,
                     rng.uniform(1e-3, 1.0, size=n))
    w = 1.0 / np.maximum(props, 1e-3)
    y = np.sin(2.0 * u) + 0.2 * rng.normal(size=n)
    bandwidth = draw(st.floats(min_bandwidth, 2.0))
    return u, y, w, bandwidth


def ridge_of(lam, scale, n):
    """The ridge of ``n`` rows: ``lam`` scaled by the support size or not."""
    return lam * n if scale == "support" else lam


def pivot_hint(kind, u, y, w, lam, kernel, scale, seed):
    """A ``pivots`` hint of the given kind for the support ``(u, y, w)``."""
    n = u.size
    rng = np.random.default_rng(seed)
    if kind == "previous":
        # the policy's case: the pivots of a fit a few rows earlier
        m = max(1, n - int(rng.integers(1, 11)))
        return fit(u[:m], y[:m], w[:m], ridge_of(lam, scale, m), kernel).pivots
    if kind == "random":
        return rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    if kind == "full":
        return np.arange(n)
    if kind == "duplicates":
        # every row sharing a value of u with another, plus repeated indices
        _, inverse, counts = np.unique(u, return_inverse=True, return_counts=True)
        shared = np.flatnonzero(counts[inverse] > 1)
        return np.concatenate([shared, shared[:3], [0, 0]])
    return ()


def residual_trace(model, w, kernel):
    """``trace(D K D - L L^T)`` with the factor's pivots at zero, as
    ``fit``'s stopping rule reads it."""
    resid = w * kernel.diag(model.support_u) - np.sum(model.factor ** 2, axis=0)
    resid = np.maximum(resid, 0.0)
    resid[model.pivots] = 0.0
    return resid.sum()


class TestFitPivoted:
    """The pivoted-Cholesky solve against the dense one."""

    # lam covers the default ridge schedule t^-0.05 up to t = 3e10; the hint
    # kinds cover the policy's warm start and hints it never passes
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(supports(), st.sampled_from(["none", "support"]),
           st.floats(0.3, 1.0),
           st.sampled_from(["previous", "random", "full", "duplicates",
                            "empty"]),
           st.integers(0, 2**32 - 1))
    def test_predictions_match_exact_fit(self, support, scale, lam,
                                         hint_kind, hint_seed):
        u, y, w, bandwidth = support
        k = GaussianKernel(bandwidth)
        exact = DenseKrr(u, y, w, ridge_of(lam, scale, u.size), k)
        hint = pivot_hint(hint_kind, u, y, w, lam, k, scale, hint_seed)
        pivoted = fit(u, y, w, ridge_of(lam, scale, u.size), k, pivots=hint)
        grid = np.concatenate([np.linspace(-4.0, 4.0, 161), u])
        np.testing.assert_allclose(pivoted.predict(grid), exact.predict(grid),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            build_covariance(pivoted, residual_mode="raw").one_minus_h,
            exact.one_minus_h(), rtol=0, atol=1e-10)
        # the stopping rule, up to the round-off of the subtraction
        ridge = pivoted.ridge
        scale = np.sqrt(w.sum()) * np.linalg.norm(np.sqrt(w) * y)
        tol = max(PREDICTION_TOL * ridge * ridge / max(scale, ridge),
                  TRACE_FLOOR * u.size * np.finfo(float).eps * w.max())
        eps_slack = 64 * np.finfo(float).eps * w.sum()
        assert residual_trace(pivoted, w, k) <= tol + eps_slack
        assert len(set(pivoted.pivots.tolist())) == pivoted.rank

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_supports(self, n):
        u = np.arange(n, dtype=float) * 0.4
        y = np.linspace(-1.0, 1.0, n)
        w = np.full(n, 1e3)
        for scale in ("none", "support"):
            ridge = ridge_of(0.7, scale, n)
            exact = DenseKrr(u, y, w, ridge, GaussianKernel(0.5))
            pivoted = fit(u, y, w, ridge, GaussianKernel(0.5))
            assert pivoted.predict(0.1) == pytest.approx(exact.predict(0.1),
                                                         abs=1e-12)

    def test_far_apart_points_need_full_rank(self):
        u = np.arange(40, dtype=float) * 100.0
        y = np.cos(u)
        pivoted = fit(u, y, np.ones(40), 0.5, GaussianKernel(1.0))
        assert pivoted.rank == 40
        exact = DenseKrr(u, y, np.ones(40), 0.5, GaussianKernel(1.0))
        np.testing.assert_allclose(pivoted.dual_coeffs, exact.dual_coeffs,
                                   rtol=0, atol=1e-12)

    def test_smooth_support_needs_small_rank(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=800)
        w = 1.0 / np.where(rng.uniform(size=800) < 0.1, 0.005, 0.9)
        k = GaussianKernel(median_bandwidth(u))
        pivoted = fit(u, np.sin(u), w, 0.7, k)
        assert pivoted.rank <= 40

    def test_zero_rewards_give_zero_coefficients(self):
        pivoted = fit([0.0, 1.0], [0.0, 0.0], [1.0, 2.0], 0.5 * 2,
                      GaussianKernel(1.0))
        assert np.all(pivoted.dual_coeffs == 0.0)
        assert pivoted.predict(0.5) == 0.0

    def test_holds_no_square_array(self):
        rng = np.random.default_rng(4)
        n = 30
        pivoted = fit(rng.normal(size=n), rng.normal(size=n), np.ones(n),
                      0.5 * n, GaussianKernel(1.0))
        assert pivoted.rank < n
        arrays = [v for v in vars(pivoted).values() if isinstance(v, np.ndarray)]
        for a in arrays + [pivoted.inner[0]]:
            assert a.shape.count(n) <= 1

    def test_validates_like_fit(self):
        with pytest.raises(DomainError):
            fit([0.0], [1.0], [0.0], 0.1, GaussianKernel(1.0))
        with pytest.raises(DomainError):
            fit([], [], [], 0.1, GaussianKernel(1.0))
        with pytest.raises(DomainError, match="ridge"):
            fit([0.0], [1.0], [1.0], 0.0, GaussianKernel(1.0))

    def test_empty_hint_is_the_cold_fit(self):
        """An empty hint is the cold start, bit for bit."""
        rng = np.random.default_rng(9)
        u, y = rng.normal(size=50), rng.normal(size=50)
        w = rng.uniform(1.0, 300.0, size=50)
        k = GaussianKernel(0.6)
        cold = fit(u, y, w, 0.5 * 50, k)
        for hint in ((), [], np.empty(0, dtype=int)):
            again = fit(u, y, w, 0.5 * 50, k, pivots=hint)
            assert np.array_equal(again.dual_coeffs, cold.dual_coeffs)
            assert np.array_equal(again.pivots, cold.pivots)

    def test_previous_pivots_are_reused(self):
        """Ten rows after a fit, its pivots carry most of the new factor."""
        rng = np.random.default_rng(10)
        u = rng.normal(size=600)
        w = 1.0 / np.where(rng.uniform(size=600) < 0.1, 0.005, 0.9)
        y = np.sin(u) + 0.1 * rng.normal(size=600)
        k = GaussianKernel(median_bandwidth(u))
        before = fit(u[:590], y[:590], w[:590], 0.7, k)
        cold = fit(u, y, w, 0.7, k)
        warm = fit(u, y, w, 0.7, k, pivots=before.pivots)
        taken = np.intersect1d(warm.pivots, before.pivots).size
        assert taken >= before.rank - 3
        assert warm.rank - taken < cold.rank // 2
        np.testing.assert_allclose(warm.predict(u), cold.predict(u),
                                   rtol=0, atol=1e-9)

    def test_rejects_out_of_range_pivots(self):
        for hint in ([2], [-1]):
            with pytest.raises(DomainError, match="pivots"):
                fit([0.0, 1.0], [1.0, 0.0], [1.0, 1.0], 0.5 * 2,
                    GaussianKernel(1.0), pivots=hint)


class TestSupportHint:
    """``support_hint``: the warm start inference snapshots pass to ``fit``."""

    def test_heaviest_point_per_cell(self):
        # cells of width 1/4: {0, 1, 2} and {3, 4}; equal weights go to
        # the lowest index
        u = np.array([0.0, 0.01, 0.02, 1.0, 1.01])
        w = np.array([1.0, 3.0, 3.0, 2.0, 2.0])
        assert support_hint(u, w, 1.0).tolist() == [1, 3]
        assert support_hint(u[::-1], w[::-1], 1.0).tolist() == [0, 2]

    def test_keeps_the_heaviest_cells(self):
        # one point per cell; the HINT_CAP heaviest, ties to the lowest index
        n = HINT_CAP + 8
        w = np.ones(n)
        w[[11, 3, 5]] = 0.5                      # one slot left: index 3
        w[[20, 30, 35, 37, 38, 39]] = 0.25
        dropped = {5, 11, 20, 30, 35, 37, 38, 39}
        assert support_hint(np.arange(n, dtype=float), w, 1.0).tolist() == [
            i for i in range(n) if i not in dropped]

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_support_stays_within_the_cap(self, seed):
        """A heavy-tailed support spreads over far more cells than the cap."""
        rng = np.random.default_rng(seed)
        u = rng.standard_cauchy(size=600)
        w = 1.0 / np.where(rng.uniform(size=600) < 0.1, 0.005, 0.9)
        bandwidth = median_bandwidth(u)
        hint = support_hint(u, w, bandwidth)
        cell = np.floor((u - u.min()) * (HINT_CELLS / bandwidth))
        assert np.unique(cell).size > 2 * HINT_CAP and hint.size == HINT_CAP
        assert np.array_equal(hint, np.unique(hint))
        assert np.unique(cell[hint]).size == hint.size
        # each kept point is its cell's heaviest, and no cell left out holds
        # a point heavier than the lightest kept one
        for i in hint:
            assert w[i] == w[cell == cell[i]].max()
        assert w[~np.isin(cell, cell[hint])].max() <= w[hint].min()
        assert np.array_equal(support_hint(u, w, bandwidth), hint)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(supports(max_n=400, min_bandwidth=0.01),
           st.sampled_from(["none", "support"]), st.floats(0.3, 1.0))
    def test_hinted_fit_keeps_its_bound(self, support, scale, lam):
        u, y, w, bandwidth = support
        k = GaussianKernel(bandwidth)
        hint = support_hint(u, w, bandwidth)
        assert hint.size <= HINT_CAP and np.array_equal(hint, np.unique(hint))
        assert 0 <= hint[0] and hint[-1] < u.size
        model = fit(u, y, w, ridge_of(lam, scale, u.size), k, pivots=hint)
        grid = np.concatenate([np.linspace(-4.0, 4.0, 161), u])
        assert max(dense_errors(model, grid)) <= model.bound


def dense_errors(model, grid):
    """Largest prediction and leverage distance of ``model`` from the dense
    solve of its own support."""
    exact = DenseKrr(model.support_u, model.support_y, model.support_w,
                     model.ridge, model.kernel)
    return (np.abs(model.predict(grid) - exact.predict(grid)).max(),
            np.abs(build_covariance(model, residual_mode="raw").one_minus_h
                   - exact.one_minus_h()).max())


class TestFitBound:
    """``KrrModel.bound`` holds in floating point: predictions and
    leverages lie within it of the dense solve's."""

    # up to 400 rows, bandwidths down to 0.01 and weights up to 1/p_min, so
    # the round-off floor, not the exact-arithmetic tolerance, often stops
    # the factor; warm starts included
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(supports(max_n=400, min_bandwidth=0.01),
           st.sampled_from(["none", "support"]), st.floats(0.3, 1.0),
           st.sampled_from(["empty", "previous", "random"]),
           st.integers(0, 2**32 - 1))
    def test_bound_holds(self, support, scale, lam, hint_kind, hint_seed):
        u, y, w, bandwidth = support
        k = GaussianKernel(bandwidth)
        hint = pivot_hint(hint_kind, u, y, w, lam, k, scale, hint_seed)
        model = fit(u, y, w, ridge_of(lam, scale, u.size), k, pivots=hint)
        grid = np.concatenate([np.linspace(-4.0, 4.0, 161), u])
        assert max(dense_errors(model, grid)) <= model.bound

    @pytest.mark.parametrize("scenario", [dict(d=2, sigma=0.05),
                                          dict(d=5, sigma=0.20)])
    def test_bound_holds_on_policy_supports(self, scenario):
        """Snapshot supports of an easy and a hard T=4000 trajectory, up to
        n ~ 2900 rows, where the floor stops the factor early."""
        sc = Scenario(T=4000, reps=1, seed=4, inference_times=(), **scenario)
        log, _, _, _ = run_trajectory(sc, 0)
        sizes = []
        for t in (300, 1000, 4000):
            for arm in (0, 1):
                model = inference_snapshot(log, t, arm, sc).covariance.model
                grid = np.concatenate([np.linspace(-4.0, 4.0, 161),
                                       model.support_u])
                pred, lev = dense_errors(model, grid)
                assert max(pred, lev) <= model.bound
                # the dense tolerances of the property tests hold here too
                assert pred <= 1e-9 and lev <= 1e-10
                sizes.append(model.n_support)
        assert max(sizes) > 2500
