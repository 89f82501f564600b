"""Numerics kernel: quantiles against independent oracles, solves, RNG."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import gammainc

from ksib.errors import DomainError, SingularityError
from ksib.numerics import (Rng, chi2_quantile, factor_spd, median,
                           min_eigenvalue, normal_quantile, solve_spd)


def phi_series(x):
    """Normal CDF from the erf Taylor series; independent of the package."""
    z = x / math.sqrt(2.0)
    term = z
    total = z
    for n in range(1, 200):
        term *= -z * z / n
        total += term / (2 * n + 1)
        if abs(term) < 1e-18:
            break
    return 0.5 + total / math.sqrt(math.pi)


def normal_quantile_oracle(p):
    """Bisection on the erf-based CDF."""
    lo, hi = -13.0, 13.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_quantile_oracle(p, k):
    """Bisection on scipy's regularized incomplete gamma."""
    lo, hi = 0.0, 5000.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if gammainc(k / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalQuantile:
    def test_symmetry_at_half(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_sided_95(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_phi_of_one(self):
        assert normal_quantile(0.841344746) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("p", [1e-9, 1e-4, 0.3, 0.7, 0.9999, 1 - 1e-9])
    def test_against_bisection_oracle(self, p):
        assert normal_quantile(p) == pytest.approx(
            normal_quantile_oracle(p), abs=1e-8)

    def test_roundtrip_on_grid(self):
        for x in np.linspace(-5, 5, 81):
            assert normal_quantile(phi_series(x)) == pytest.approx(x, abs=1e-6)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


class TestChi2Quantile:
    def test_k1(self):
        assert chi2_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-4)

    def test_k2_closed_form(self):
        assert chi2_quantile(0.95, 2) == pytest.approx(-2 * math.log(0.05),
                                                       abs=1e-4)

    def test_k4(self):
        assert chi2_quantile(0.95, 4) == pytest.approx(9.487729, abs=1e-4)

    @pytest.mark.parametrize("p,k", [(0.01, 1), (0.5, 3), (0.99, 7),
                                     (0.999, 20), (0.05, 64), (0.9, 10)])
    def test_against_gamma_oracle(self, p, k):
        assert chi2_quantile(p, k) == pytest.approx(
            chi2_quantile_oracle(p, k), abs=1e-4)

    def test_vanishes_at_zero(self):
        assert 0.0 <= chi2_quantile(1e-12, 1) < 1e-4
        for k in (1, 4, 10):
            tiny = chi2_quantile(1e-12, k)
            assert 0.0 <= tiny < chi2_quantile(1e-6, k) < chi2_quantile(0.1, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 1)
        with pytest.raises(DomainError):
            chi2_quantile(0.5, 0)


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(x, [3.0, 4.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 2.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)

    def test_ridge_hand_solve(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        x = solve_spd(a, np.array([1.0, 1.0]), ridge=1.0)
        np.testing.assert_allclose(x, [0.5, 1.0], atol=1e-14)

    def test_residual_on_random_pd(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = q @ np.diag(rng.uniform(0.1, 10.0, n)) @ q.T
            a = 0.5 * (a + a.T)
            b = rng.normal(size=n)
            x = solve_spd(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_multi_rhs(self):
        rng = np.random.default_rng(1)
        a = np.eye(3) * 2.0
        b = rng.normal(size=(3, 4))
        np.testing.assert_allclose(solve_spd(a, b), b / 2.0, atol=1e-14)

    def test_singular_error_names_pivot(self):
        a = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(SingularityError) as err:
            solve_spd(a, np.ones(2))
        assert err.value.smallest_pivot is not None
        assert err.value.smallest_pivot < 0

    def test_jitter_recovers_near_singular(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        x = solve_spd(a, np.array([1.0, 0.0]))
        assert np.isfinite(x).all()


class TestFactorSpd:
    def test_factor_solves_like_solve_spd(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 6))
        a = g @ g.T
        b = rng.normal(size=6)
        factor, jitter = factor_spd(a, ridge=0.3)
        assert jitter == 0.0
        np.testing.assert_array_equal(
            cho_solve(factor, b, check_finite=False), solve_spd(a, b, ridge=0.3))

    def test_reports_jitter_retry(self):
        factor, jitter = factor_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert jitter == pytest.approx(1e-10)
        l = np.tril(factor[0])
        np.testing.assert_allclose(l @ l.T, [[1.0 + jitter, 1.0],
                                             [1.0, 1.0 + jitter]], atol=1e-15)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_indefinite_diagonal(self):
        assert min_eigenvalue(np.diag([5.0, -2.0])) == pytest.approx(-2.0)

    def test_two_by_two(self):
        assert min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) == \
            pytest.approx(1.0, rel=1e-8)

    def test_gram_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=(6, 6))
            assert min_eigenvalue(a.T @ a) >= -1e-12


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even_lower(self):
        assert median([1, 2, 3, 4]) == 2

    def test_singleton(self):
        assert median([7]) == 7

    def test_empty(self):
        with pytest.raises(DomainError):
            median([])


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(1_000_000)
        b = Rng(123).normal(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(100), Rng(2).normal(100))

    def test_split_streams_differ(self):
        root = Rng(7)
        a = root.split(0).normal(1000)
        b = root.split(1).normal(1000)
        assert not np.array_equal(a, b)

    def test_split_is_stable(self):
        assert Rng(7).split(3).seed == Rng(7).split(3).seed

    def test_uniform_in_unit_interval(self):
        r = Rng(11)
        us = [r.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)

    def test_permutation(self):
        p = Rng(5).permutation(10)
        assert sorted(p.tolist()) == list(range(10))

    def test_rejects_non_integer_seed(self):
        with pytest.raises(DomainError):
            Rng(1.5)
