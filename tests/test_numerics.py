"""Numerics kernel: quantiles against independent oracles, solves, RNG."""

import math
import statistics

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf
from scipy.special import gammainc

from ksib import numerics
from ksib.errors import DomainError, SingularityError
from ksib.numerics import (Rng, chi2_quantile, factor_spd, min_eigenvalue,
                           normal_quantile, solve_spd)


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

    @pytest.mark.parametrize("p", [1e-10, 1 - 1e-10, 1 - 1e-14])
    def test_far_tails(self, p):
        """The erf-bisection oracle loses accuracy here; stdlib inverts the
        complementary tail, where ``1 - p`` is exact."""
        expect = (statistics.NormalDist().inv_cdf(p) if p < 0.5
                  else -statistics.NormalDist().inv_cdf(1 - p))
        assert normal_quantile(p) == pytest.approx(expect, rel=0, abs=1e-12)

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

    @pytest.mark.parametrize("p", [1e-12, 1e-8])
    def test_k1_small_p_closed_form(self, p):
        """chi2_1 CDF is erf(sqrt(x/2)) ~ sqrt(2x/pi), so x ~ pi p^2 / 2."""
        assert chi2_quantile(p, 1) == pytest.approx(math.pi * p * p / 2,
                                                    rel=1e-6, abs=0)

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
        x = solve_spd(a + 1.0 * np.eye(2), np.array([1.0, 1.0]))
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

    def test_singular_input_takes_jitter_retry_then_raises(self, monkeypatch):
        calls = []

        def counting_dpotrf(m, **kwargs):
            calls.append(np.array(m))
            return dpotrf(m, **kwargs)

        monkeypatch.setattr(numerics, "dpotrf", counting_dpotrf)
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularityError):
            solve_spd(a, np.ones(2))
        assert len(calls) == 2
        jitter = 1e-10 * np.trace(a) / 2
        np.testing.assert_array_equal(calls[1], a + jitter * np.eye(2))

    def test_bit_identical_to_cho_factor_and_cho_solve(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 5):
            g = rng.normal(size=(d, d))
            a = g @ g.T + 0.1 * np.eye(d)
            for b in (rng.normal(size=d), rng.normal(size=(d, 3))):
                old = cho_solve(cho_factor(a + 0.2 * np.eye(d), lower=True,
                                           check_finite=False), b,
                                check_finite=False)
                assert np.array_equal(solve_spd(a + 0.2 * np.eye(d), b), old)

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
        factor = factor_spd(a + 0.3 * np.eye(6))
        l = np.tril(factor[0])
        np.testing.assert_allclose(l @ l.T, a + 0.3 * np.eye(6), rtol=1e-13)
        np.testing.assert_array_equal(
            cho_solve(factor, b, check_finite=False), solve_spd(a + 0.3 * np.eye(6), b))

    def test_reports_jitter_retry(self):
        """A singular matrix is factored with the retry's jitter on its
        diagonal: ``1e-10 * trace/dim``, here 1e-10."""
        c, lower = factor_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert lower
        l = np.tril(c)
        np.testing.assert_allclose(l @ l.T, [[1.0 + 1e-10, 1.0],
                                             [1.0, 1.0 + 1e-10]], rtol=0, atol=1e-15)


class TestCheckSymmetric:
    @pytest.mark.parametrize("at", [(0, 0), (1, 3)])
    def test_nan_refused(self, at):
        a = np.eye(5)
        a[at] = np.nan
        with pytest.raises(DomainError, match="not symmetric"):
            numerics._check_symmetric(a)
        with pytest.raises(DomainError, match="not symmetric"):
            min_eigenvalue(a)

    def test_structural_asymmetry_refused(self):
        a = np.eye(5)
        a[0, 4] = 1e-3
        with pytest.raises(DomainError, match="A is not symmetric"):
            solve_spd(a, np.ones(5))

    def test_roundoff_asymmetry_symmetrized(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(5, 5))
        a = b @ b.T
        a[1, 2] = np.nextafter(a[1, 2], np.inf)
        got = numerics._check_symmetric(a)
        assert np.array_equal(got, 0.5 * (a + a.T))
        assert np.array_equal(got, got.T)

    def test_accepts_what_allclose_accepted(self):
        """The tolerance is the former elementwise ``np.allclose`` test's."""
        rng = np.random.default_rng(4)
        for scale in 10.0 ** np.arange(-16, -8):
            for _ in range(20):
                a = rng.normal(size=(5, 5)) * rng.uniform(0.1, 10.0)
                a = a + a.T + scale * rng.normal(size=(5, 5))
                atol = 1e-12 * (1.0 + np.abs(a).max())
                if np.allclose(a, a.T, rtol=0.0, atol=atol):
                    assert np.array_equal(numerics._check_symmetric(a),
                                          0.5 * (a + a.T))
                else:
                    with pytest.raises(DomainError):
                        numerics._check_symmetric(a)


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
