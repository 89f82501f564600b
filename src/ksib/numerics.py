"""Deterministic numerical kernel: seeded RNG, quantiles, symmetric solves.

Everything here is pure given its inputs.  The random generator is
counter-based (Philox) so that split streams are reproducible bit for bit
across runs and platforms, which is what makes the Monte-Carlo tables in the
harness byte-stable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError, SingularityError

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One step of the SplitMix64 hash; full-period over 64-bit ints."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Splittable counter-based random stream.

    Parameters
    ----------
    seed : int
        Any 64-bit unsigned integer.  Equal seeds give bit-identical
        streams.  Streams derived via :meth:`split` with distinct keys are
        independent by construction (distinct hashed Philox keys).
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _MASK64
        k0 = _splitmix64(self.seed)
        k1 = _splitmix64(self.seed ^ 0xA5A5A5A5A5A5A5A5)
        self._gen = np.random.Generator(np.random.Philox(key=(k1 << 64) | k0))

    def split(self, key: int) -> "Rng":
        """Derive an independent child stream for integer ``key``."""
        child = _splitmix64(self.seed ^ _splitmix64(0xD1B54A32D192ED03 ^ (int(key) & _MASK64)))
        return Rng(child)

    def uniform(self) -> float:
        return float(self._gen.random())

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def _check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        # tolerate round-off asymmetry but nothing structural
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max())):
            raise DomainError(f"{name} is not symmetric")
        a = 0.5 * (a + a.T)
    return a


def factor_spd(a, ridge: float = 0.0):
    """Cholesky factor of ``A + ridge*I`` for symmetric positive definite ``A``.

    Returns ``(factor, jitter)``: ``factor`` is the ``(c, lower)`` pair that
    :func:`scipy.linalg.cho_solve` takes, and ``jitter`` is the extra
    diagonal the factored matrix carries (0.0 unless the retry fired).  One
    automatic jitter retry (``1e-10 * trace/dim`` added once) precedes
    :class:`SingularityError`; adaptive Gram matrices are occasionally
    near-singular early in a run and the jitter absorbs exactly those cases.
    """
    a = _check_symmetric(a, "A")
    if ridge < 0:
        raise DomainError("ridge must be nonnegative")
    return _factor_symmetric(a if ridge == 0.0 else a + ridge * np.eye(a.shape[0]))


def _factor_symmetric(m: np.ndarray):
    """:func:`factor_spd` of a matrix that is symmetric by construction and
    already carries its ridge; ``m`` is not checked and not modified."""
    jitter = 0.0
    for attempt in range(2):
        try:
            return cho_factor(m, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            if attempt == 0:
                jitter = 1e-10 * np.trace(m) / m.shape[0]
                if jitter <= 0:
                    jitter = 1e-12
                m = m + jitter * np.eye(m.shape[0])
    pivot = float(np.linalg.eigvalsh(m)[0])
    raise SingularityError("matrix not positive definite after ridge and jitter", pivot)


def solve_spd(a, b, ridge: float = 0.0):
    """Solve ``(A + ridge*I) x = b`` through :func:`factor_spd`.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    factor, _ = factor_spd(a, ridge)
    return cho_solve(factor, np.asarray(b, dtype=float), check_finite=False)


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _check_symmetric(a, "A")
    return float(np.linalg.eigvalsh(a)[0])


def median(xs) -> float:
    """Lower median: exact order statistic, deterministic for even length."""
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("median of empty sequence")
    k = (arr.size - 1) // 2
    return float(np.partition(arr, k)[k])


# ---------------------------------------------------------------------------
# Normal quantile: Acklam rational initialiser polished by Halley steps on
# the erfc-based CDF.  Absolute error is far below the 1e-8 contract.

_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _acklam(p: float) -> float:
    plow, phigh = 0.02425, 1 - 0.02425
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"normal_quantile requires p in (0,1), got {p}")
    x = _acklam(p)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    for _ in range(2):
        err = normal_cdf(x) - p
        u = err * sqrt_2pi * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma P(a, x) (series / continued fraction)
# and the chi-square quantile built on it.

def _gamma_p(a: float, x: float) -> float:
    if x < 0 or a <= 0:
        raise DomainError("incomplete gamma requires a > 0, x >= 0")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series representation
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # continued fraction (modified Lentz) for Q = 1 - P
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return 1.0 - q


def chi2_quantile(p: float, k: int) -> float:
    """Inverse chi-square CDF with ``k`` degrees of freedom.

    Wilson-Hilferty seed refined by safeguarded Newton on the regularized
    incomplete gamma; bisection fallback keeps the iterate bracketed.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires p in (0,1), got {p}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"chi2_quantile requires integer dof >= 1, got {k}")
    a = 0.5 * k
    z = normal_quantile(p)
    c = 2.0 / (9.0 * k)
    x = k * (1.0 - c + z * math.sqrt(c)) ** 3
    if x <= 0:
        x = 1e-12
    lo, hi = 0.0, max(4.0 * x, 8.0 * k + 40.0)
    while _gamma_p(a, 0.5 * hi) < p:
        hi *= 2.0
    lg = math.lgamma(a)
    for _ in range(200):
        f = _gamma_p(a, 0.5 * x) - p
        if f > 0:
            hi = x
        else:
            lo = x
        # chi2 pdf in log form; guard the x -> 0 limit
        if x <= 0:
            x = 0.5 * (lo + hi)
            continue
        log_pdf = (a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - lg
        step = f / math.exp(log_pdf)
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-12 * (1.0 + x):
            return x_new
        x = x_new
    return x
