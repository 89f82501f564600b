"""Deterministic numerical kernel: seeded RNG, quantiles, symmetric solves.

Everything here is pure given its inputs.  The random generator is
counter-based (Philox) so that split streams are reproducible bit for bit
across runs and platforms, which is what makes the Monte-Carlo tables in the
harness byte-stable.  The normal and chi-square quantiles are thin wrappers
over ``scipy.special`` that add the package's domain errors.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"A must be square, got shape {a.shape}")
    if not (a == a.T).all():
        # tolerate round-off asymmetry but nothing structural; NaN fails both
        if not np.abs(a - a.T).max() <= 1e-12 * (1.0 + np.abs(a).max()):
            raise DomainError("A is not symmetric")
        a = 0.5 * (a + a.T)
    return a


def factor_spd(a):
    """Cholesky factor of a symmetric positive definite ``A``.

    Returns the ``(c, lower)`` pair :func:`scipy.linalg.cho_solve` takes.
    One automatic jitter retry (``1e-10 * trace/dim`` added once) precedes
    :class:`SingularityError`; adaptive Gram matrices are occasionally
    near-singular early in a run and the jitter absorbs exactly those cases.
    LAPACK's ``dpotrf`` is called directly: it is the routine ``cho_factor``
    wraps, so the factor has the same bits, without the wrapper's per-call
    cost on the small systems of the policy loop.
    """
    a = _check_symmetric(a)
    c, info = dpotrf(a, lower=1, clean=0)
    if info != 0:
        jitter = 1e-10 * np.trace(a) / a.shape[0]
        if jitter <= 0:
            jitter = 1e-12
        a = a + jitter * np.eye(a.shape[0])
        c, info = dpotrf(a, lower=1, clean=0)
        if info != 0:
            raise SingularityError("matrix not positive definite after jitter",
                                   float(np.linalg.eigvalsh(a)[0]))
    return c, True


def solve_spd(a, b, factor=None):
    """Solve ``A x = b`` through :func:`factor_spd` and ``dpotrs`` (the solve
    ``cho_solve`` wraps).

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    ``factor``, the pair :func:`factor_spd` returned for ``A``, skips
    factoring ``A`` again.
    """
    c, lower = factor_spd(a) if factor is None else factor
    return dpotrs(c, np.asarray(b, dtype=float), lower=lower)[0]


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _check_symmetric(a)
    return float(np.linalg.eigvalsh(a)[0])


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"normal_quantile requires p in (0,1), got {p}")
    # deferred: importing scipy.special costs ~70 ms and ~4 MB of RSS, and
    # the policy loop never needs a quantile
    from scipy.special import ndtri
    return float(ndtri(p))


def chi2_quantile(p: float, k: int) -> float:
    """Inverse chi-square CDF with ``k`` degrees of freedom.

    ``2 * P^{-1}(k/2, p)`` through the inverse regularized lower incomplete
    gamma, which takes ``p`` itself, so small ``p`` suffers no ``1 - p``
    cancellation.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires p in (0,1), got {p}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"chi2_quantile requires integer dof >= 1, got {k}")
    from scipy.special import gammaincinv
    return 2.0 * float(gammaincinv(0.5 * k, p))
