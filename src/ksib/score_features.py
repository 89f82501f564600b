"""Score-feature maps for index estimation.

A score model turns a raw context ``x`` into the feature ``w = S(x)`` used
by the moment estimator.  Two variants: a known Gaussian score (exact
``Sigma^{-1}(x - mu)``, the identity map for standard normal contexts) and
streaming empirical whitening for data whose distribution is unknown.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import DomainError, SingularityError, StateError
from .numerics import factor_spd, min_eigenvalue, solve_spd


class KnownGaussianScore:
    """Score of a known Gaussian context law: ``w = Sigma^{-1}(x - mu)``."""

    def __init__(self, mean, covariance):
        self.mean = np.asarray(mean, dtype=float)
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (self.mean.size, self.mean.size):
            raise DomainError("covariance shape does not match mean")
        self.covariance = cov
        # factored once; fails fast on a non-PD covariance
        self._factor = factor_spd(cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def score(self, x):
        centered = np.asarray(x, dtype=float) - self.mean
        # the LAPACK solve behind cho_solve, without its per-call wrapper
        c, lower = self._factor
        return dpotrs(c, centered.T, lower=lower)[0].T

    @classmethod
    def standard(cls, dim: int) -> "KnownGaussianScore":
        """Standard normal contexts: the score is the identity map."""
        return cls(np.zeros(dim), np.eye(dim))


class EmpiricalWhiteningScore:
    """Streaming mean/covariance whitening: ``w = (Cov + ridge*I)^{-1}(x - mean)``.

    Mean and covariance are maintained with Welford updates, so a long
    stream never loses precision to catastrophic cancellation;
    :meth:`from_batch` builds the same state from a whole history at once.
    ``ridge`` is ``1e-8 * trace(Cov)/dim`` at score time, which keeps the
    solve well-posed when the dimension approaches the early sample count.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DomainError("dim must be positive")
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros((dim, dim))

    @classmethod
    def from_batch(cls, xs) -> "EmpiricalWhiteningScore":
        """The state that ``update`` over each row of ``xs`` reaches, built
        from the batch count, mean and centered cross-product at once."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            raise DomainError(f"expected a 2-d batch of contexts, got shape {xs.shape}")
        model = cls(xs.shape[1])
        model.count = xs.shape[0]
        model.mean = xs.mean(axis=0)
        centered = xs - model.mean
        model._m2 = centered.T @ centered
        return model

    def update(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"expected context of dim {self.dim}, got shape {x.shape}")
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self._m2 = self._m2 + np.outer(delta, x - self.mean)

    @property
    def covariance(self) -> np.ndarray:
        if self.count < 2:
            raise StateError("covariance undefined with fewer than 2 observations")
        return self._m2 / (self.count - 1)

    def score(self, x):
        cov = self.covariance
        ridge = 1e-8 * float(np.trace(cov)) / self.dim
        if ridge == 0.0 and min_eigenvalue(cov) <= 0.0:
            raise SingularityError("whitening covariance singular: the "
                                   "contexts do not vary", min_eigenvalue(cov))
        x = np.asarray(x, dtype=float)
        centered = x - self.mean
        return solve_spd(cov, centered.T, ridge=ridge).T
