"""Score-feature maps for index estimation.

A score model turns a raw context ``x`` into the feature ``w = S(x)`` used
by the moment estimator.  Standard normal contexts are their own score, so
they need no model; contexts of unknown law are whitened by their mean and
covariance, streamed one round at a time or built from a whole history.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularityError, StateError
from .numerics import min_eigenvalue, solve_spd


class EmpiricalWhiteningScore:
    """Streaming mean/covariance whitening: ``w = (Cov + ridge*I)^{-1}(x - mean)``.

    Mean and covariance are maintained with Welford updates, so a long
    stream never loses precision to catastrophic cancellation;
    :meth:`from_batch` builds the state of a whole history at once.
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
        """The state that ``update`` over the rows of ``xs`` reaches, built
        from their batch count, mean and centered cross-product."""
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

    def score(self, x):   # one context, or each row of a batch
        cov = self.covariance
        ridge = 1e-8 * float(np.trace(cov)) / self.dim
        if ridge == 0.0 and min_eigenvalue(cov) <= 0.0:
            raise SingularityError("whitening covariance singular: the "
                                   "contexts do not vary", min_eigenvalue(cov))
        centered = np.asarray(x, dtype=float) - self.mean
        return solve_spd(cov + ridge * np.eye(self.dim), centered.T).T
