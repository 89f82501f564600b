"""IPW kernel ridge regression on the projected scalar index, dual form.

The regressor solves the weighted ridge problem

    minimize  sum_s w_s (y_s - f(u_s))^2  +  ridge * ||f||_K^2

in its dual representation.  With ``D = diag(sqrt(w))`` the stationarity
condition ``(W K + ridge I) c = W y`` is solved through the symmetric
similarity transform ``c = D (D K D + ridge I)^{-1} D y``, which keeps
Cholesky applicable; rows with zero weight never enter the support (an
arm's support only contains rounds where it was pulled, so w_s > 0).

The fitted model keeps the Cholesky factor of ``M = D K D + ridge I`` so the
plug-in covariance in :mod:`ksib.np_inference` studentizes with the same
factorization instead of forming it again.  It also keeps the fitted values:
``M z = D y`` gives ``D K D z = D y - ridge z``, hence
``K c = y - ridge z / sqrt(w)`` with no n x n Gram product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import DomainError
from .numerics import factor_spd, median

DEFAULT_ZETA = 0.05
PAIR_CAP = 200_000


@dataclass(frozen=True)
class GaussianKernel:
    """RBF kernel ``k(u, v) = exp(-(u - v)^2 / (2 bandwidth^2))``; k(u,u)=1."""

    bandwidth: float

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")

    def __call__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        diff = np.subtract.outer(u, v) if (u.ndim and v.ndim) else u - v
        return np.exp(-0.5 * (diff / self.bandwidth) ** 2)

    def gram(self, u):
        return self(u, u)


def median_bandwidth(us, cap: int = PAIR_CAP) -> float:
    """Lower median of pairwise absolute distances.

    When the full pair count exceeds ``cap`` the points are subsampled with
    a deterministic stride so the result is reproducible.  Degenerate
    all-equal inputs fall back to 1.0.
    """
    us = np.asarray(us, dtype=float).ravel()
    n = us.size
    if n < 2:
        raise DomainError("median_bandwidth needs at least 2 points")
    stride = 1
    while True:
        m = (n + stride - 1) // stride
        if m * (m - 1) // 2 <= cap or m <= 2:
            break
        stride += 1
    sub = us[::stride]
    diffs = np.abs(sub[:, None] - sub[None, :])
    dist = diffs[np.triu_indices(sub.size, k=1)]
    if float(dist.max()) == 0.0:
        return 1.0
    return median(dist)


def ridge_schedule(t: int, zeta: float = DEFAULT_ZETA) -> float:
    """Decaying ridge level ``t^(-zeta)``."""
    if t < 1:
        raise DomainError("ridge_schedule requires t >= 1")
    return float(t) ** (-zeta)


@dataclass
class KrrModel:
    """Fitted dual-form weighted kernel ridge regressor.

    ``chol`` is the ``(c, lower)`` Cholesky pair of the factored system
    ``D K D + (system_ridge + jitter) I`` and ``fitted`` the in-sample
    values ``K c``.  ``jitter`` is 0.0 unless the factorization needed its
    one jitter retry; the model (and any covariance reusing ``chol``) is
    then the exact solution of that jittered system.
    """

    support_u: np.ndarray
    support_y: np.ndarray
    support_w: np.ndarray
    dual_coeffs: np.ndarray
    lam: float            # schedule-level ridge as passed to fit()
    t_scale: int          # multiplier applied to lam in the dual system
    kernel: GaussianKernel
    chol: tuple
    fitted: np.ndarray
    jitter: float = 0.0
    system_ridge: float = field(init=False)

    def __post_init__(self):
        self.system_ridge = self.lam * self.t_scale

    @property
    def n_support(self) -> int:
        return self.support_u.size

    @property
    def effective_ridge(self) -> float:
        """Ridge of the equivalent 1/n-normalized problem, ``system_ridge/n``."""
        return self.system_ridge / self.n_support

    def predict(self, u):
        """Evaluate ``sum_s k(u_s, u) c_s`` at one point or an array."""
        u_arr = np.asarray(u, dtype=float)
        k = self.kernel(self.support_u, u_arr)
        out = k.T @ self.dual_coeffs if k.ndim == 2 else float(k @ self.dual_coeffs)
        return out

    def fitted_values(self):
        """In-sample predictions ``K c``, kept from the fit."""
        return self.fitted


def fit(support_u, support_y, support_w, lam: float, kernel: GaussianKernel,
        lam_scale: str = "support") -> KrrModel:
    """Fit the weighted dual system.

    ``lam_scale='support'`` multiplies ``lam`` by the support size (the
    ``n * lam`` product of the 1/n-normalized formulation);
    ``lam_scale='none'`` uses ``lam`` as the raw system ridge.
    """
    u = np.asarray(support_u, dtype=float).ravel()
    y = np.asarray(support_y, dtype=float).ravel()
    w = np.asarray(support_w, dtype=float).ravel()
    if u.size == 0:
        raise DomainError("empty support")
    if u.size != y.size or u.size != w.size:
        raise DomainError("support arrays must share a length")
    if np.any(w <= 0):
        raise DomainError("support weights must be positive; drop zero-weight rows")
    if not (lam > 0):
        raise DomainError("lam must be positive")
    if lam_scale not in ("support", "none"):
        raise DomainError(f"unknown lam_scale {lam_scale!r}")
    t_scale = u.size if lam_scale == "support" else 1
    ridge = lam * t_scale
    sqrt_w = np.sqrt(w)
    gram_w = kernel.gram(u) * np.outer(sqrt_w, sqrt_w)
    chol, jitter = factor_spd(gram_w, ridge)
    z = cho_solve(chol, sqrt_w * y, check_finite=False)
    fitted = y - (ridge + jitter) * z / sqrt_w
    return KrrModel(u, y, w, sqrt_w * z, lam, t_scale, kernel, chol, fitted,
                    jitter)
