"""IPW kernel ridge regression on the projected scalar index, dual form.

The regressor solves the weighted ridge problem

    minimize  sum_s w_s (y_s - f(u_s))^2  +  ridge * ||f||_K^2

in its dual representation.  With ``D = diag(sqrt(w))`` the stationarity
condition ``(W K + ridge I) c = W y`` is solved through the symmetric
similarity transform ``c = D (D K D + ridge I)^{-1} D y``, which keeps
Cholesky applicable; rows with zero weight never enter the support (an
arm's support only contains rounds where it was pulled, so w_s > 0).

Two solvers share this system:

* :func:`fit` serves inference.  It factors the dense ``M = D K D + ridge I``
  and keeps the factor on the :class:`KrrModel`, so the plug-in covariance
  in :mod:`ksib.np_inference` studentizes with the same factorization
  instead of forming it again.  It also keeps the fitted values: ``M z =
  D y`` gives ``D K D z = D y - ridge z``, hence ``K c = y - ridge z /
  sqrt(w)`` with no n x n Gram product.  A snapshot runs it once, so its
  O(n^3) cost is paid once per (t, arm).
* :func:`fit_pivoted` serves decisions.  The policy refits every arm's link
  whenever the arm is pulled (every round up to 200 pulls, then every 10),
  and the index direction moves every round, so no factor carries over
  between refits.  A pivoted Cholesky of ``D K D`` of small rank r (the
  1-D Gaussian kernel matrix has a fast-decaying spectrum) plus a Woodbury
  solve costs O(n r^2), with a stopping rule that bounds the prediction
  error against :func:`fit`.  Its :class:`LinkPredictor` keeps only what
  prediction needs, so it cannot be passed to the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError
from .numerics import _factor_symmetric, median

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
        diff = np.subtract.outer(u, v) if (u.ndim and v.ndim) else np.asarray(u - v)
        # exp(-0.5 * (diff / bandwidth) ** 2), evaluated inside one buffer
        np.divide(diff, self.bandwidth, out=diff)
        np.square(diff, out=diff)
        np.multiply(-0.5, diff, out=diff)
        return np.exp(diff, out=diff)[()]   # [()]: a 0-d result as a scalar

    def gram(self, u):
        return self(u, u)


def weighted_gram(kernel, u, sqrt_w):
    """``D K D`` with ``D = diag(sqrt_w)``, built in two n x n buffers."""
    gram = kernel.gram(u)
    return np.multiply(gram, np.outer(sqrt_w, sqrt_w), out=gram)


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


def _evaluate(kernel, support_u, dual_coeffs, u):
    """``sum_s k(u_s, u) c_s`` at one point or an array of points."""
    k = kernel(support_u, np.asarray(u, dtype=float))
    return k.T @ dual_coeffs if k.ndim == 2 else float(k @ dual_coeffs)


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
        return _evaluate(self.kernel, self.support_u, self.dual_coeffs, u)

    def fitted_values(self):
        """In-sample predictions ``K c``, kept from the fit."""
        return self.fitted


@dataclass(frozen=True)
class LinkPredictor:
    """The link estimate the policy decides with, from :func:`fit_pivoted`.

    It carries only what prediction needs and no n x n array, so it cannot
    stand in for a :class:`KrrModel` in the plug-in covariance.  ``rank`` is
    the number of pivoted-Cholesky columns the solve used.
    """

    support_u: np.ndarray
    dual_coeffs: np.ndarray
    kernel: GaussianKernel
    rank: int

    def predict(self, u):
        """Evaluate ``sum_s k(u_s, u) c_s`` at one point or an array."""
        return _evaluate(self.kernel, self.support_u, self.dual_coeffs, u)


def _support_system(support_u, support_y, support_w, lam, lam_scale):
    """Validated support arrays and the system ridge ``lam * t_scale``."""
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
    return u, y, w, t_scale


def fit(support_u, support_y, support_w, lam: float, kernel: GaussianKernel,
        lam_scale: str = "support") -> KrrModel:
    """Fit the weighted dual system.

    ``lam_scale='support'`` multiplies ``lam`` by the support size (the
    ``n * lam`` product of the 1/n-normalized formulation);
    ``lam_scale='none'`` uses ``lam`` as the raw system ridge.
    """
    u, y, w, t_scale = _support_system(support_u, support_y, support_w, lam,
                                       lam_scale)
    ridge = lam * t_scale
    sqrt_w = np.sqrt(w)
    system = weighted_gram(kernel, u, sqrt_w)
    system[np.diag_indices(u.size)] += ridge
    chol, jitter = _factor_symmetric(system)
    z = cho_solve(chol, sqrt_w * y, check_finite=False)
    fitted = y - (ridge + jitter) * z / sqrt_w
    return KrrModel(u, y, w, sqrt_w * z, lam, t_scale, kernel, chol, fitted,
                    jitter)


# |f_exact(v) - f_pivoted(v)| <= PREDICTION_TOL at every v (see fit_pivoted)
PREDICTION_TOL = 1e-10


def fit_pivoted(support_u, support_y, support_w, lam: float,
                kernel: GaussianKernel,
                lam_scale: str = "support") -> LinkPredictor:
    """Solve the system of :func:`fit` through a pivoted Cholesky factor.

    ``A = D K D`` is factored greedily as ``L L^T``: each step pivots on the
    largest entry of the residual diagonal ``diag(A - L L^T)`` (which
    starts at ``w``, because ``k(u, u) = 1``) and takes its column from the
    kernel.  The factor stops growing once the residual trace ``tau`` is at
    most ``PREDICTION_TOL * ridge^2 / (sqrt(sum w) * |D y|)``, and
    ``(ridge I + L L^T) z = D y`` is then solved through Woodbury with an
    r x r Cholesky of ``ridge I + L^T L``.  The residual is positive
    semidefinite with norm at most ``tau``, so ``|z - z_exact| <= tau |D y| /
    ridge^2`` and every prediction ``k_v^T D z`` is within ``PREDICTION_TOL``
    of the exact fit's.  That bound is for exact arithmetic; the factor's
    own round-off, of order machine epsilon times ``r sum(w)``, comes on
    top.  The cost is O(n r^2); the 1-D Gaussian kernel matrix has a
    fast-decaying spectrum, so r stays far below n, and at r = n the factor
    is exact.
    """
    u, y, w, t_scale = _support_system(support_u, support_y, support_w, lam,
                                       lam_scale)
    ridge = lam * t_scale
    n = u.size
    sqrt_w = np.sqrt(w)
    rhs = sqrt_w * y
    scale = float(np.sqrt(w.sum()) * np.linalg.norm(rhs))
    tol = PREDICTION_TOL * ridge * ridge / scale if scale > 0 else np.inf
    resid = w.copy()
    lt = np.empty((min(n, 32), n))   # L^T: row j is column j of L
    rank = 0
    while rank < n and resid.sum() > tol:
        if rank == lt.shape[0]:
            lt = np.concatenate([lt, np.empty((min(n, 2 * rank) - rank, n))])
        i = int(np.argmax(resid))
        col = kernel(u, u[i])
        col *= sqrt_w * sqrt_w[i]
        col -= lt[:rank].T @ lt[:rank, i]
        col /= np.sqrt(resid[i])
        lt[rank] = col
        resid -= col * col
        np.maximum(resid, 0.0, out=resid)
        resid[i] = 0.0
        rank += 1
    lt = lt[:rank]
    inner = lt @ lt.T
    inner[np.diag_indices(rank)] += ridge
    coef = cho_solve(cho_factor(inner, lower=True, check_finite=False),
                     lt @ rhs, check_finite=False)
    z = (rhs - lt.T @ coef) / ridge
    return LinkPredictor(u, sqrt_w * z, kernel, rank)
