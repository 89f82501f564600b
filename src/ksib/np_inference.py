"""Pointwise confidence intervals for the fitted link function.

Two constructions share the fitted regressor's center:

* ``KSIEGE`` -- the studentized CLT interval.  The plug-in covariance is
  the resolvent sandwich of the weighted residual outer products: with
  ``S = (1/n) D K D + lam I`` (the fit's own 1/n-normalized operator, so
  ``lam = ridge / n``) the variance of the evaluation functional at ``x``
  is estimated by ``sum_s w_s r_s^2 v_x[s]^2`` where ``v_x = D^{-1} S^{-1}
  D k_x``, all in dual coordinates.  Everything comes from the fit's
  low-rank factors through Woodbury, with no n x n array: ``D K D`` is
  replaced by ``L L^T``, and with ``ridge I + L^T L = R R^T`` and ``G =
  R^{-1} L^T`` (r x n), ``S^{-1} = (n / ridge) (I - G^T G)``.  The
  leave-one-out leverages follow from the same ``G``: since ``(1/n) D K D
  S^{-1} = I - lam S^{-1}``, the smoother leverage satisfies ``1 - h_s =
  lam [S^{-1}]_ss = 1 - |G e_s|^2``.

* ``AS`` -- a conservative uniform-band interval whose half-width is the
  closed form ``2 sqrt(2) kappa c (2 r_tilde / eta)^theta`` driven by the
  realized exploration coefficient ``r_tilde``; it ignores the data except
  through ``r_tilde`` and the center.  ``kappa = 1`` is the Gaussian
  kernel's bound ``sup k(u,u)^(1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DomainError
from .kernel_ridge import KrrModel
from .numerics import normal_quantile

DEFAULT_GAMMA = 0.5
DEFAULT_THETA = 0.2

METHOD_CLT = "KSIEGE"
METHOD_BAND = "AS"


@dataclass
class NpCovariance:
    """Dual-coordinate covariance core for one fitted arm.

    ``d2(x) = scale * k_x^T M k_x`` where ``M = P R P^T`` with the resolvent
    ``P = ((1/n) W K + lam I)^{-1}`` and ``R = diag(w_s^2 r_s^2)``.  The
    squared realized weight is what makes the sum over pulled rounds an
    unbiased plug-in for the (1/p)-weighted predictable variation: for the
    pull indicator, ``E[1{a} w^2 z] = E[w z]``.  Only ``G`` (r x n) is
    cached.  ``one_minus_h`` holds the leave-one-out denominators
    ``1 - h_s`` before any clipping.
    """

    model: KrrModel
    gamma: float
    scale: float
    one_minus_h: np.ndarray
    _g: np.ndarray
    _sqrt_w: np.ndarray
    _resid: np.ndarray
    n_leverage_clipped: int = 0

    def _v(self, u):
        """``v_x = W^{-1/2} S^{-1} W^{1/2} k_x`` for one point or a batch."""
        k = self.model.kernel(self.model.support_u, np.asarray(u, dtype=float))
        sqrt_w = self._sqrt_w[:, None] if k.ndim == 2 else self._sqrt_w
        rhs = sqrt_w * k
        sol = rhs - self._g.T @ (self._g @ rhs)
        return (self.model.n_support / self.model.ridge) * sol / sqrt_w

    def d2(self, u) -> float:
        """Squared studentizer ``scale * sum_s w_s^2 r_s^2 v_x[s]^2``."""
        v = self._v(u)
        weights = self.model.support_w ** 2 * self._resid ** 2
        if v.ndim == 2:
            return self.scale * (weights @ v ** 2)
        return float(self.scale * np.sum(weights * v ** 2))


@dataclass
class PointwiseCi:
    center: float
    half_width: float
    lo: float
    hi: float
    method: str
    u: float
    clamped: bool = False


def build_covariance(model: KrrModel, gamma: float = DEFAULT_GAMMA, *,
                     residual_mode: str) -> NpCovariance:
    """Plug-in covariance of the fitted regressor in dual form.

    The resolvent in the sandwich is the fit's own, so the covariance
    studentizes exactly the estimator it is built from and reuses its
    factors.  ``scale`` is ``n^(2 gamma - 2)`` with ``n`` the support size.

    ``residual_mode`` is "raw" or "loo"; "loo" inflates each residual to its
    leave-one-out value ``r_s / (1 - h_s)`` (``h_s`` the smoother leverage).
    With decaying ridge levels the heaviest-weighted support points are
    nearly interpolated, which zeroes their raw residuals exactly where the
    fit leans on them; the jackknife form keeps the plug-in consistent there.
    """
    if residual_mode not in ("raw", "loo"):
        raise DomainError(f"unknown residual_mode {residual_mode!r}")
    c, lower = model.inner
    # dtrtrs, which solve_triangular wraps; at rank 0 there is nothing to solve
    g, info = dtrtrs(c, model.factor, lower=lower) if model.rank else (model.factor, 0)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed, dtrtrs info {info}")
    one_minus_h = 1.0 - np.einsum("ij,ij->j", g, g)
    resid = model.support_y - model.fitted
    clipped = 0
    if residual_mode == "loo":
        clipped = int(np.count_nonzero(one_minus_h < 0.05))
        resid = resid / np.clip(one_minus_h, 0.05, None)
    scale = float(model.n_support) ** (2.0 * gamma - 2.0)
    return NpCovariance(model, gamma, scale, one_minus_h, g,
                        np.sqrt(model.support_w), resid, clipped)


def pointwise_ci(cov: NpCovariance, u: float, alpha: float) -> PointwiseCi:
    """CLT interval ``f_hat(u) +/- z_{1-alpha/2} n^-gamma sqrt(d2(u))``, with
    the model, its support size ``n`` and ``gamma`` read from ``cov``.

    ``gamma`` cancels: ``d2`` carries ``n^(2 gamma - 2)``, so the half-width
    is ``z n^-1 sqrt(d2 / scale)`` for every ``gamma``.  A negative ``d2``
    (solver round-off) is clamped to zero and flagged.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1)")
    center = float(cov.model.predict(u))
    d2 = cov.d2(u)
    clamped = d2 < 0.0
    half = normal_quantile(1.0 - alpha / 2.0) * \
        float(cov.model.n_support) ** (-cov.gamma) * np.sqrt(max(0.0, d2))
    return PointwiseCi(center, float(half), center - float(half),
                       center + float(half), METHOD_CLT, float(u), clamped)


def as_band_ci(model: KrrModel, u: float, eta: float, r_tilde: float,
               kappa: float = 1.0, c_const: float = 1.0,
               theta: float = DEFAULT_THETA) -> PointwiseCi:
    """Uniform-band interval with half-width ``2 sqrt(2) kappa c (2 r~/eta)^theta``."""
    if not (0.0 < eta < 1.0):
        raise DomainError("eta must be in (0,1)")
    if not (r_tilde > 0):
        raise DomainError("r_tilde must be positive")
    if not (0.0 < theta < 0.5):
        raise DomainError("theta must be in (0, 1/2)")
    if not (c_const > 0):
        raise DomainError("c_const must be positive")
    center = float(model.predict(u))
    half = 2.0 * np.sqrt(2.0) * kappa * c_const * (2.0 * r_tilde / eta) ** theta
    return PointwiseCi(center, float(half), center - float(half),
                       center + float(half), METHOD_BAND, float(u))


def exploration_coefficient(propensities) -> float:
    """Realized variance-inflation scale ``t^-2 sum_s 1/p_s``.

    ``propensities`` are the arm's per-round assignment probabilities over
    all rounds up to t, pulled or not.
    """
    p = np.asarray(propensities, dtype=float).ravel()
    if p.size < 1:
        raise DomainError("exploration_coefficient requires t >= 1")
    if (p <= 0).any():
        raise DomainError("recorded propensities must be positive")
    t = p.size
    return float((1.0 / p).sum() / t ** 2)


def calibrate_band_constant(abs_errors, base_half_widths) -> float:
    """Smallest multiplier of the unit-constant band covering every error.

    Given ``|f_hat - f|`` and the corresponding ``c=1`` half-widths at a
    calibration time, returns ``max(err / half)``: scaling the band by it
    makes empirical coverage exactly 1 at that time.
    """
    err = np.asarray(abs_errors, dtype=float).ravel()
    base = np.asarray(base_half_widths, dtype=float).ravel()
    if err.size == 0 or err.size != base.size:
        raise DomainError("calibration needs matching nonempty arrays")
    if np.any(base <= 0):
        raise DomainError("base half-widths must be positive")
    return float(np.max(err / base))
