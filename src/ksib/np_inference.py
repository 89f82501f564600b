"""Pointwise confidence intervals for the fitted link function.

Two constructions share the fitted regressor's center:

* ``KSIEGE`` -- the studentized CLT interval.  The plug-in covariance is
  the resolvent sandwich of the weighted residual outer products: with
  ``A = Sigma_hat + lam I`` (the fit's own 1/n-normalized operator) the
  variance of the evaluation functional at ``x`` is estimated by
  ``sum_s w_s r_s^2 v_x[s]^2`` where ``v_x[s] = (A^{-1} k_s)(x)``, all in
  dual coordinates.  With the default ``lam`` (the fit's own effective
  ridge) ``S = (1/n) D K D + lam I`` is ``M/n`` for the fit's system
  matrix ``M = D K D + n lam I``, so the covariance reuses the fit's
  Cholesky factor, ``chol(S) = chol(M)/sqrt(n)``, and factors nothing.
  The leave-one-out leverages follow from the same factor: since
  ``(1/n) D K D S^{-1} = I - lam S^{-1}``, the smoother leverage satisfies
  ``1 - h_s = lam [S^{-1}]_ss``, the squared norm of column s of
  ``chol(S)^{-1}`` times ``lam`` -- one triangular inverse instead of
  solving against the identity.

* ``AS`` -- a conservative uniform-band interval whose half-width is the
  closed form ``2 sqrt(2) kappa c (2 r_tilde / eta)^theta`` driven by the
  realized exploration coefficient ``r_tilde``; it ignores the data except
  through ``r_tilde`` and the center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtri

from .errors import DomainError, SingularityError
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
    pull indicator, ``E[1{a} w^2 z] = E[w z]``.  Only the Cholesky factor of
    the symmetrized resolvent is cached; M is materialized on demand.
    """

    model: KrrModel
    gamma: float
    lam: float
    scale: float
    _chol: tuple
    _sqrt_w: np.ndarray
    _resid: np.ndarray
    n_leverage_clipped: int = 0

    def _v(self, u):
        """``v_x = W^{-1/2} S^{-1} W^{1/2} k_x`` for one point or a batch."""
        k = self.model.kernel(self.model.support_u, np.asarray(u, dtype=float))
        rhs = self._sqrt_w[:, None] * k if k.ndim == 2 else self._sqrt_w * k
        sol = cho_solve(self._chol, rhs, check_finite=False)
        return (sol.T / self._sqrt_w).T if k.ndim == 2 else sol / self._sqrt_w

    def d2(self, u) -> float:
        """Squared studentizer ``scale * sum_s w_s^2 r_s^2 v_x[s]^2``."""
        v = self._v(u)
        weights = self.model.support_w ** 2 * self._resid ** 2
        if v.ndim == 2:
            return self.scale * (weights @ v ** 2)
        return float(self.scale * np.sum(weights * v ** 2))

    def core_matrix(self) -> np.ndarray:
        """Materialize M (for diagnostics; symmetric PSD by construction)."""
        c = cho_solve(self._chol, np.diag(self._sqrt_w), check_finite=False)
        return c.T @ np.diag(self.model.support_w * self._resid ** 2) @ c


@dataclass
class PointwiseCi:
    center: float
    half_width: float
    lo: float
    hi: float
    method: str
    u: float
    t: int
    gamma: float
    level: float
    clamped: bool = False


def _loo_denominators(chol, lam: float) -> np.ndarray:
    """``1 - h_s = lam [S^{-1}]_ss`` from the factor ``S = L L^T``.

    ``[S^{-1}]_ss`` is the squared norm of column s of ``L^{-1}``, i.e. of
    row s of ``L^{-T}``, taken from one triangular inverse (about n^3/3
    flops).  ``tril(L).T`` is Fortran-ordered, so LAPACK inverts it in place.
    """
    u_inv, info = dtrtri(np.tril(chol[0]).T, lower=0, overwrite_c=1)
    if info != 0:
        raise SingularityError("covariance factor has a zero pivot")
    return lam * np.einsum("ij,ij->i", u_inv, u_inv)


def build_covariance(model: KrrModel, gamma: float = DEFAULT_GAMMA,
                     lam: float | None = None,
                     residual_mode: str = "raw") -> NpCovariance:
    """Plug-in covariance of the fitted regressor in dual form.

    ``lam`` defaults to the model's own effective ridge so the resolvent in
    the sandwich matches the estimator it studentizes, and the fit's
    Cholesky factor is reused (it carries the fit's jitter, if any, so the
    sandwich then studentizes the jittered system).  Passing a different
    value is allowed but decouples the two and factors ``S`` afresh.
    ``scale`` is ``n^(2 gamma - 2)`` with ``n`` the support size.

    ``residual_mode='loo'`` inflates each residual to its leave-one-out
    value ``r_s / (1 - h_s)`` (``h_s`` the smoother leverage).  With decaying
    ridge levels the heaviest-weighted support points are nearly
    interpolated, which zeroes their raw residuals exactly where the fit
    leans on them; the jackknife form keeps the plug-in consistent there.
    """
    if residual_mode not in ("raw", "loo"):
        raise DomainError(f"unknown residual_mode {residual_mode!r}")
    n = model.n_support
    sqrt_w = np.sqrt(model.support_w)
    if lam is None:
        lam = (model.system_ridge + model.jitter) / n
        c, low = model.chol
        chol = (c / np.sqrt(n), low)
    else:
        if not (lam > 0):
            raise DomainError("lam must be positive")
        s = model.kernel.gram(model.support_u) * np.outer(sqrt_w, sqrt_w) / n
        s[np.diag_indices(n)] += lam
        try:
            chol = cho_factor(s, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("covariance operator not PD after ridge") from exc
    resid = model.support_y - model.fitted_values()
    clipped = 0
    if residual_mode == "loo":
        one_minus_h = _loo_denominators(chol, lam)
        clipped = int(np.count_nonzero(one_minus_h < 0.05))
        resid = resid / np.clip(one_minus_h, 0.05, None)
    scale = float(n) ** (2.0 * gamma - 2.0)
    return NpCovariance(model, gamma, lam, scale, chol, sqrt_w, resid, clipped)


def pointwise_ci(model: KrrModel, cov: NpCovariance, u: float, alpha: float,
                 t: int, gamma: float) -> PointwiseCi:
    """CLT interval ``f_hat(u) +/- z_{1-alpha/2} t^-gamma sqrt(d2(u))``.

    A negative ``d2`` (solver round-off) is clamped to zero and flagged.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be in (0,1)")
    center = float(model.predict(u))
    d2 = cov.d2(u)
    clamped = d2 < 0.0
    half = normal_quantile(1.0 - alpha / 2.0) * float(t) ** (-gamma) * \
        np.sqrt(max(0.0, d2))
    return PointwiseCi(center, float(half), center - float(half),
                       center + float(half), METHOD_CLT, float(u), t, gamma,
                       1.0 - alpha, clamped)


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
                       center + float(half), METHOD_BAND, float(u),
                       model.n_support, 0.0, 1.0 - eta)


def exploration_coefficient(propensities) -> float:
    """Realized variance-inflation scale ``t^-2 sum_s 1/p_s``.

    ``propensities`` are the arm's per-round assignment probabilities over
    all rounds up to t, pulled or not.
    """
    p = np.asarray(propensities, dtype=float).ravel()
    if p.size < 1:
        raise DomainError("exploration_coefficient requires t >= 1")
    if np.any(p <= 0):
        raise DomainError("recorded propensities must be positive")
    t = p.size
    return float(np.sum(1.0 / p) / t ** 2)


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
