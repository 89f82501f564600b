"""Directional confidence sets for the normalized index.

Builds the feasible covariance of the index estimator from per-round
influence vectors, projects it onto the tangent space of the unit sphere
with the delta-method Jacobian ``J(b) = (I - b b^T)/||beta||``, and forms a
chi-square ellipsoid plus per-coordinate intervals.

Directions are identifiable only up to sign, so coverage checks align the
candidate to the hemisphere of the estimate first.  The coverage decision
is invariant to the scaling exponent ``alpha``: the ``t^(alpha-1)`` factor
in the influence vectors and the ``t^(-2*alpha)`` in the directional
covariance compose to an alpha-free matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError
from .numerics import chi2_quantile, solve_spd

# Relative eigenvalue cutoff for the tangent-space pseudo-inverse; the
# directional covariance is rank-deficient by construction (the estimate's
# own direction spans its null space).
_PINV_RCUT = 1e-10
# Below this absolute spectral floor the covariance is treated as the
# point ellipsoid {direction}: with zero residuals the only member is the
# estimate itself (up to solver round-off on unit vectors).
_ZERO_FLOOR = 1e-20
_POINT_TOL = 1e-8


@dataclass
class DirectionalReport:
    direction: np.ndarray
    v_dir: np.ndarray
    ellipsoid_radius2: float
    marginal_half_widths: np.ndarray
    level: float


def build_influence(features, rewards, weights, beta_hat, gram, alpha: float,
                    t: int, factor=None) -> np.ndarray:
    """Influence vectors ``t^(alpha-1) A^{-1} w W R``: one row per pulled round.

    ``features``, ``rewards``, ``weights`` are restricted to rounds where
    the arm was pulled; ``gram`` is the regularized 1/t-scaled solve matrix
    from the index estimate.  ``factor``, its ``(c, lower)`` Cholesky pair
    (``IndexEstimate.factor``), saves factoring ``gram`` again; the solve
    has the same bits either way.  Residuals are taken against the current
    ``beta_hat``.
    """
    if t < 1:
        raise DomainError("t must be >= 1")
    features = np.atleast_2d(np.asarray(features, dtype=float))
    rewards = np.asarray(rewards, dtype=float)
    weights = np.asarray(weights, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if features.shape[0] == 0:
        return np.zeros((0, beta_hat.size))
    resid = rewards - features @ beta_hat
    rhs = (weights * resid)[:, None] * features
    return float(t) ** (alpha - 1.0) * solve_spd(gram, rhs.T, factor).T


def v_beta(influence: np.ndarray) -> np.ndarray:
    """Feasible covariance ``sum_s psi_s psi_s^T`` (symmetric PSD)."""
    if influence.shape[0] == 0:
        raise DegeneracyError("empty influence set: arm never pulled")
    v = influence.T @ influence
    return 0.5 * (v + v.T)


def directional_covariance(beta_hat, v_beta_mat, t: int, alpha: float) -> np.ndarray:
    """Delta-method covariance of the unit direction: ``J V J^T / t^(2 alpha)``."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    norm = float(np.linalg.norm(beta_hat))
    if norm == 0.0:
        raise DegeneracyError("zero index estimate has no direction")
    b = beta_hat / norm
    jac = (np.eye(beta_hat.size) - np.outer(b, b)) / norm
    v = jac @ np.asarray(v_beta_mat, dtype=float) @ jac.T / float(t) ** (2.0 * alpha)
    return 0.5 * (v + v.T)


def directional_report(beta_hat, v_beta_mat, t: int, alpha: float,
                       delta: float) -> DirectionalReport:
    """Ellipsoid radius and per-coordinate intervals at level ``1 - delta``.

    Marginal intervals project the joint ellipsoid onto each coordinate
    (Scheffe-style, conservative per coordinate):
    ``direction[j] +/- sqrt(v_dir[j,j] * chi2_{d-1,1-delta})``.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must be in (0,1)")
    beta_hat = np.asarray(beta_hat, dtype=float)
    d = beta_hat.size
    v_dir = directional_covariance(beta_hat, v_beta_mat, t, alpha)
    radius2 = chi2_quantile(1.0 - delta, max(d - 1, 1))
    half = np.sqrt(np.clip(np.diag(v_dir), 0.0, None) * radius2)
    direction = beta_hat / np.linalg.norm(beta_hat)
    return DirectionalReport(direction, v_dir, radius2, half, 1.0 - delta)


def sign_align(candidate, reference):
    """Flip ``candidate`` into the hemisphere of ``reference``."""
    candidate = np.asarray(candidate, dtype=float)
    if float(np.dot(candidate, reference)) < 0.0:
        return -candidate
    return candidate


def ellipsoid_covers(report: DirectionalReport, candidate) -> bool:
    """Joint membership test for a candidate unit direction, sign-aligned first.

    Uses the pseudo-inverse of the directional covariance restricted to the
    tangent space (eigenvalue cutoff relative to the largest eigenvalue).
    A numerically zero covariance degenerates to the point ellipsoid.
    """
    diff = sign_align(candidate, report.direction) - report.direction
    evals, evecs = np.linalg.eigh(report.v_dir)
    lam_max = float(evals[-1])
    if lam_max <= _ZERO_FLOOR:
        tangent = diff - report.direction * float(diff @ report.direction)
        return bool(np.linalg.norm(tangent) <= _POINT_TOL)
    keep = evals > _PINV_RCUT * lam_max
    coords = evecs.T @ diff
    dist2 = float(np.sum(coords[keep] ** 2 / evals[keep]))
    return bool(dist2 <= report.ellipsoid_radius2)


def marginal_rows(rep: int, arm: int, t: int, report: DirectionalReport,
                  truth=None) -> list[dict]:
    """One CSV row per coordinate: rep, arm, t, coord, center, lo, hi, covered."""
    rows = []
    aligned = None if truth is None else sign_align(np.asarray(truth, float),
                                                    report.direction)
    for j in range(report.direction.size):
        center = float(report.direction[j])
        half = float(report.marginal_half_widths[j])
        covered = ""
        if aligned is not None:
            covered = int(center - half <= float(aligned[j]) <= center + half)
        rows.append({"rep": rep, "arm": arm, "t": t, "coord": j,
                     "center": center, "lo": center - half, "hi": center + half,
                     "covered": covered})
    return rows
