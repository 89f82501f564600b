"""Inverse-propensity-weighted moment estimator of the per-arm index.

Each arm accumulates the weighted Gram matrix ``sum_s w_s W_s W_s^T`` and
moment vector ``sum_s w_s W_s Y_s`` over the rounds where it was pulled,
with ``w_s = 1/max(propensity, p_min)``.  Solving the ridge-regularized
normal equations recovers the index up to scale; only the normalized
direction is reported downstream (scale is not identifiable under an
unknown link).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import solve_spd

DEFAULT_P_MIN = 1e-3
DEFAULT_LAMBDA_BETA = 2e-3


@dataclass
class IndexEstimate:
    """Solution of the regularized normal equations for one arm."""

    beta_hat: np.ndarray
    direction: np.ndarray
    gram: np.ndarray         # (sum_gram/t + lambda_beta*I), the solve matrix
    moment_gram: np.ndarray  # sum_gram/t, the unregularized weighted Gram
    lambda_beta: float
    t: int
    degenerate: bool = False


class IndexAccumulator:
    """Running sums for one arm's index estimate.

    Stores raw sums rather than averages so each update is O(d^2) with no
    renormalization drift; a single accumulator is owned by one trajectory
    and mutated sequentially.
    """

    def __init__(self, arm: int, dim: int):
        self.arm = arm
        self.dim = dim
        self.sum_gram = np.zeros((dim, dim))
        self.sum_moment = np.zeros(dim)
        self.t = 0
        self.pulls = 0

    def observe(self, w, y: float, propensity: float, pulled: bool,
                p_min: float = DEFAULT_P_MIN) -> None:
        """Fold in one round; non-pulled rounds only advance the clock."""
        if not (0.0 < propensity <= 1.0):
            raise DomainError(f"propensity must be in (0,1], got {propensity}")
        if not (0.0 < p_min <= 1.0):
            raise DomainError(f"p_min must be in (0,1], got {p_min}")
        self.t += 1
        if not pulled:
            return
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,) or not np.isfinite(w).all() or not math.isfinite(y):
            raise DomainError("nonfinite or mis-shaped observation rejected")
        weight = 1.0 / max(propensity, p_min)
        self.sum_gram += weight * (w[:, None] * w)   # weight * np.outer(w, w)
        self.sum_moment += (weight * y) * w
        self.pulls += 1

    def estimate_beta(self, lambda_beta: float = DEFAULT_LAMBDA_BETA) -> IndexEstimate:
        return _solve_normal_equations(self.sum_gram, self.sum_moment, self.t,
                                       lambda_beta)


def _solve_normal_equations(sum_gram, sum_moment, t: int,
                            lambda_beta: float) -> IndexEstimate:
    """Solve ``(sum_gram/t + lambda_beta I) beta = sum_moment/t``."""
    if t < 1:
        raise DomainError("estimate_beta requires at least one round")
    if lambda_beta < 0:
        raise DomainError("lambda_beta must be nonnegative")
    moment_gram = sum_gram / t
    gram = moment_gram + 0.0   # like + lambda_beta * I, turns an off-diagonal -0.0 to 0.0
    gram.flat[::sum_moment.size + 1] += lambda_beta
    beta = solve_spd(gram, sum_moment / t)
    norm = math.sqrt(beta.dot(beta))   # as np.linalg.norm computes it
    if norm == 0.0:
        return IndexEstimate(beta, np.zeros(beta.size), gram, moment_gram,
                             lambda_beta, t, degenerate=True)
    return IndexEstimate(beta, beta / norm, gram, moment_gram, lambda_beta, t)


def accumulate_arrays(features: np.ndarray, rewards: np.ndarray,
                      pulled: np.ndarray, propensities: np.ndarray,
                      p_min: float = DEFAULT_P_MIN):
    """Vectorized equivalent of replaying :meth:`IndexAccumulator.observe`.

    Returns ``(sum_gram, sum_moment, t, pulls)`` over the full history;
    used by the replay/inference path where the whole log is available.
    """
    features = np.asarray(features, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    pulled = np.asarray(pulled, dtype=bool)
    propensities = np.asarray(propensities, dtype=float)
    t = features.shape[0]
    sel = pulled
    if np.any(propensities[sel] <= 0) or np.any(propensities[sel] > 1):
        raise DomainError("propensities must be in (0,1]")
    w = 1.0 / np.maximum(propensities[sel], p_min)
    feats = features[sel]
    sum_gram = (feats * w[:, None]).T @ feats
    sum_moment = (w * rewards[sel]) @ feats
    return sum_gram, sum_moment, t, int(sel.sum())


def estimate_from_arrays(features, rewards, pulled, propensities,
                         lambda_beta: float = DEFAULT_LAMBDA_BETA,
                         p_min: float = DEFAULT_P_MIN) -> IndexEstimate:
    """One-shot index estimate from a full history (replay path)."""
    sum_gram, sum_moment, t, _ = accumulate_arrays(
        features, rewards, pulled, propensities, p_min)
    return _solve_normal_equations(sum_gram, sum_moment, t, lambda_beta)
