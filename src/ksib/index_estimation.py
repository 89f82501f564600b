"""Inverse-propensity-weighted moment estimator of the per-arm index.

Each arm accumulates the weighted Gram matrix ``sum_s w_s W_s W_s^T`` and
moment vector ``sum_s w_s W_s Y_s`` over the rounds where it was pulled,
with ``w_s = 1/max(propensity, p_min)`` (:func:`ipw_weights`), and divides
both by the caller's count ``t`` of rounds, pulled or not.  Solving the
ridge-regularized normal equations recovers the index up to scale; only the
normalized direction is reported downstream (scale is not identifiable under
an unknown link).
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
    """Running sums for one arm's index estimate over its pulled rounds.

    Stores raw sums rather than averages so each update is O(d^2) with no
    renormalization drift; a single accumulator is owned by one trajectory
    and mutated sequentially.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.sum_gram = np.zeros((dim, dim))
        self.sum_moment = np.zeros(dim)

    def observe(self, w, y: float, propensity: float,
                p_min: float = DEFAULT_P_MIN) -> float:
        """Fold in one pulled round; returns the IPW weight it applied."""
        if not (0.0 < propensity <= 1.0):
            raise DomainError(f"propensity must be in (0,1], got {propensity}")
        if not (0.0 < p_min <= 1.0):
            raise DomainError(f"p_min must be in (0,1], got {p_min}")
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,) or not np.isfinite(w).all() or not math.isfinite(y):
            raise DomainError("nonfinite or mis-shaped observation rejected")
        weight = 1.0 / max(propensity, p_min)
        self.sum_gram += weight * (w[:, None] * w)   # weight * np.outer(w, w)
        self.sum_moment += (weight * y) * w
        return weight

    def estimate_beta(self, t: int,
                      lambda_beta: float = DEFAULT_LAMBDA_BETA) -> IndexEstimate:
        return _solve_normal_equations(self.sum_gram, self.sum_moment, t,
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
    if not 0.0 < norm < math.inf:   # zero, or |beta| past ~1.3e154 overflows
        return IndexEstimate(beta, np.zeros(beta.size), gram, moment_gram,
                             lambda_beta, t, degenerate=True)
    return IndexEstimate(beta, beta / norm, gram, moment_gram, lambda_beta, t)


def ipw_weights(propensities, p_min: float = DEFAULT_P_MIN) -> np.ndarray:
    """Weights ``1/max(p, p_min)`` of propensities ``p``, each in (0, 1]."""
    propensities = np.asarray(propensities, dtype=float)
    if (propensities <= 0).any() or (propensities > 1).any():
        raise DomainError("propensities must be in (0,1]")
    return 1.0 / np.maximum(propensities, p_min)


def estimate_from_arrays(features, rewards, pulled, propensities,
                         lambda_beta: float = DEFAULT_LAMBDA_BETA,
                         p_min: float = DEFAULT_P_MIN) -> IndexEstimate:
    """One-shot index estimate from a full history of ``t`` rounds (replay
    path): :class:`IndexAccumulator`'s sums over the pulled rounds at once."""
    pulled = np.asarray(pulled, dtype=bool)
    w = ipw_weights(np.asarray(propensities, dtype=float)[pulled], p_min)
    return estimate_pulled(np.asarray(features, dtype=float)[pulled],
                           np.asarray(rewards, dtype=float)[pulled], w, pulled.size,
                           lambda_beta)


def estimate_pulled(feats, rewards, weights, t: int, lambda_beta: float) -> IndexEstimate:
    """:func:`estimate_from_arrays` from the pulled rounds and their weights."""
    sum_gram = (feats * weights[:, None]).T @ feats
    sum_moment = (weights * rewards) @ feats
    return _solve_normal_equations(sum_gram, sum_moment, t, lambda_beta)
