"""Epsilon-greedy decision loop with exact propensity bookkeeping.

The estimated-best (greedy) arm is pulled with probability 1 - eps_t and the
other arm with eps_t (both environments have two arms); a warm-start round
t <= T0 is this rule at eps_t = 1/2 with the round-robin arm as greedy, the
uniform forced design.  Only the pulled arm's estimators change in a
round; every arm's index is normalized by the policy's round clock ``t``.
Every round's record carries enough to rebuild each arm's propensity at
every round: the greedy arm, the realized arm, its propensity and eps_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .index_estimation import IndexAccumulator, IndexEstimate
from .kernel_ridge import (GaussianKernel, KrrModel, fit, median_bandwidth,
                           ridge_schedule)
from .score_features import EmpiricalWhiteningScore


# the pulled arm's link model is refit after every one of its first
# REFIT_EVERY_ROUND_BELOW pulls and then after every REFIT_INTERVAL-th pull
REFIT_EVERY_ROUND_BELOW = 200
REFIT_INTERVAL = 10


def propensity(arm, greedy, eps):
    """Assignment probability of ``arm`` in a round with greedy arm ``greedy``
    and rate ``eps`` (module docstring); elementwise over arrays of rounds."""
    # 0/1 indicator weights pick exactly (the other term is 0.0) and, unlike
    # np.where, cost only float arithmetic on one round's scalars
    is_greedy = arm == greedy
    return is_greedy * (1.0 - eps) + (1 - is_greedy) * eps


@dataclass
class RoundRecord:
    t: int
    greedy_arm: int
    arm: int
    propensity: float
    reward: float
    epsilon: float


@dataclass
class ArmState:
    """Per-arm accumulators plus decision-time regression snapshots.

    The arm's support is rows ``[:n]`` of ``xs`` (contexts), ``ys``
    (rewards) and ``ws`` (the IPW weights ``acc.observe`` applied, stored
    as each row arrives); the buffers hold one row per round, T in all.
    """

    acc: IndexAccumulator
    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray
    n: int = 0
    estimate: IndexEstimate | None = None
    model: KrrModel | None = None
    bandwidth: float | None = None
    bandwidth_n: int = 0

    @classmethod
    def empty(cls, dim: int, rounds: int) -> "ArmState":
        return cls(IndexAccumulator(dim), np.empty((rounds, dim)),
                   np.empty(rounds), np.empty(rounds))

    def append(self, x, y: float, w: float) -> None:
        n = self.n
        self.xs[n] = x
        self.ys[n] = y
        self.ws[n] = w
        self.n = n + 1


class EpsilonGreedyPolicy:
    """Single-trajectory decision loop; one instance per run, not shared.

    It reads the run's :class:`ksib.harness.Scenario`, valid since it was
    built, as given: its ``d``, ``n_arms``, ``T0``, ``p_min``,
    ``lambda_beta`` and ``score`` (a "known" context is its own score, an
    "empirical" one is whitened as it streams in), its ``epsilon`` rule and
    its ``zeta``, the decay of the link fit's ridge ``ridge_schedule(t,
    zeta)``.
    """

    def __init__(self, scenario, rng):
        self.config = scenario
        self.whitening = (EmpiricalWhiteningScore(scenario.d)
                          if scenario.score == "empirical" else None)
        self.rng = rng
        self.t = 0
        self.arms = [ArmState.empty(scenario.d, scenario.T)
                     for _ in range(scenario.n_arms)]

    # -- decision helpers ---------------------------------------------------

    def _prediction(self, state: ArmState, x) -> float:
        if state.model is None or state.estimate is None or state.estimate.degenerate:
            return 0.0
        u = float(np.dot(x, state.estimate.direction))
        return state.model.predict(u)

    def greedy_arm(self, x) -> int:
        if self.t < self.config.T0:
            raise StateError("greedy_arm is undefined during the warm start")
        preds = [self._prediction(s, x) for s in self.arms]
        return preds.index(max(preds))  # the lowest index on ties

    def select(self, x):
        """Sample the arm for the next round; returns (arm, propensity, greedy, eps)."""
        t_next = self.t + 1
        if t_next <= self.config.T0:   # round-robin: the rule at eps = 1/2
            arm = best = (t_next - 1) % 2
            eps = 0.5
        else:
            eps = self.config.epsilon(t_next)
            best = arm = self.greedy_arm(x)
            if self.rng.uniform() >= 1.0 - eps:   # explore: the other arm
                arm = 1 - best
        return arm, propensity(arm, best, eps), best, eps

    # -- estimator updates --------------------------------------------------

    def _refit_krr(self, state: ArmState) -> None:
        n = state.n
        if n < 2 or state.estimate is None or state.estimate.degenerate:
            return
        u = state.xs[:n] @ state.estimate.direction
        if state.bandwidth is None or n >= 2 * state.bandwidth_n:
            state.bandwidth = median_bandwidth(u)
            state.bandwidth_n = n
        # the last fit's pivots are a good start for a support a few rows
        # larger; the certificate does not depend on them
        hint = () if state.model is None else state.model.pivots
        state.model = fit(u, state.ys[:n], state.ws[:n],
                          ridge_schedule(self.t, self.config.zeta),
                          GaussianKernel(state.bandwidth), pivots=hint)

    def step(self, x, reward_fn) -> RoundRecord:
        """Advance one round: select, observe the pulled arm's reward, update."""
        if self.t >= self.config.T:   # refused before the RNG or any state moves
            raise StateError(f"round {self.t + 1} is past the run's T={self.config.T}")
        x = np.asarray(x, dtype=float)
        arm, prop, greedy, eps = self.select(x)
        y = float(reward_fn(arm))
        w_feat, whitening = x, self.whitening
        if whitening is not None:
            whitening.update(x)
            # whitening is undefined before its second update; the one cold
            # round's feature is x - mean, the zero vector (inference
            # re-scores each round later by the whole history's moments)
            w_feat = (x - whitening.mean if whitening.count < 2
                      else whitening.score(x))
        self.t += 1
        pulled = self.arms[arm]
        weight = pulled.acc.observe(w_feat, y, prop, self.config.p_min)
        pulled.append(x, y, weight)
        pulled.estimate = pulled.acc.estimate_beta(self.t, self.config.lambda_beta)
        n = pulled.n
        if n <= REFIT_EVERY_ROUND_BELOW or n % REFIT_INTERVAL == 0:
            self._refit_krr(pulled)
        return RoundRecord(self.t, greedy, arm, prop, y, eps)

    def force_refit(self) -> None:
        """Refresh every arm's snapshots (used at inference times)."""
        for state in self.arms:
            if state.n:
                state.estimate = state.acc.estimate_beta(self.t, self.config.lambda_beta)
                state.bandwidth = None
                self._refit_krr(state)
