"""Epsilon-greedy decision loop with exact propensity bookkeeping.

Round t <= warm_start pulls arms round-robin (recorded propensity 1/L, the
uniform-equivalent forced design); afterwards the estimated-best arm is
pulled with probability 1 - eps_t and each other arm with eps_t/(L-1).
Only the pulled arm's estimators change in a round.  Every round's record
carries enough to rebuild each arm's propensity at every round: the greedy
arm, the realized arm, its exact propensity, and eps_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StateError
from .index_estimation import (DEFAULT_LAMBDA_BETA, DEFAULT_P_MIN,
                               IndexAccumulator, IndexEstimate)
from .kernel_ridge import (DEFAULT_ZETA, GaussianKernel, KrrModel, fit,
                           median_bandwidth, ridge_schedule)


@dataclass(frozen=True)
class EpsilonSchedule:
    floor: float = 0.005
    cap: float = 0.35
    coeff: float = 0.15
    exponent: float = 0.4

    def __post_init__(self):
        if not (0.0 < self.floor <= self.cap < 1.0):
            raise ValueError("need 0 < floor <= cap < 1")

    def value(self, t: int) -> float:
        return max(self.floor, min(self.cap, self.coeff * float(t) ** (-self.exponent)))


@dataclass(frozen=True)
class PolicyConfig:
    n_arms: int = 2
    dim: int = 2
    warm_start: int = 50
    schedule: EpsilonSchedule = EpsilonSchedule()
    p_min: float = DEFAULT_P_MIN
    lambda_beta: float = DEFAULT_LAMBDA_BETA
    zeta: float = DEFAULT_ZETA
    # "plain": dual system ridge is the schedule value itself;
    # "support-scaled": schedule value multiplied by the support size.
    krr_ridge_mode: str = "plain"
    # schedule driven by total rounds or by the arm's pull count
    ridge_time: str = "rounds"
    refit_every_round_below: int = 200
    refit_interval: int = 10


@dataclass
class RoundRecord:
    t: int
    context: np.ndarray
    greedy_arm: int
    arm: int
    propensity: float
    reward: float
    epsilon: float


@dataclass
class ArmState:
    """Per-arm accumulators plus decision-time regression snapshots."""

    acc: IndexAccumulator
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    props: list = field(default_factory=list)
    estimate: IndexEstimate | None = None
    model: KrrModel | None = None
    bandwidth: float | None = None
    bandwidth_n: int = 0


class EpsilonGreedyPolicy:
    """Single-trajectory decision loop; one instance per run, not shared."""

    def __init__(self, config: PolicyConfig, score_model, rng):
        self.config = config
        self.score = score_model
        self.rng = rng
        self.t = 0
        self.arms = [ArmState(IndexAccumulator(i, config.dim))
                     for i in range(config.n_arms)]

    # -- decision helpers ---------------------------------------------------

    def _prediction(self, state: ArmState, x) -> float:
        if state.model is None or state.estimate is None or state.estimate.degenerate:
            return 0.0
        u = float(np.dot(x, state.estimate.direction))
        return float(state.model.predict(u))

    def greedy_arm(self, x) -> int:
        if self.t < self.config.warm_start:
            raise StateError("greedy_arm is undefined during the warm start")
        preds = [self._prediction(s, x) for s in self.arms]
        return int(np.argmax(preds))  # argmax keeps the lowest index on ties

    def select(self, x):
        """Sample the arm for the next round; returns (arm, propensity, greedy, eps)."""
        t_next = self.t + 1
        if t_next <= self.config.warm_start:
            arm = (t_next - 1) % self.config.n_arms
            return arm, 1.0 / self.config.n_arms, arm, 1.0 / self.config.n_arms
        eps = self.config.schedule.value(t_next)
        best = self.greedy_arm(x)
        u = self.rng.uniform()
        if u < 1.0 - eps:
            return best, 1.0 - eps, best, eps
        others = [i for i in range(self.config.n_arms) if i != best]
        slot = min(int((u - (1.0 - eps)) / (eps / len(others))), len(others) - 1)
        return others[slot], eps / len(others), best, eps

    def propensity_of(self, arm: int, greedy: int, eps: float, t: int) -> float:
        """Assignment probability of ``arm`` given the round's greedy arm."""
        if t <= self.config.warm_start:
            return 1.0 / self.config.n_arms
        if arm == greedy:
            return 1.0 - eps
        return eps / (self.config.n_arms - 1)

    # -- estimator updates --------------------------------------------------

    def _refit_index(self, state: ArmState) -> None:
        state.estimate = state.acc.estimate_beta(self.config.lambda_beta)

    def _refit_krr(self, state: ArmState) -> None:
        n = len(state.xs)
        if n < 2 or state.estimate is None or state.estimate.degenerate:
            return
        xs = np.asarray(state.xs)
        u = xs @ state.estimate.direction
        if state.bandwidth is None or n >= 2 * state.bandwidth_n:
            state.bandwidth = median_bandwidth(u)
            state.bandwidth_n = n
        t_sched = self.t if self.config.ridge_time == "rounds" else n
        lam = ridge_schedule(max(t_sched, 1), self.config.zeta)
        w = 1.0 / np.maximum(np.asarray(state.props), self.config.p_min)
        scale = "none" if self.config.krr_ridge_mode == "plain" else "support"
        # release the stale model's n x n factor before the new fit allocates
        state.model = None
        state.model = fit(u, np.asarray(state.ys), w, lam,
                          GaussianKernel(state.bandwidth), lam_scale=scale)

    def step(self, x, reward_fn) -> RoundRecord:
        """Advance one round: select, observe the pulled arm's reward, update."""
        x = np.asarray(x, dtype=float)
        arm, prop, greedy, eps = self.select(x)
        y = float(reward_fn(arm))
        if hasattr(self.score, "update"):
            self.score.update(x)
        if getattr(self.score, "count", 2) < 2:
            # empirical whitening is undefined before its second update;
            # the centered raw context stands in for the one cold round
            # (inference re-scores the whole history later anyway)
            w_feat = x - self.score.mean
        else:
            w_feat = self.score.score(x)
        self.t += 1
        for i, state in enumerate(self.arms):
            state.acc.observe(w_feat, y, prop, pulled=(i == arm),
                              p_min=self.config.p_min)
        pulled = self.arms[arm]
        pulled.xs.append(x)
        pulled.ys.append(y)
        pulled.props.append(prop)
        self._refit_index(pulled)
        n = len(pulled.xs)
        if n <= self.config.refit_every_round_below or n % self.config.refit_interval == 0:
            self._refit_krr(pulled)
        return RoundRecord(self.t, x, greedy, arm, prop, y, eps)

    def force_refit(self) -> None:
        """Refresh every arm's snapshots (used at inference times)."""
        for state in self.arms:
            if state.acc.pulls:
                self._refit_index(state)
                state.bandwidth = None
                self._refit_krr(state)
