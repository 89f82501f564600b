"""Epsilon-greedy decision loop with exact propensity bookkeeping.

Round t <= warm_start pulls arms round-robin (recorded propensity 1/L, the
uniform-equivalent forced design); afterwards the estimated-best arm is
pulled with probability 1 - eps_t and each other arm with eps_t/(L-1).
Only the pulled arm's estimators change in a round.  Every round's record
carries enough to rebuild each arm's propensity at every round: the greedy
arm, the realized arm, its exact propensity, and eps_t.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# the pulled arm's link model is refit after every one of its first
# REFIT_EVERY_ROUND_BELOW pulls and then after every REFIT_INTERVAL-th pull
REFIT_EVERY_ROUND_BELOW = 200
REFIT_INTERVAL = 10


def propensity(arm, greedy, eps, t, warm_start: int, n_arms: int):
    """Assignment probability of ``arm`` in round ``t`` (the rule in the
    module docstring); elementwise, for one round or arrays of rounds."""
    # 0/1 indicator weights pick exactly (the other term is 0.0) and, unlike
    # np.where, cost only float arithmetic on one round's scalars
    is_greedy, warm = arm == greedy, t <= warm_start
    p = is_greedy * (1.0 - eps) + (1 - is_greedy) * (eps / (n_arms - 1))
    return warm * (1.0 / n_arms) + (1 - warm) * p


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

    def link_ridge(self, t: int, n_pulls: int) -> tuple[float, str]:
        """``(lam, lam_scale)`` for a link fit at round ``t`` on an arm's
        ``n_pulls`` pulls, as :func:`kernel_ridge.fit` takes them."""
        t_sched = t if self.ridge_time == "rounds" else n_pulls
        scale = "none" if self.krr_ridge_mode == "plain" else "support"
        return ridge_schedule(max(t_sched, 1), self.zeta), scale


@dataclass
class RoundRecord:
    t: int
    greedy_arm: int
    arm: int
    propensity: float
    reward: float
    epsilon: float


# rows an arm's support buffers hold before their first doubling
SUPPORT_CAPACITY = 64


@dataclass
class ArmState:
    """Per-arm accumulators plus decision-time regression snapshots.

    The arm's support is rows ``[:n]`` of ``xs`` (contexts), ``ys``
    (rewards) and ``ws`` (IPW weights ``1/max(p, p_min)``, stored as each
    row arrives); the buffers double when full.
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
    def empty(cls, arm: int, dim: int) -> "ArmState":
        return cls(IndexAccumulator(arm, dim), np.empty((SUPPORT_CAPACITY, dim)),
                   np.empty(SUPPORT_CAPACITY), np.empty(SUPPORT_CAPACITY))

    def append(self, x, y: float, w: float) -> None:
        n = self.n
        if n == self.ys.size:
            self.xs, self.ys, self.ws = (_grown(a, 2 * n)
                                         for a in (self.xs, self.ys, self.ws))
        self.xs[n] = x
        self.ys[n] = y
        self.ws[n] = w
        self.n = n + 1


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:])
    out[:a.shape[0]] = a
    return out


class EpsilonGreedyPolicy:
    """Single-trajectory decision loop; one instance per run, not shared."""

    def __init__(self, config: PolicyConfig, score_model, rng):
        self.config = config
        self.score = score_model
        self.rng = rng
        self.t = 0
        self.arms = [ArmState.empty(i, config.dim) for i in range(config.n_arms)]

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
        n_arms, warm_start = self.config.n_arms, self.config.warm_start
        if t_next <= warm_start:
            arm = best = (t_next - 1) % n_arms
            eps = 1.0 / n_arms
        else:
            eps = self.config.schedule.value(t_next)
            best = arm = self.greedy_arm(x)
            u = self.rng.uniform()
            if u >= 1.0 - eps:
                others = [i for i in range(n_arms) if i != best]
                slot = min(int((u - (1.0 - eps)) / (eps / len(others))),
                           len(others) - 1)
                arm = others[slot]
        return arm, propensity(arm, best, eps, t_next, warm_start, n_arms), best, eps

    # -- estimator updates --------------------------------------------------

    def _refit_krr(self, state: ArmState) -> None:
        n = state.n
        if n < 2 or state.estimate is None or state.estimate.degenerate:
            return
        u = state.xs[:n] @ state.estimate.direction
        if state.bandwidth is None or n >= 2 * state.bandwidth_n:
            state.bandwidth = median_bandwidth(u)
            state.bandwidth_n = n
        lam, scale = self.config.link_ridge(self.t, n)
        # the last fit's pivots are a good start for a support a few rows
        # larger; the certificate does not depend on them
        hint = () if state.model is None else state.model.pivots
        state.model = fit(u, state.ys[:n], state.ws[:n], lam,
                          GaussianKernel(state.bandwidth), lam_scale=scale,
                          pivots=hint)

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
        pulled.append(x, y, 1.0 / max(prop, self.config.p_min))
        pulled.estimate = pulled.acc.estimate_beta(self.config.lambda_beta)
        n = pulled.n
        if n <= REFIT_EVERY_ROUND_BELOW or n % REFIT_INTERVAL == 0:
            self._refit_krr(pulled)
        return RoundRecord(self.t, greedy, arm, prop, y, eps)

    def force_refit(self) -> None:
        """Refresh every arm's snapshots (used at inference times)."""
        for state in self.arms:
            if state.acc.pulls:
                state.estimate = state.acc.estimate_beta(self.config.lambda_beta)
                state.bandwidth = None
                self._refit_krr(state)
