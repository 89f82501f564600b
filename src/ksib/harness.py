"""Monte-Carlo replication engine and export layer.

A scenario runs N seeded trajectories of the epsilon-greedy policy on the
synthetic single-index environment, fires parametric and nonparametric
inference at a fixed grid of times, and aggregates coverage rates, interval
lengths, and regret paths into byte-stable CSV/JSON exports.  A ``Scenario``
is checked when it is built, so every entry point gets a valid one; a study
also needs every grid time inside T, which ``run_scenario`` checks.

Inference is a pure function of the audit log and its ``Scenario``: at
each inference time the whole per-arm state (whitening, index estimate,
kernel regression, both covariance estimators) is rebuilt from rounds
1..t, so ``ksib infer`` reproduces every reported number exactly.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import index_inference, np_inference
from .environment import RegretLedger, SyntheticEnv, sample_canonical_betas
from .errors import ConfigError, DegeneracyError, DomainError, KsibError
from .index_estimation import (DEFAULT_LAMBDA_BETA, DEFAULT_P_MIN,
                               estimate_pulled, ipw_weights)
from .kernel_ridge import (DEFAULT_ZETA, GaussianKernel, fit, median_bandwidth,
                           ridge_schedule, support_hint)
from .numerics import Rng, min_eigenvalue, normal_quantile
from .policy import EpsilonGreedyPolicy, propensity
from .score_features import EmpiricalWhiteningScore

SCHEMA_VERSION = 1
DEFAULT_INFERENCE_TIMES = (200, 314, 428, 542, 657, 771, 885, 999)

COVERAGE_COLUMNS = ["scenario", "d", "sigma", "arm", "t", "kind", "rate", "se", "n"]
LENGTH_COLUMNS = ["scenario", "arm", "t", "method", "mean_length", "se", "n"]
REGRET_COLUMNS = ["scenario", "t", "mean_avg_regret", "lo", "hi", "n"]
MARGINAL_COLUMNS = ["rep", "arm", "t", "coord", "center", "lo", "hi", "covered"]
POINTWISE_COLUMNS = ["rep", "arm", "t", "method", "u", "center", "lo", "hi",
                     "truth", "covered", "length"]
LOG_TAIL_COLUMNS = ["greedy_arm", "pulled_arm", "propensity", "reward", "epsilon"]

# value types accepted per Scenario field annotation
_FIELD_TYPES = {"int": (int, np.integer), "str": (str,), "tuple": (tuple, list),
                "float": (int, float, np.integer, np.floating)}
# Scenario fields with one allowed value (README, "Configuration highlights")
_SINGLE_VALUED = {"n_arms": 2, "alpha": 0.5, "gamma": np_inference.DEFAULT_GAMMA,
                  "as_kappa": 1.0, "krr_ridge_mode": "plain", "ridge_time": "rounds",
                  "np_residual_mode": "loo"}


def _is_a(value, annotation: str) -> bool:
    # bool subclasses int, but True is no dimension, count or rate
    return isinstance(value, _FIELD_TYPES[annotation]) and not isinstance(value, bool)


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration; every field has a working default,
    and construction refuses an invalid value with a ``ConfigError``."""

    d: int = 2
    sigma: float = 0.05
    T: int = 1000
    T0: int = 50
    reps: int = 100
    inference_times: tuple = DEFAULT_INFERENCE_TIMES
    alpha: float = 0.5            # cancels in the studentized ellipsoid
    gamma: float = np_inference.DEFAULT_GAMMA   # cancels in the CLT interval
    zeta: float = DEFAULT_ZETA
    lambda_beta: float = DEFAULT_LAMBDA_BETA
    level: float = 0.95
    seed: int = 0
    p_min: float = DEFAULT_P_MIN
    eps_floor: float = 0.005
    eps_cap: float = 0.35
    eps_coeff: float = 0.15
    eps_exponent: float = 0.4
    n_arms: int = 2               # both environments define two arms
    score: str = "known"          # "known" | "empirical"
    # the link fit's one configuration; the export schema lists these fields
    krr_ridge_mode: str = "plain"
    ridge_time: str = "rounds"
    as_theta: float = np_inference.DEFAULT_THETA
    as_kappa: float = 1.0         # the Gaussian kernel's sup k(u,u)^(1/2)
    as_c_const: float = 1.0
    np_residual_mode: str = "loo"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _is_a(value, f.type):
                raise ConfigError(f"{f.name} must be {f.type}, "
                                  f"got {type(value).__name__} {value!r}")
            if f.type == "float" and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if isinstance(value, np.generic):   # a numpy scalar: its Python number
                object.__setattr__(self, f.name, value.item())
        if not all(_is_a(t, "int") for t in self.inference_times):
            raise ConfigError("inference_times must hold integers")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if not 0 <= self.seed < 2**64:   # Rng keeps a seed's low 64 bits
            raise ConfigError(f"seed must be in 0..2**64 - 1, got {self.seed}")
        if not (0 < self.T0 < self.T):
            raise ConfigError("need 0 < T0 < T")
        times = tuple(int(t) for t in self.inference_times)
        object.__setattr__(self, "inference_times", times)
        # a time past T marks a refit that never fires; run_scenario refuses it
        if any(t <= self.T0 for t in times):
            raise ConfigError("inference_times must lie in (T0, T]")
        if any(b >= a for a, b in zip(times[1:], times)):
            raise ConfigError("inference_times must be strictly increasing")
        if not 0 < self.level < 1:
            raise ConfigError("level must be in (0,1)")
        for name, only in _SINGLE_VALUED.items():
            if getattr(self, name) != only:
                raise ConfigError(f"{name} must be {only!r}")
        if self.lambda_beta < 0:
            raise ConfigError("lambda_beta must be nonnegative")
        if not (0 < self.p_min <= 1):
            raise ConfigError("p_min must be in (0,1]")
        if not (0 < self.eps_floor <= self.eps_cap < 1):
            raise ConfigError("need 0 < eps_floor <= eps_cap < 1")
        if self.eps_coeff <= 0:
            raise ConfigError("eps_coeff must be positive: eps_t would be eps_floor")
        if self.eps_exponent < 0:
            raise ConfigError("eps_exponent must be nonnegative: eps_t would grow")
        if self.zeta < 0:
            raise ConfigError("zeta must be nonnegative: the ridge t^-zeta would grow")
        if self.score not in ("known", "empirical"):
            raise ConfigError("score must be 'known' or 'empirical'")
        if not (0 < self.as_theta < 0.5):
            raise ConfigError("as_theta must be in (0, 1/2)")
        if self.as_c_const <= 0:
            raise ConfigError("as_c_const must be positive")

    @property
    def scenario_id(self) -> str:
        return f"d{self.d}_sigma{self.sigma:g}"

    def epsilon(self, t: int) -> float:
        """Exploration rate of round ``t`` after the warm start."""
        if t < 1:
            raise DomainError(f"epsilon requires t >= 1, got {t}")
        return max(self.eps_floor, min(
            self.eps_cap, self.eps_coeff * float(t) ** (-self.eps_exponent)))

    def scenario_betas(self) -> np.ndarray:
        """Index vectors shared by every replication of this scenario."""
        tag = 1_000_003 * self.d + int(round(self.sigma * 1e6))
        return sample_canonical_betas(self.d, self.n_arms,
                                      Rng(self.seed).split(0xBE7A0000 + tag))


@dataclass
class TrajectoryLog:
    """Append-only audit record of one trajectory; ``propensity`` is an
    audit copy that inference never reads (see :meth:`check_against`)."""

    contexts: np.ndarray   # (T, d)
    greedy: np.ndarray     # (T,)
    arm: np.ndarray        # (T,)
    propensity: np.ndarray
    reward: np.ndarray
    epsilon: np.ndarray

    @classmethod
    def empty(cls, rounds: int, dim: int) -> "TrajectoryLog":
        """A log of ``rounds`` unfilled rounds."""
        return cls(np.empty((rounds, dim)), np.empty(rounds, dtype=int),
                   np.empty(rounds, dtype=int), np.empty(rounds),
                   np.empty(rounds), np.empty(rounds))

    @property
    def rounds(self) -> int:
        return self.arm.size

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]

    def arm_propensities(self, arm: int, t: int) -> np.ndarray:
        """``arm``'s propensity in rounds 1..t from the greedy and epsilon cells,
        warm-start ones (eps = 1/2) too, as :meth:`check_against` checks them."""
        return propensity(arm, self.greedy[:t], self.epsilon[:t])

    def check_against(self, scenario: Scenario) -> None:
        """Refuse the first cell that ``scenario``'s allocation rule
        contradicts: a round past ``T`` or a log that ends before it, a
        warm-start (t <= T0) arm other than round-robin's ``(t - 1) % L``,
        an ``epsilon`` other than ``1/L`` (t <= T0) or ``scenario.epsilon(t)``,
        a ``propensity`` other than the rule's.  Exact: the policy wrote
        them with these functions, and a written float reads back as is."""
        n, T, T0, L = self.rounds, scenario.T, scenario.T0, scenario.n_arms
        t = np.arange(1, n + 1)
        warm, turn = t <= T0, (t - 1) % L
        eps = np.array([1.0 / L if s <= T0 else scenario.epsilon(s)
                        for s in range(1, n + 1)])
        rule = propensity(self.arm, self.greedy, eps)
        # a line's checked cells in column order
        bad = np.column_stack([t > T, warm & (self.greedy != turn),
                               warm & (self.arm != turn), self.propensity != rule,
                               self.epsilon != eps])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            column, want, got = [
                ("t", f"end of log at T={T}", t[i]),
                ("greedy_arm", turn[i], self.greedy[i]),
                ("pulled_arm", turn[i], self.arm[i]),
                ("propensity", rule[i], self.propensity[i]),
                ("epsilon", eps[i], self.epsilon[i])][j]
            raise DomainError(f"audit log line {i + 2}, column {column}: "
                              f"expected {want}, got {str(got.item())!r}")
        if n < T:
            raise DomainError(f"audit log line {n + 2}, column t: expected "
                              f"{n + 1}, got end of log before T={T}")

    def to_rows(self) -> list[tuple]:
        """One tuple of Python numbers per round, in :meth:`header` order."""
        return list(zip(range(1, self.rounds + 1), *self.contexts.T.tolist(),
                        *(c.tolist() for c in (self.greedy, self.arm, self.propensity,
                                               self.reward, self.epsilon))))

    @staticmethod
    def header(dim: int) -> list[str]:
        return ["t"] + [f"x{j}" for j in range(dim)] + LOG_TAIL_COLUMNS

    @classmethod
    def from_rows(cls, header: list[str], rows: list[list[str]]) -> "TrajectoryLog":
        dim = len(header) - 6
        missing = [c for c in ["t"] + LOG_TAIL_COLUMNS if c not in header]
        if missing:
            raise DomainError(f"audit log schema mismatch; missing columns {missing}")
        expected = cls.header(dim)   # contexts are read by position, so names must match
        if header != expected:
            j = next(j for j, (a, b) in enumerate(zip(header, expected)) if a != b)
            raise DomainError(f"audit log schema mismatch; column {j + 1} is "
                              f"{header[j]!r}, expected {expected[j]!r}")
        if not rows:
            raise DomainError("empty audit log")
        kinds = [int] + [float] * dim + [int, int, float, float, float]
        try:
            # one pass per column; numpy converts each cell by its float() or int()
            cols = [np.array(c, dtype=k) for k, c in zip(kinds, zip(*rows))]
        except (ValueError, OverflowError):
            cols = None
        if cols is None or any(len(row) != len(header) for row in rows):
            for i, row in enumerate(rows):   # name the first bad row; line 1 is the header
                if len(row) != len(header):
                    raise DomainError(f"audit log line {i + 2}: {len(row)} cells, "
                                      f"expected {len(header)}")
                try:
                    for kind, cell in zip(kinds, row):
                        np.array(cell, dtype=kind)
                except (ValueError, OverflowError) as exc:
                    raise DomainError(f"audit log line {i + 2}: {exc}") from exc
        log = cls(np.array(cols[1:dim + 1]).reshape(dim, len(rows)).T.copy(),
                  *cols[dim + 1:])
        # cell (i, j) is line i + 2, column j; after t and x come the two
        # arms, propensity, reward and epsilon; a finite bad cell is out of
        # range, and t must count the rounds 1..n in order
        cells = np.array(cols, dtype=float).T
        arms, p, eps = cells[:, dim + 1:dim + 3], cells[:, dim + 3], cells[:, dim + 5]
        bad = ~np.isfinite(cells)
        bad[:, 0] |= cols[0] != np.arange(1, len(rows) + 1)
        bad[:, dim + 1:dim + 3] |= (arms < 0) | (arms >= Scenario.n_arms)
        bad[:, dim + 3] |= (p <= 0) | (p > 1)
        bad[:, dim + 5] |= (eps <= 0) | (eps >= 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            what = "non-finite value" if not np.isfinite(cells[i, j]) else {
                0: f"expected {i + 1}, got",
                dim + 3: "propensity outside (0, 1], got",
                dim + 5: "epsilon outside (0, 1), got"}.get(
                    j, f"arm outside 0..{Scenario.n_arms - 1}, got")
            raise DomainError(f"audit log line {i + 2}, column {header[j]}: "
                              f"{what} {rows[i][j]!r}")
        return log


@dataclass
class ArmSnapshot:
    """Everything inference needs about one arm at one time point.

    ``direction`` is the canonical-sign unit index (first coordinate
    nonnegative): the index direction is identifiable only up to sign, and
    the environment draws true indexes with positive first coordinate, so
    canonicalizing the estimate makes projections, link fits, and link
    evaluations comparable across arms and replications.
    """

    arm: int
    estimate: object
    direction: np.ndarray
    report: index_inference.DirectionalReport
    covariance: np_inference.NpCovariance  # with its link fit, ``.model``
    r_tilde: float


def inference_snapshot(log: TrajectoryLog, t: int, arm: int,
                       scenario: Scenario) -> ArmSnapshot:
    """Rebuild one arm's full inferential state from the log at time t."""
    if not 0 <= arm < scenario.n_arms:
        raise DomainError(f"arm {arm} outside 0..{scenario.n_arms - 1}")
    if t <= scenario.T0:
        raise DomainError(f"inference time {t} not after warm start {scenario.T0}")
    if t > log.rounds:
        raise DomainError(f"inference time {t} beyond logged rounds {log.rounds}")
    x = log.contexts[:t]
    whitened = None if scenario.score == "known" else EmpiricalWhiteningScore.whiten_batch(x)
    pulled = np.flatnonzero(log.arm[:t] == arm)
    if not pulled.size:
        raise DegeneracyError(f"arm {arm} never pulled in first {t} rounds")
    # a known score is the context itself; one gather of the pulled rounds
    # serves every step; the rule, not the log's copy, gives weights and r-tilde
    contexts, rewards = x.take(pulled, axis=0), log.reward.take(pulled)
    feats = contexts if whitened is None else whitened.take(pulled, axis=0)
    props = log.arm_propensities(arm, t)
    weights = ipw_weights(props.take(pulled), scenario.p_min)
    est = estimate_pulled(feats, rewards, weights, t, scenario.lambda_beta)
    if est.degenerate:
        raise DegeneracyError(f"degenerate index estimate for arm {arm} at t={t}")
    infl = index_inference.build_influence(
        feats, rewards, weights, est.beta_hat, est.gram, scenario.alpha, t,
        factor=est.factor)
    vb = index_inference.v_beta(infl)
    report = index_inference.directional_report(
        est.beta_hat, vb, t, scenario.alpha, 1.0 - scenario.level)

    direction = est.direction if est.direction[0] >= 0 else -est.direction
    u_sup = contexts @ direction
    bw = median_bandwidth(u_sup)
    # the fit warm-starts from pivots its own support gives, so the
    # snapshot still depends on the log alone
    model = fit(u_sup, rewards, weights, ridge_schedule(t, scenario.zeta),
                GaussianKernel(bw), pivots=support_hint(u_sup, weights, bw))
    cov = np_inference.build_covariance(model, scenario.gamma, residual_mode="loo")
    r_tilde = np_inference.exploration_coefficient(props)
    return ArmSnapshot(arm, est, direction, report, cov, r_tilde)


def np_cis_at(snapshot: ArmSnapshot, x_next: np.ndarray, scenario: Scenario):
    """Both pointwise intervals at the next context's estimated projection."""
    u = float(np.asarray(x_next, dtype=float) @ snapshot.direction)
    eta = 1.0 - scenario.level
    clt = np_inference.pointwise_ci(snapshot.covariance, u, eta)
    band = np_inference.as_band_ci(snapshot.covariance.model, u, eta,
                                   snapshot.r_tilde, scenario.as_kappa,
                                   scenario.as_c_const, scenario.as_theta)
    for ci in (clt, band):
        if not np.isfinite([ci.lo, ci.hi]).all():
            raise DegeneracyError(f"non-finite {ci.method} interval for arm "
                                  f"{snapshot.arm} at t={snapshot.estimate.t}")
    return clt, band


@dataclass
class RunRecord:
    """One replication's inference rows, regret path and, if kept, its
    trajectory log."""

    rep: int
    ok: bool = True
    error: str = ""
    param_rows: list = field(default_factory=list)
    marginal_rows: list = field(default_factory=list)
    pointwise_rows: list = field(default_factory=list)
    regret_rows: list = field(default_factory=list)
    clamped: int = 0
    gram_diag: dict = field(default_factory=dict)
    log: TrajectoryLog | None = field(default=None, compare=False)


def run_policy(scenario: Scenario, env, rng: Rng):
    """Step a fresh policy through ``scenario.T`` rounds of ``env``, whose
    ``draw_round()`` gives ``(context, per-arm means, noise)``; the pulled arm
    earns its mean plus the noise.  Returns the log and the (T, L) means."""
    policy = EpsilonGreedyPolicy(scenario, rng)
    log = TrajectoryLog.empty(scenario.T, scenario.d)
    means = np.empty((scenario.T, scenario.n_arms))
    infer_set = set(scenario.inference_times)
    for i in range(scenario.T):
        x, mu, noise = env.draw_round()
        rec = policy.step(x, lambda a: mu[a] + noise)
        log.contexts[i] = x
        log.greedy[i] = rec.greedy_arm
        log.arm[i] = rec.arm
        log.propensity[i] = rec.propensity
        log.reward[i] = rec.reward
        log.epsilon[i] = rec.epsilon
        means[i] = mu
        if rec.t in infer_set:
            policy.force_refit()
    return log, means


def run_trajectory(scenario: Scenario, rep: int):
    """Simulate one trajectory; returns (log, true mean matrix, regret ledger, env)."""
    rep_rng = Rng(scenario.seed).split(rep)
    env = SyntheticEnv(scenario.scenario_betas(), scenario.sigma, rep_rng.split(1))
    log, means = run_policy(scenario, env, rep_rng.split(2))
    return log, means, RegretLedger(means, log.arm), env


def run_replication(scenario: Scenario, rep: int,
                    keep_log: bool = True) -> RunRecord:
    """One seeded trajectory plus the full inference grid; the record holds
    the trajectory's log when ``keep_log`` is set.  A ``KsibError`` or
    ``LinAlgError`` fails the record; any other error names ``rep``."""
    record = RunRecord(rep)
    try:
        log, means, ledger, env = run_trajectory(scenario, rep)
        if keep_log:
            record.log = log
        betas = env.betas
        snaps = []
        for t in scenario.inference_times:
            snaps = [inference_snapshot(log, t, a, scenario)
                     for a in range(scenario.n_arms)]
            for snap in snaps:
                truth = betas[snap.arm]
                covered = index_inference.ellipsoid_covers(snap.report, truth)
                record.param_rows.append({"t": t, "arm": snap.arm,
                                          "covered": int(covered)})
                record.marginal_rows.extend(index_inference.marginal_rows(
                    rep, snap.arm, t, snap.report, truth))
            if t < log.rounds:
                x_next = log.contexts[t]   # round t+1 (0-based row t)
                for snap in snaps:
                    cis = np_cis_at(snap, x_next, scenario)
                    # the estimand is the true link at the estimated
                    # projection u, where the regressor is evaluated
                    truth_val = float(env.links[snap.arm](cis[0].u))
                    for ci in cis:
                        record.clamped += int(ci.clamped)
                        record.pointwise_rows.append({
                            "rep": rep, "arm": snap.arm, "t": t,
                            "method": ci.method, "u": ci.u,
                            "center": ci.center, "lo": ci.lo, "hi": ci.hi,
                            "truth": truth_val,
                            "covered": int(ci.lo <= truth_val <= ci.hi),
                            "length": ci.hi - ci.lo})
            record.regret_rows.append({"t": t, "avg_regret": ledger.average(t)})
        for snap in snaps:   # the last inference time's
            record.gram_diag[str(snap.arm)] = min_eigenvalue(
                snap.estimate.moment_gram)
    except (KsibError, np.linalg.LinAlgError) as exc:
        record.ok = False
        record.error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:   # a fault of the program: stop, naming the rep
        raise RuntimeError(f"replication {rep}: {type(exc).__name__}: {exc}") from exc
    return record


def _openblas_setters() -> list:
    """The set-threads call of each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in
                            line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return []
    names = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
             "openblas_set_num_threads")
    setters = []
    for lib in map(ctypes.CDLL, paths):
        name = next((n for n in names if hasattr(lib, n)), None)
        if name is not None:
            setters.append(getattr(lib, name))
            setters[-1].argtypes, setters[-1].restype = [ctypes.c_int], None
    return setters


def _pin_blas() -> None:
    """Pool initializer: one BLAS thread per worker, as the workers share the cores."""
    for setter in _openblas_setters():
        setter(1)


def run_scenario(scenario: Scenario, threads: int = 1,
                 logs: int = 0) -> list[RunRecord]:
    """Every replication of ``scenario``; only the first ``logs`` records
    keep their trajectory logs, so workers send no other log back."""
    if any(t > scenario.T for t in scenario.inference_times):
        raise ConfigError("inference_times must lie in (T0, T]")
    reps = range(scenario.reps)
    keep = [rep < logs for rep in reps]
    if threads <= 1:
        return [run_replication(scenario, rep, k) for rep, k in zip(reps, keep)]
    if not _openblas_setters():
        print("ksib: no OpenBLAS found to pin in the pool workers", file=sys.stderr)
    # the pool forks all its workers at once: at most one per replication
    with ProcessPoolExecutor(max_workers=min(threads, len(reps)),
                             initializer=_pin_blas) as pool:
        # map yields the records in rep order
        return list(pool.map(run_replication, [scenario] * len(reps), reps, keep))


# -- aggregation ------------------------------------------------------------

def _rate_row(scenario, arm, t, kind, flags):
    n = len(flags)
    rate = float(np.mean(flags)) if n else float("nan")
    se = float(np.sqrt(max(rate * (1.0 - rate), 0.0) / n)) if n else float("nan")
    return {"scenario": scenario.scenario_id, "d": scenario.d,
            "sigma": scenario.sigma, "arm": arm, "t": t, "kind": kind,
            "rate": rate, "se": se, "n": n}


@dataclass
class CoverageTable:
    scenario: Scenario
    coverage_rows: list
    length_rows: list
    regret_rows: list
    marginal_rows: list
    pointwise_rows: list
    diagnostics: dict

    def coverage_rate(self, kind: str, t: int, arm: int = -1) -> float:
        return _lookup(self.coverage_rows, "rate", kind=kind, t=t, arm=arm)

    def mean_length(self, method: str, t: int, arm: int = -1) -> float:
        return _lookup(self.length_rows, "mean_length", method=method, t=t, arm=arm)

    def avg_regret(self, t: int) -> float:
        return _lookup(self.regret_rows, "mean_avg_regret", t=t)


def _lookup(rows: list[dict], column: str, **match):
    """``column`` of the first row whose fields equal ``match``."""
    for row in rows:
        if all(row[k] == v for k, v in match.items()):
            return row[column]
    raise KeyError(f"no {column} row with {match}")


def _mean_se(values) -> tuple[float, float]:
    """Mean and its standard error, std (ddof=1) over sqrt(n); 0.0 at n = 1."""
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


def aggregate(records: list[RunRecord], scenario: Scenario) -> CoverageTable:
    """Rates, mean lengths, and regret curves across successful replications."""
    ok = [r for r in records if r.ok]
    if not ok:
        raise DomainError("no successful replications to aggregate")
    z = normal_quantile(0.975)
    coverage_rows, length_rows, regret_rows = [], [], []
    for t in scenario.inference_times:
        params = [[row for row in r.param_rows if row["t"] == t] for r in ok]
        # a replication covers jointly at t when every arm's ellipsoid does
        joint = [int(all(row["covered"] for row in rows)) for rows in params if rows]
        coverage_rows.append(_rate_row(scenario, -1, t, "param_joint", joint))
        for a in range(scenario.n_arms):
            per = [row["covered"] for rows in params for row in rows if row["arm"] == a]
            coverage_rows.append(_rate_row(scenario, a, t, "param", per))
        points = [row for r in ok for row in r.pointwise_rows if row["t"] == t]
        for method in (np_inference.METHOD_CLT, np_inference.METHOD_BAND):
            rows = [row for row in points if row["method"] == method]
            for a in [-1] + list(range(scenario.n_arms)):
                sub = [row for row in rows if a == -1 or row["arm"] == a]
                coverage_rows.append(_rate_row(scenario, a, t, f"np_{method}",
                                               [row["covered"] for row in sub]))
                if sub:
                    mean, se = _mean_se([row["length"] for row in sub])
                    length_rows.append({"scenario": scenario.scenario_id, "arm": a,
                                        "t": t, "method": method,
                                        "mean_length": mean, "se": se, "n": len(sub)})
        vals = [row["avg_regret"] for r in ok for row in r.regret_rows if row["t"] == t]
        if vals:
            mean, se = _mean_se(vals)
            regret_rows.append({"scenario": scenario.scenario_id, "t": t,
                                "mean_avg_regret": mean, "lo": mean - z * se,
                                "hi": mean + z * se, "n": len(vals)})

    marginal_rows = [row for r in ok for row in r.marginal_rows]
    pointwise_rows = [row for r in ok for row in r.pointwise_rows]
    diagnostics = {
        "replications": len(records),
        "failed": len(records) - len(ok),
        "errors": sorted({r.error for r in records if not r.ok}),
        "negative_variance_clamped": int(sum(r.clamped for r in ok)),
        "gram_diagnostic_mean": {
            str(a): (float(np.mean(vals)) if (vals := [
                r.gram_diag[str(a)] for r in ok if str(a) in r.gram_diag])
                else None)
            for a in range(scenario.n_arms)},
    }
    return CoverageTable(scenario, coverage_rows, length_rows, regret_rows,
                         marginal_rows, pointwise_rows, diagnostics)


# -- export -----------------------------------------------------------------

def write_csv(path: str, columns: list[str], rows: list) -> None:
    """Write ``columns`` and then ``rows``, a dict row by ``columns`` and a
    sequence row as given, each line ending in LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] if isinstance(row, dict)
                         else row for row in rows)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def export(table: CoverageTable, outdir: str) -> None:
    """Write coverage/lengths/regret/marginals/pointwise CSVs + summary.json.

    Validates before touching the filesystem so a bad table leaves no
    partial files; reruns on identical inputs produce identical bytes.
    """
    if not table.coverage_rows:
        raise DomainError("refusing to export an empty table")
    os.makedirs(outdir, exist_ok=True)
    for name, columns, rows in [
            ("coverage", COVERAGE_COLUMNS, table.coverage_rows),
            ("lengths", LENGTH_COLUMNS, table.length_rows),
            ("regret", REGRET_COLUMNS, table.regret_rows),
            ("marginals", MARGINAL_COLUMNS, table.marginal_rows),
            ("pointwise", POINTWISE_COLUMNS, table.pointwise_rows)]:
        write_csv(os.path.join(outdir, f"{name}.csv"), columns, rows)
    write_json(os.path.join(outdir, "summary.json"), {
        "schema_version": SCHEMA_VERSION,
        "config": dataclasses.asdict(table.scenario),
        "diagnostics": table.diagnostics,
    })


def calibrated_band_ratio(pointwise_rows: list[dict], t_cal: int,
                          t_eval: int) -> tuple[float, dict]:
    """Scale the unit-constant band to full coverage at ``t_cal`` and
    compare mean lengths at ``t_eval``.

    Returns ``(c_star, info)`` where ``info`` carries the calibrated band's
    ``coverage`` at every time plus the length ``ratio`` band/CLT at ``t_eval``.
    """
    band = [r for r in pointwise_rows if r["method"] == np_inference.METHOD_BAND]
    clt = [r for r in pointwise_rows if r["method"] == np_inference.METHOD_CLT]
    cal = [r for r in band if r["t"] == t_cal]
    if not cal:
        raise DomainError(f"no band rows at calibration time {t_cal}")
    band_eval = [r["length"] for r in band if r["t"] == t_eval]
    clt_eval = [r["length"] for r in clt if r["t"] == t_eval]
    for method, lengths in ((np_inference.METHOD_BAND, band_eval),
                            (np_inference.METHOD_CLT, clt_eval)):
        if not lengths:
            raise DomainError(f"no {method} rows at evaluation time {t_eval}")
    errs = np.array([abs(r["truth"] - r["center"]) for r in cal])
    halves = np.array([0.5 * r["length"] for r in cal])
    c_star = np_inference.calibrate_band_constant(errs, halves)
    times = sorted({r["t"] for r in band})
    coverage = {}
    for t in times:
        rows = [r for r in band if r["t"] == t]
        cov = [abs(r["truth"] - r["center"]) <= c_star * 0.5 * r["length"]
               for r in rows]
        coverage[t] = float(np.mean(cov))
    ratio = float(np.mean([c_star * length for length in band_eval]) / np.mean(clt_eval))
    return c_star, {"coverage": coverage, "ratio": ratio}
