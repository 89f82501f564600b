"""Monte-Carlo replication engine and export layer.

A scenario runs N seeded trajectories of the epsilon-greedy policy on the
synthetic single-index environment, fires parametric and nonparametric
inference at a fixed grid of times, and aggregates coverage rates, interval
lengths, and regret paths into byte-stable CSV/JSON exports.

Inference is a pure function of the audit log: at each inference time the
whole per-arm state (whitening, index estimate, kernel regression, both
covariance estimators) is rebuilt from rounds 1..t, so the offline replay
command reproduces every reported number exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import index_inference, np_inference
from .environment import RegretLedger, SyntheticEnv, sample_canonical_betas
from .errors import ConfigError, DegeneracyError, DomainError, KsibError
from .index_estimation import accumulate_arrays, estimate_from_arrays
from .kernel_ridge import GaussianKernel, fit, median_bandwidth, ridge_schedule
from .numerics import Rng, min_eigenvalue, normal_quantile
from .policy import EpsilonGreedyPolicy, EpsilonSchedule, PolicyConfig
from .score_features import EmpiricalWhiteningScore, KnownGaussianScore

SCHEMA_VERSION = 1
DEFAULT_INFERENCE_TIMES = (200, 314, 428, 542, 657, 771, 885, 999)

COVERAGE_COLUMNS = ["scenario", "d", "sigma", "arm", "t", "kind", "rate", "se", "n"]
LENGTH_COLUMNS = ["scenario", "arm", "t", "method", "mean_length", "se", "n"]
REGRET_COLUMNS = ["scenario", "t", "mean_avg_regret", "lo", "hi", "n"]
MARGINAL_COLUMNS = ["rep", "arm", "t", "coord", "center", "lo", "hi", "covered"]
POINTWISE_COLUMNS = ["rep", "arm", "t", "method", "u", "center", "lo", "hi",
                     "truth", "covered", "length"]


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration; every field has a working default."""

    d: int = 2
    sigma: float = 0.05
    T: int = 1000
    T0: int = 50
    reps: int = 100
    inference_times: tuple = DEFAULT_INFERENCE_TIMES
    alpha: float = 0.5
    gamma: float = 0.5
    zeta: float = 0.05
    lambda_beta: float = 2e-3
    level: float = 0.95
    seed: int = 0
    p_min: float = 1e-3
    eps_floor: float = 0.005
    eps_cap: float = 0.35
    eps_coeff: float = 0.15
    eps_exponent: float = 0.4
    n_arms: int = 2
    score: str = "known"          # "known" | "empirical"
    krr_ridge_mode: str = "plain"  # "plain" | "support-scaled"
    ridge_time: str = "rounds"     # "rounds" | "pulls"
    as_theta: float = 0.2
    as_kappa: float = 1.0
    as_c_const: float = 1.0
    np_residual_mode: str = "loo"  # "loo" | "raw"

    def validate(self) -> None:
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if not (0 < self.T0 < self.T):
            raise ConfigError("need 0 < T0 < T")
        times = tuple(self.inference_times)
        if any(t <= self.T0 or t > self.T for t in times):
            raise ConfigError("inference_times must lie in (T0, T]")
        if any(b >= a for a, b in zip(times[1:], times)):
            raise ConfigError("inference_times must be strictly increasing")
        if not (0 < self.level < 1):
            raise ConfigError("level must be in (0,1)")
        if self.score not in ("known", "empirical"):
            raise ConfigError("score must be 'known' or 'empirical'")
        if self.krr_ridge_mode not in ("plain", "support-scaled"):
            raise ConfigError("krr_ridge_mode must be 'plain' or 'support-scaled'")
        if self.ridge_time not in ("rounds", "pulls"):
            raise ConfigError("ridge_time must be 'rounds' or 'pulls'")
        if not (0 < self.as_theta < 0.5):
            raise ConfigError("as_theta must be in (0, 1/2)")
        if self.np_residual_mode not in ("loo", "raw"):
            raise ConfigError("np_residual_mode must be 'loo' or 'raw'")

    @property
    def scenario_id(self) -> str:
        return f"d{self.d}_sigma{self.sigma:g}"

    def policy_config(self) -> PolicyConfig:
        return PolicyConfig(
            n_arms=self.n_arms, dim=self.d, warm_start=self.T0,
            schedule=EpsilonSchedule(self.eps_floor, self.eps_cap,
                                     self.eps_coeff, self.eps_exponent),
            p_min=self.p_min, lambda_beta=self.lambda_beta, zeta=self.zeta,
            krr_ridge_mode=self.krr_ridge_mode, ridge_time=self.ridge_time)

    def scenario_betas(self) -> np.ndarray:
        """Index vectors shared by every replication of this scenario."""
        tag = 1_000_003 * self.d + int(round(self.sigma * 1e6))
        return sample_canonical_betas(self.d, self.n_arms,
                                      Rng(self.seed).split(0xBE7A0000 + tag))


@dataclass
class TrajectoryLog:
    """Append-only audit record of one trajectory."""

    contexts: np.ndarray   # (T, d)
    greedy: np.ndarray     # (T,)
    arm: np.ndarray        # (T,)
    propensity: np.ndarray
    reward: np.ndarray
    epsilon: np.ndarray

    @property
    def rounds(self) -> int:
        return self.arm.size

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]

    def arm_propensities(self, arm: int, t: int, warm_start: int,
                         n_arms: int) -> np.ndarray:
        """Per-round assignment probability of ``arm`` over rounds 1..t."""
        s = np.arange(1, t + 1)
        warm = s <= warm_start
        p = np.where(self.greedy[:t] == arm, 1.0 - self.epsilon[:t],
                     self.epsilon[:t] / (n_arms - 1))
        return np.where(warm, 1.0 / n_arms, p)

    def to_rows(self) -> list[list]:
        rows = []
        for i in range(self.rounds):
            rows.append([i + 1, *[float(v) for v in self.contexts[i]],
                         int(self.greedy[i]), int(self.arm[i]),
                         float(self.propensity[i]), float(self.reward[i]),
                         float(self.epsilon[i])])
        return rows

    @staticmethod
    def header(dim: int) -> list[str]:
        return (["t"] + [f"x{j}" for j in range(dim)]
                + ["greedy_arm", "pulled_arm", "propensity", "reward", "epsilon"])

    @classmethod
    def from_rows(cls, header: list[str], rows: list[list[str]]) -> "TrajectoryLog":
        expect_tail = ["greedy_arm", "pulled_arm", "propensity", "reward", "epsilon"]
        if header[:1] != ["t"] or header[-5:] != expect_tail:
            missing = [c for c in ["t"] + expect_tail if c not in header]
            raise DomainError(f"audit log schema mismatch; missing columns {missing}")
        dim = len(header) - 6
        n = len(rows)
        if n == 0:
            raise DomainError("empty audit log")
        contexts = np.empty((n, dim))
        greedy = np.empty(n, dtype=int)
        arm = np.empty(n, dtype=int)
        propensity = np.empty(n)
        reward = np.empty(n)
        epsilon = np.empty(n)
        for i, row in enumerate(rows):
            contexts[i] = [float(v) for v in row[1:1 + dim]]
            greedy[i] = int(row[1 + dim])
            arm[i] = int(row[2 + dim])
            propensity[i] = float(row[3 + dim])
            reward[i] = float(row[4 + dim])
            epsilon[i] = float(row[5 + dim])
        return cls(contexts, greedy, arm, propensity, reward, epsilon)


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
    t: int
    estimate: object
    direction: np.ndarray
    report: index_inference.DirectionalReport
    model: object
    covariance: np_inference.NpCovariance
    r_tilde: float


def score_features_for(log: TrajectoryLog, t: int, score: str) -> np.ndarray:
    """Score features of rounds 1..t, re-whitened from scratch at time t."""
    x = log.contexts[:t]
    if score == "known":
        return KnownGaussianScore.standard(log.dim).score(x)
    return EmpiricalWhiteningScore.from_batch(x).score(x)


def inference_snapshot(log: TrajectoryLog, t: int, arm: int,
                       scenario: Scenario) -> ArmSnapshot:
    """Rebuild one arm's full inferential state from the log at time t."""
    if t <= scenario.T0:
        raise DomainError(f"inference time {t} not after warm start {scenario.T0}")
    if t > log.rounds:
        raise DomainError(f"inference time {t} beyond logged rounds {log.rounds}")
    feats = score_features_for(log, t, scenario.score)
    rewards = log.reward[:t]
    pulled = log.arm[:t] == arm
    if not np.any(pulled):
        raise DegeneracyError(f"arm {arm} never pulled in first {t} rounds")
    est = estimate_from_arrays(feats, rewards, pulled, log.propensity[:t],
                               scenario.lambda_beta, scenario.p_min)
    if est.degenerate:
        raise DegeneracyError(f"degenerate index estimate for arm {arm} at t={t}")
    weights = 1.0 / np.maximum(log.propensity[:t][pulled], scenario.p_min)
    infl = index_inference.build_influence(
        feats[pulled], rewards[pulled], weights, est.beta_hat, est.gram,
        scenario.alpha, t)
    vb = index_inference.v_beta(infl)
    report = index_inference.directional_report(
        est.beta_hat, vb, t, scenario.alpha, 1.0 - scenario.level)

    direction = est.direction if est.direction[0] >= 0 else -est.direction
    u_sup = log.contexts[:t][pulled] @ direction
    bw = median_bandwidth(u_sup)
    n_pulls = int(pulled.sum())
    sched_t = t if scenario.ridge_time == "rounds" else n_pulls
    lam = ridge_schedule(sched_t, scenario.zeta)
    scale = "none" if scenario.krr_ridge_mode == "plain" else "support"
    model = fit(u_sup, rewards[pulled], weights, lam, GaussianKernel(bw),
                lam_scale=scale)
    cov = np_inference.build_covariance(model, scenario.gamma,
                                        residual_mode=scenario.np_residual_mode)
    r_tilde = np_inference.exploration_coefficient(
        log.arm_propensities(arm, t, scenario.T0, scenario.n_arms))
    return ArmSnapshot(arm, t, est, direction, report, model, cov, r_tilde)


def np_cis_at(snapshot: ArmSnapshot, x_next: np.ndarray, scenario: Scenario):
    """Both pointwise intervals at the next context's estimated projection."""
    u = float(np.asarray(x_next, dtype=float) @ snapshot.direction)
    eta = 1.0 - scenario.level
    clt = np_inference.pointwise_ci(snapshot.model, snapshot.covariance, u,
                                    eta, snapshot.model.n_support,
                                    scenario.gamma)
    band = np_inference.as_band_ci(snapshot.model, u, eta, snapshot.r_tilde,
                                   scenario.as_kappa, scenario.as_c_const,
                                   scenario.as_theta)
    return clt, band


@dataclass
class RunRecord:
    """One replication's inference snapshots and regret path."""

    rep: int
    ok: bool = True
    error: str = ""
    joint_rows: list = field(default_factory=list)
    param_rows: list = field(default_factory=list)
    marginal_rows: list = field(default_factory=list)
    pointwise_rows: list = field(default_factory=list)
    regret_rows: list = field(default_factory=list)
    final_regret: float = 0.0
    clamped: int = 0
    gram_diag: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def run_trajectory(scenario: Scenario, rep: int):
    """Simulate one trajectory; returns (log, true mean matrix, regret ledger)."""
    betas = scenario.scenario_betas()
    rep_rng = Rng(scenario.seed).split(rep)
    env = SyntheticEnv(betas, scenario.sigma, rep_rng.split(1))
    if scenario.score == "known":
        score = KnownGaussianScore.standard(scenario.d)
    else:
        score = EmpiricalWhiteningScore(scenario.d)
    policy = EpsilonGreedyPolicy(scenario.policy_config(), score, rep_rng.split(2))
    ledger = RegretLedger()
    T = scenario.T
    contexts = np.empty((T, scenario.d))
    greedy = np.empty(T, dtype=int)
    arm = np.empty(T, dtype=int)
    prop = np.empty(T)
    reward = np.empty(T)
    eps = np.empty(T)
    means = np.empty((T, scenario.n_arms))
    infer_set = set(scenario.inference_times)
    for i in range(T):
        x, mu, noise = env.draw_round()
        rec = policy.step(x, lambda a: mu[a] + noise)
        ledger.update(mu[rec.arm], mu)
        contexts[i] = x
        greedy[i] = rec.greedy_arm
        arm[i] = rec.arm
        prop[i] = rec.propensity
        reward[i] = rec.reward
        eps[i] = rec.epsilon
        means[i] = mu
        if rec.t in infer_set:
            policy.force_refit()
    log = TrajectoryLog(contexts, greedy, arm, prop, reward, eps)
    return log, means, ledger, env


def run_replication(scenario: Scenario, rep: int) -> RunRecord:
    """One seeded trajectory plus the full inference grid."""
    record = RunRecord(rep)
    try:
        log, means, ledger, env = run_trajectory(scenario, rep)
        betas = env.betas
        for t in scenario.inference_times:
            snaps = [inference_snapshot(log, t, a, scenario)
                     for a in range(scenario.n_arms)]
            covered_all = []
            for snap in snaps:
                truth = betas[snap.arm]
                covered = index_inference.ellipsoid_covers(snap.report, truth)
                covered_all.append(covered)
                record.param_rows.append({"t": t, "arm": snap.arm,
                                          "covered": int(covered)})
                aligned = index_inference.sign_align(truth, snap.report.direction)
                record.marginal_rows.extend(index_inference.marginal_rows(
                    rep, snap.arm, t, snap.report, aligned))
            record.joint_rows.append({"t": t, "covered": int(all(covered_all))})
            if t < log.rounds:
                x_next = log.contexts[t]   # round t+1 (0-based row t)
                for snap in snaps:
                    # the interval's estimand: the arm's true link at the
                    # same projection the regressor is evaluated at
                    u_eval = float(x_next @ snap.direction)
                    truth_val = float(env.links[snap.arm](u_eval))
                    for ci in np_cis_at(snap, x_next, scenario):
                        record.clamped += int(getattr(ci, "clamped", False))
                        record.pointwise_rows.append({
                            "rep": rep, "arm": snap.arm, "t": t,
                            "method": ci.method, "u": ci.u,
                            "center": ci.center, "lo": ci.lo, "hi": ci.hi,
                            "truth": truth_val,
                            "covered": int(ci.lo <= truth_val <= ci.hi),
                            "length": ci.hi - ci.lo})
            record.regret_rows.append({"t": t, "avg_regret": ledger.average(t)})
        record.final_regret = ledger.total
        t_last = scenario.inference_times[-1]
        feats = score_features_for(log, t_last, scenario.score)
        for a in range(scenario.n_arms):
            gram, _, tt, _ = accumulate_arrays(
                feats, log.reward[:t_last], log.arm[:t_last] == a,
                log.propensity[:t_last], scenario.p_min)
            record.gram_diag[str(a)] = min_eigenvalue(gram / tt)
    except (KsibError, np.linalg.LinAlgError) as exc:
        record.ok = False
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def _run_rep_star(args):
    return run_replication(*args)


def run_scenario(scenario: Scenario, threads: int = 1) -> list[RunRecord]:
    scenario.validate()
    jobs = [(scenario, rep) for rep in range(scenario.reps)]
    if threads <= 1:
        records = [run_replication(*j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_rep_star, jobs))
    return sorted(records, key=lambda r: r.rep)


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
        for row in self.coverage_rows:
            if row["kind"] == kind and row["t"] == t and row["arm"] == arm:
                return row["rate"]
        raise KeyError(f"no coverage row kind={kind} t={t} arm={arm}")

    def mean_length(self, method: str, t: int, arm: int = -1) -> float:
        for row in self.length_rows:
            if row["method"] == method and row["t"] == t and row["arm"] == arm:
                return row["mean_length"]
        raise KeyError(f"no length row method={method} t={t} arm={arm}")

    def avg_regret(self, t: int) -> float:
        for row in self.regret_rows:
            if row["t"] == t:
                return row["mean_avg_regret"]
        raise KeyError(f"no regret row t={t}")


def aggregate(records: list[RunRecord], scenario: Scenario) -> CoverageTable:
    """Rates, mean lengths, and regret curves across successful replications."""
    ok = [r for r in records if r.ok]
    if not ok:
        raise DomainError("no successful replications to aggregate")
    times = list(scenario.inference_times)
    coverage_rows = []
    for t in times:
        joint = [row["covered"] for r in ok for row in r.joint_rows
                 if row["t"] == t]
        coverage_rows.append(_rate_row(scenario, -1, t, "param_joint", joint))
        for a in range(scenario.n_arms):
            per = [row["covered"] for r in ok for row in r.param_rows
                   if row["t"] == t and row["arm"] == a]
            coverage_rows.append(_rate_row(scenario, a, t, "param", per))
        for method in (np_inference.METHOD_CLT, np_inference.METHOD_BAND):
            rows = [row for r in ok for row in r.pointwise_rows
                    if row["t"] == t and row["method"] == method]
            coverage_rows.append(_rate_row(scenario, -1, t, f"np_{method}",
                                           [row["covered"] for row in rows]))
            for a in range(scenario.n_arms):
                sub = [row["covered"] for row in rows if row["arm"] == a]
                coverage_rows.append(_rate_row(scenario, a, t, f"np_{method}", sub))

    length_rows = []
    for t in times:
        for method in (np_inference.METHOD_CLT, np_inference.METHOD_BAND):
            rows = [row for r in ok for row in r.pointwise_rows
                    if row["t"] == t and row["method"] == method]
            for a in [-1] + list(range(scenario.n_arms)):
                sub = [row["length"] for row in rows
                       if a == -1 or row["arm"] == a]
                n = len(sub)
                if n == 0:
                    continue
                mean = float(np.mean(sub))
                se = float(np.std(sub, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
                length_rows.append({"scenario": scenario.scenario_id, "arm": a,
                                    "t": t, "method": method,
                                    "mean_length": mean, "se": se, "n": n})

    z = normal_quantile(0.975)
    regret_rows = []
    for t in times:
        vals = [row["avg_regret"] for r in ok for row in r.regret_rows
                if row["t"] == t]
        if not vals:
            continue
        mean = float(np.mean(vals))
        half = z * float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        regret_rows.append({"scenario": scenario.scenario_id, "t": t,
                            "mean_avg_regret": mean, "lo": mean - half,
                            "hi": mean + half, "n": len(vals)})

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

def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export(table: CoverageTable, outdir: str) -> None:
    """Write coverage/lengths/regret/marginals/pointwise CSVs + summary.json.

    Validates before touching the filesystem so a bad table leaves no
    partial files; reruns on identical inputs produce identical bytes.
    """
    if not table.coverage_rows:
        raise DomainError("refusing to export an empty table")
    os.makedirs(outdir, exist_ok=True)
    _write_csv(os.path.join(outdir, "coverage.csv"), COVERAGE_COLUMNS,
               table.coverage_rows)
    _write_csv(os.path.join(outdir, "lengths.csv"), LENGTH_COLUMNS,
               table.length_rows)
    _write_csv(os.path.join(outdir, "regret.csv"), REGRET_COLUMNS,
               table.regret_rows)
    _write_csv(os.path.join(outdir, "marginals.csv"), MARGINAL_COLUMNS,
               table.marginal_rows)
    _write_csv(os.path.join(outdir, "pointwise.csv"), POINTWISE_COLUMNS,
               table.pointwise_rows)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": dataclasses.asdict(table.scenario),
        "diagnostics": table.diagnostics,
    }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def calibrated_band_ratio(pointwise_rows: list[dict], t_cal: int,
                          t_eval: int) -> tuple[float, dict]:
    """Scale the unit-constant band to full coverage at ``t_cal`` and
    compare mean lengths at ``t_eval``.

    Returns ``(c_star, info)`` where ``info`` carries the calibrated band's
    coverage at every time plus the length ratio band/CLT at ``t_eval``.
    """
    band = [r for r in pointwise_rows if r["method"] == np_inference.METHOD_BAND]
    clt = [r for r in pointwise_rows if r["method"] == np_inference.METHOD_CLT]
    cal = [r for r in band if r["t"] == t_cal]
    if not cal:
        raise DomainError(f"no band rows at calibration time {t_cal}")
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
    band_len = np.mean([c_star * r["length"] for r in band if r["t"] == t_eval])
    clt_len = np.mean([r["length"] for r in clt if r["t"] == t_eval])
    ratio = float(band_len / clt_len)
    return c_star, {"coverage": coverage, "ratio": ratio,
                    "band_mean_length": float(band_len),
                    "clt_mean_length": float(clt_len)}
