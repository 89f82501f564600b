"""Command-line front end: simulate | realdata | infer.

``simulate`` runs the synthetic replication grid and writes the export
files; ``realdata`` replays a binary-label CSV as a two-arm bandit;
``infer`` recomputes every inference quantity for one (arm, t) from an
audit log and its run config and prints JSON to stdout.  Human-readable
progress goes to stderr so stdout stays machine-readable.

All randomness flows from a single ``--seed``; per-replication streams are
split from it, so reruns are byte-identical.  ``KSIB_THREADS`` provides the
``--threads`` default.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .environment import ReplayEnv, load_csv
from .errors import ConfigError, DomainError, KsibError
from .harness import (MARGINAL_COLUMNS, Scenario, TrajectoryLog, aggregate,
                      export, inference_snapshot, np_cis_at, run_policy,
                      run_scenario, write_csv, write_json)
from .index_inference import marginal_rows
from .numerics import Rng, min_eigenvalue

REALDATA_INFERENCE_TIMES = (200, 300, 400, 500, 600, 700, 800, 900)
# the Scenario fields simulate takes as flags (realdata has --seed, --T, --T0)
SCENARIO_FLAGS = ("d", "sigma", "reps", "seed", "T", "T0", "zeta",
                  "lambda_beta", "level")


def _threads(flag) -> int:
    """Worker count: ``--threads`` if given, else ``KSIB_THREADS``, else 1."""
    source, value = (("--threads", flag) if flag is not None
                     else ("KSIB_THREADS", os.environ.get("KSIB_THREADS", "1")))
    if str(value).isdecimal() and int(value) >= 1:
        return int(value)
    raise ConfigError(f"{source} must be an integer >= 1, got {value!r}")


def _scenario_from_args(args, **fixed) -> Scenario:
    """The ``Scenario`` of --config, then flags, then the command's ``fixed``."""
    fields = {f.name for f in dataclasses.fields(Scenario)}
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(raw) - fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        values.update(raw)
    for name in SCENARIO_FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    values.update(fixed)
    return Scenario(**values)


def _write_audit(log: TrajectoryLog, path: str, scenario: Scenario) -> None:
    """Write ``log`` to ``path`` and its run's ``--config`` JSON beside it."""
    write_csv(path, TrajectoryLog.header(log.dim), log.to_rows())
    write_json(os.path.splitext(path)[0] + ".json", dataclasses.asdict(scenario))


def read_audit(path: str) -> TrajectoryLog:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty log")
    return TrajectoryLog.from_rows(rows[0], rows[1:])


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    if not scenario.inference_times:
        # realdata may have an empty grid; a study without one exports nothing
        raise ConfigError("inference_times must name at least one round")
    threads = _threads(args.threads)
    if not 0 <= args.audit_reps <= scenario.reps:
        bound = ">= 0" if args.audit_reps < 0 else f"<= reps ({scenario.reps})"
        raise ConfigError(f"--audit-reps must be {bound}, got {args.audit_reps}")
    print(f"simulate: {scenario.scenario_id} reps={scenario.reps} "
          f"threads={threads}", file=sys.stderr)
    records = run_scenario(scenario, threads=threads, logs=args.audit_reps)
    table = aggregate(records, scenario)
    export(table, args.out)
    for record in records[:args.audit_reps]:
        if record.log is None:
            raise DomainError(f"rep {record.rep} has no audit log: {record.error}")
        _write_audit(record.log, os.path.join(
            args.out, f"rounds_rep{record.rep}.csv"), scenario)
    failed = table.diagnostics["failed"]
    print(f"done: {scenario.reps - failed}/{scenario.reps} replications, "
          f"exports in {args.out}", file=sys.stderr)
    return 0


def cmd_realdata(args) -> int:
    if args.perms < 1:
        raise ConfigError("--perms must be >= 1")
    table = load_csv(args.csv, args.label_col,
                     args.feature_cols.split(",") if args.feature_cols else None)
    times = tuple(t for t in REALDATA_INFERENCE_TIMES if args.T0 < t <= args.T)
    scenario = _scenario_from_args(args, d=table.features.shape[1], sigma=0.0,
                                   reps=args.perms, inference_times=times,
                                   score="empirical")
    os.makedirs(args.out, exist_ok=True)
    master = Rng(args.seed)
    summary_rows = []
    marg_rows = []
    for perm in range(args.perms):
        env = ReplayEnv(table, seed=master.split(perm).seed, horizon=args.T)
        log, means = run_policy(scenario, env, master.split(10_000 + perm))
        if args.audit:
            _write_audit(log, os.path.join(args.out, f"rounds_perm{perm}.csv"), scenario)
        labels = means[:, 1]
        accuracy = float(np.mean(log.reward))
        base = max(float(np.mean(labels == 0)), float(np.mean(labels == 1)))
        # regret proxy vs the best fixed arm in hindsight, averaged per round
        regret_proxy = base - accuracy
        summary_rows.append({"perm": perm, "accuracy": accuracy,
                             "best_fixed_arm_accuracy": base,
                             "avg_regret_proxy": regret_proxy})
        for t in times:
            for a in range(scenario.n_arms):
                try:
                    snap = inference_snapshot(log, t, a, scenario)
                except KsibError:
                    continue
                marg_rows.extend(marginal_rows(perm, a, t, snap.report))
    write_json(os.path.join(args.out, "realdata_summary.json"),
               {"rows": summary_rows, "config": dataclasses.asdict(scenario)})
    write_csv(os.path.join(args.out, "realdata_marginals.csv"),
              MARGINAL_COLUMNS, marg_rows)
    mean_acc = float(np.mean([r["accuracy"] for r in summary_rows]))
    print(f"realdata: {args.perms} permutations, mean accuracy {mean_acc:.3f}",
          file=sys.stderr)
    return 0


def cmd_infer(args) -> int:
    log = read_audit(args.log)
    args.config = os.path.splitext(args.log)[0] + ".json"   # as _write_audit names it
    if not os.path.exists(args.config):
        raise ConfigError(f"no config file {args.config} beside the log; "
                          "write the run's --config JSON there")
    scenario = _scenario_from_args(args)
    if not scenario.T0 < args.t:
        raise ConfigError(f"--t must be after the warm start T0={scenario.T0} "
                          f"of {args.config}, got {args.t}")
    if scenario.d != log.dim:
        raise ConfigError(f"{args.config}: d={scenario.d}, log has {log.dim} context columns")
    log.check_against(scenario)   # inference reads the rule, not the log's copy
    if args.context is not None:   # "" is refused, not read as no context
        try:
            x = np.array([float(v) for v in args.context.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--context: {exc}") from exc
        if not np.isfinite(x).all():
            raise ConfigError(f"--context must be finite, got {args.context!r}")
    elif args.t < log.rounds:
        x = log.contexts[args.t]
    else:
        x = None
    if x is not None and x.size != log.dim:
        raise ConfigError(f"context needs {log.dim} coordinates")
    snap = inference_snapshot(log, args.t, args.arm, scenario)
    report = snap.report
    out = {
        "arm": args.arm,
        "t": args.t,
        "beta_hat": [float(v) for v in snap.estimate.beta_hat],
        "direction": [float(v) for v in report.direction],
        "canonical_direction": [float(v) for v in snap.direction],
        "ellipsoid_radius2": report.ellipsoid_radius2,
        "marginal_half_widths": [float(v) for v in report.marginal_half_widths],
        "level": report.level,
        "r_tilde": snap.r_tilde,
        # the unregularized moment Gram, as summary.json's gram_diagnostic_mean
        "gram_lambda_min": min_eigenvalue(snap.estimate.moment_gram),
    }
    if x is not None:
        clt, band = np_cis_at(snap, x, scenario)
        out["pointwise"] = {
            ci.method: {"u": ci.u, "center": ci.center, "lo": ci.lo,
                        "hi": ci.hi, "half_width": ci.half_width}
            for ci in (clt, band)}
    json.dump(out, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksib",
        description="Kernel single-index bandit simulations and inference")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic replication grid")
    sim.add_argument("--config", help="JSON config file (strict keys)")
    for name in SCENARIO_FLAGS:   # typed as the field's default
        sim.add_argument("--" + name.replace("_", "-"), dest=name,
                         type=type(getattr(Scenario, name)))
    sim.add_argument("--out", required=True)
    sim.add_argument("--threads", type=int, default=None)
    sim.add_argument("--audit-reps", type=int, default=0,
                     help="also write per-round audit CSVs and their configs for this many reps")
    sim.set_defaults(func=cmd_simulate)

    real = sub.add_parser("realdata", help="replay a binary-label CSV")
    real.add_argument("--csv", required=True)
    real.add_argument("--label-col", required=True)
    real.add_argument("--feature-cols", default=None,
                      help="comma-separated column names (default: all others)")
    real.add_argument("--perms", type=int, default=40)
    real.add_argument("--seed", type=int, default=0)
    real.add_argument("--T", type=int, default=1000)
    real.add_argument("--T0", type=int, default=20)
    real.add_argument("--out", required=True)
    real.add_argument("--audit", action="store_true")
    real.set_defaults(func=cmd_realdata)

    inf = sub.add_parser("infer", help="recompute inference from an audit log")
    inf.add_argument("--log", required=True)
    inf.add_argument("--arm", type=int, required=True)
    inf.add_argument("--t", type=int, required=True)
    inf.add_argument("--context", default=None,
                     help="comma-separated evaluation context")
    inf.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (KsibError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
