"""The benchmark's workloads, correctness checks and metric assembly.

Every workload builds its inputs from the workload seed, runs whole units of
work, checks their outputs, and reports either the end-to-end metrics
(tracing off) or the per-layer metrics of a traced pass.  ``run.py`` pins
the BLAS thread count to one before this module is imported.

A unit is one study of ``study_reps`` replications (``run_scenario`` ->
``aggregate`` -> ``export``), one long trajectory (``run_trajectory``), or
one replay cycle (``read_audit`` plus a snapshot and both intervals for
every (t, arm) of every audit log).  Study unit i uses scenario seed
``seed * 1000 + i``, because ``run_scenario`` derives both the index
vectors and the replication streams from it.  The trajectories of
horizon_long and the logs of replay_infer keep the scenario's index
vectors fixed (scenario seed 0) and take replication ``seed * 1000 + i``:
their cost grows with the cube of the leading arm's pull count, which
depends mostly on the index vectors, so fixing them keeps runs at
different seeds comparable.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import ksib
from ksib import cli, harness
from ksib.errors import KsibError
from tracer import Tracer

DEFAULT_SEED = 0
SCENARIO_SEED = 0
TOLERANCE = 1e-9
SETUPS = 3          # set-ups per untraced run; setup_s is their median
MAX_UNITS = 64

# per-scale sizes; "tiny" exists for the smoke tests
SCALES = {
    "full": {"study_reps": 1, "study": {}, "horizon": {"T": 1500},
             "replay_logs": 12, "replay": {}},
    "tiny": {"study_reps": 2, "study": {"T": 150, "inference_times": (100, 149)},
             "horizon": {"T": 200},
             "replay_logs": 2,
             "replay": {"T": 150, "inference_times": (100, 149)}},
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))

PER_LAYER = (
    ("policy.step.calls", "count"), ("policy.step.self_s", "s"),
    ("policy.select.s", "s"), ("policy.force_refit.s", "s"),
    ("kernel_ridge.fit.calls", "count"), ("kernel_ridge.fit.s", "s"),
    ("kernel_ridge.fit.support_n_mean", "count"),
    ("kernel_ridge.fit.flops_computed", "flop"),
    ("kernel_ridge.median_bandwidth.calls", "count"),
    ("kernel_ridge.median_bandwidth.s", "s"),
    ("kernel_ridge.predict.calls", "count"), ("kernel_ridge.predict.s", "s"),
    ("np_inference.build_covariance.calls", "count"),
    ("np_inference.build_covariance.s", "s"),
    ("np_inference.build_covariance.flops_computed", "flop"),
    ("np_inference.pointwise_ci.s", "s"), ("np_inference.as_band_ci.s", "s"),
    ("score_features.update.calls", "count"), ("score_features.update.s", "s"),
    ("score_features.score.s", "s"),
    ("index_estimation.observe.calls", "count"),
    ("index_estimation.observe.s", "s"),
    ("index_estimation.estimate_beta.calls", "count"),
    ("index_estimation.estimate_beta.s", "s"),
    ("index_estimation.estimate_from_arrays.s", "s"),
    ("index_inference.build_influence.s", "s"),
    ("index_inference.directional_report.s", "s"),
    ("index_inference.ellipsoid_covers.s", "s"),
    ("numerics.solve_spd.calls", "count"), ("numerics.solve_spd.s", "s"),
    ("environment.draw_round.calls", "count"), ("environment.draw_round.s", "s"),
    ("harness.inference_snapshot.calls", "count"),
    ("harness.inference_snapshot.self_s", "s"),
    ("harness.run_trajectory.s", "s"), ("harness.aggregate.s", "s"),
    ("harness.export.s", "s"), ("harness.export.bytes", "B"),
    ("harness.run_scenario.s", "s"), ("harness.run_scenario.cpu_per_rep_s", "s"),
    ("cli.read_audit.s", "s"),
    ("trace.overhead_frac", "frac"),
)

_STAT = {"calls": "calls", "s": "s", "self_s": "self_s",
         "flops_computed": "flops", "bytes": "size"}


@dataclass
class Tally:
    """Operations attempted and failed; a failed correctness check counts."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# -- value comparison -------------------------------------------------------

def _as_float(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def first_mismatch(ref, got, path: str = "") -> str | None:
    """Path of the first value differing by more than TOLERANCE (relative
    above 1, absolute below), or None when ``got`` matches ``ref``."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return f"{path}: keys {sorted(ref)} != {sorted(got)}"
        for key in sorted(ref):
            bad = first_mismatch(ref[key], got[key], f"{path}/{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            bad = first_mismatch(a, b, f"{path}[{i}]")
            if bad:
                return bad
        return None
    a, b = _as_float(ref), _as_float(got)
    if a is not None and b is not None:
        if math.isnan(a) and math.isnan(b):
            return None
        if abs(a - b) <= TOLERANCE * max(1.0, abs(a)):
            return None
        return f"{path}: {got!r} != reference {ref!r}"
    return None if ref == got else f"{path}: {got!r} != reference {ref!r}"


def all_finite(value) -> bool:
    """Every number (or numeric string) inside ``value`` is finite."""
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(all_finite(v) for v in value)
    f = _as_float(value)
    return f is None or math.isfinite(f)


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- scenarios --------------------------------------------------------------

def easy_scenario(seed: int, **overrides) -> harness.Scenario:
    return harness.Scenario(d=2, sigma=0.05, seed=seed, **overrides)


def hard_scenario(seed: int, **overrides) -> harness.Scenario:
    return harness.Scenario(d=5, sigma=0.20, score="empirical", seed=seed,
                            **overrides)


# -- workloads --------------------------------------------------------------

class Workload:
    """A named set of inputs run as units; subclasses define the unit."""

    op_layers: tuple = ()    # layers whose calls are the latency samples
    # rough wall of one unit per scale; a traced run times
    # max(1, seconds / 2 / nominal) units untraced and then the same units
    # traced, so its counts depend only on the seed and --seconds
    nominal_unit_s: dict = {}
    # CPU seconds (own + children) and replications inside run_scenario
    cpu_s = 0.0
    reps_done = 0

    def __init__(self, name, seed, scale, workdir):
        self.name, self.seed, self.scale = name, seed, scale
        self.workdir = workdir
        self.size = SCALES[scale]

    def finish(self, tally) -> None:
        """Checks that need the whole timed phase."""


class Study(Workload):
    """Easy-scenario studies through run_scenario -> aggregate -> export."""

    op_layers = ("harness.inference_snapshot",)
    op_name, op_tail = "snapshot", 90
    nominal_rep_s = {"full": 1.1, "tiny": 0.15}

    def __init__(self, *args):
        super().__init__(*args)
        self.reps = self.size["study_reps"]
        self.nominal_unit_s = {self.scale: self.nominal_rep_s[self.scale] * self.reps}
        self.scenarios = []

    def setup(self):
        self.scenarios = [
            easy_scenario(self.seed * 1000 + i, reps=self.reps, **self.size["study"])
            for i in range(MAX_UNITS)]
        return [sc.scenario_betas().tobytes() for sc in self.scenarios]

    def run_unit(self, i, tally, reference):
        sc = self.scenarios[i]
        outdir = os.path.join(self.workdir, f"study_{i}")
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            records = harness.run_scenario(sc, threads=1)
            table = harness.aggregate(records, sc)
            harness.export(table, outdir)
        except KsibError as exc:
            tally.record(False, f"unit {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        self.cpu_s += _cpu_seconds() - cpu0
        self.reps_done += len(records)
        for r in records:
            tally.record(r.ok, f"unit {i} rep {r.rep}: {r.error}")
        exports = read_exports(outdir)
        shutil.rmtree(outdir)
        tally.record(all_finite(exports), f"unit {i}: non-finite export")
        if self.seed == DEFAULT_SEED and i == 0:
            ref = reference.get(f"{self.name}/{self.scale}")
            bad = "no reference" if ref is None else first_mismatch(ref, exports)
            tally.record(bad is None, f"unit 0 vs reference: {bad}")
        return wall

    def reference_values(self):
        outdir = os.path.join(self.workdir, "reference")
        sc = self.scenarios[0]
        records = harness.run_scenario(sc, threads=1)
        harness.export(harness.aggregate(records, sc), outdir)
        exports = read_exports(outdir)
        shutil.rmtree(outdir)
        return exports


class Horizon(Workload):
    """The policy loop alone at a long horizon."""

    op_layers = ("policy.step",)
    op_name, op_tail = "step", 99
    nominal_unit_s = {"full": 1.8, "tiny": 0.1}

    scenario = None

    def setup(self):
        self.scenario = easy_scenario(SCENARIO_SEED, reps=1, **self.size["horizon"])
        return self.scenario.scenario_betas().tobytes()

    def run_unit(self, i, tally, reference):
        sc = self.scenario
        start = time.perf_counter()
        log, _, ledger, _ = harness.run_trajectory(sc, self.seed * 1000 + i)
        wall = time.perf_counter() - start
        tally.record(trajectory_valid(log, sc), f"trajectory {i}: invalid log")
        if self.seed == DEFAULT_SEED and i == 0:
            ref = reference.get(f"{self.name}/{self.scale}")
            got = trajectory_digest(log, ledger)
            bad = "no reference" if ref is None else first_mismatch(ref, got)
            tally.record(bad is None, f"trajectory 0 vs reference: {bad}")
        return wall

    def reference_values(self):
        log, _, ledger, _ = harness.run_trajectory(self.scenario, self.seed * 1000)
        return trajectory_digest(log, ledger)


class Replay(Workload):
    """Offline inference from hard-scenario audit logs written to CSV."""

    op_name, op_tail = "snapshot", 90
    nominal_unit_s = {"full": 4.0, "tiny": 0.1}

    def __init__(self, *args):
        super().__init__(*args)
        self.logs = []          # (scenario, in-memory log, csv path)
        self.latencies = []
        self.first_cycle = None

    def setup(self):
        self.logs = []
        digests = []
        sc = hard_scenario(SCENARIO_SEED, reps=1, **self.size["replay"])
        for j in range(self.size["replay_logs"]):
            log, _, _, _ = harness.run_trajectory(sc, self.seed * 1000 + j)
            path = os.path.join(self.workdir, f"rounds_{j}.csv")
            write_audit(log, path)
            self.logs.append((sc, log, path))
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        return digests

    def _snapshots(self, j, sc, log, tally, latencies=None):
        values = {}
        for t in sc.inference_times:
            for arm in range(sc.n_arms):
                start = time.perf_counter()
                try:
                    snap = harness.inference_snapshot(log, t, arm, sc)
                    cis = (harness.np_cis_at(snap, log.contexts[t], sc)
                           if t < log.rounds else ())
                except KsibError as exc:
                    tally.record(False, f"log {j} t={t} arm={arm}: {exc}")
                    continue
                if latencies is not None:
                    latencies.append(time.perf_counter() - start)
                tally.record(True, "")
                values[f"{j}/{t}/{arm}"] = snapshot_values(snap, cis)
        return values

    def run_unit(self, i, tally, reference):
        values = {}
        start = time.perf_counter()
        for j, (sc, _, path) in enumerate(self.logs):
            log = cli.read_audit(path)
            values.update(self._snapshots(j, sc, log, tally, self.latencies))
        wall = time.perf_counter() - start
        if self.first_cycle is None:
            self.first_cycle = values
            tally.record(all_finite(values), "non-finite snapshot value")
            if self.seed == DEFAULT_SEED:
                ref = reference.get(f"{self.name}/{self.scale}")
                bad = "no reference" if ref is None else first_mismatch(ref, values)
                tally.record(bad is None, f"replay vs reference: {bad}")
        else:
            tally.record(values == self.first_cycle,
                         f"cycle {i} differs from cycle 0")
        return wall

    def finish(self, tally):
        """Replay equals live: snapshots of the in-memory logs match the CSV ones."""
        live = {}
        for j, (sc, log, _) in enumerate(self.logs):
            live.update(self._snapshots(j, sc, log, Tally()))
        bad = first_mismatch(live, self.first_cycle or {})
        tally.record(bad is None, f"replay differs from live run: {bad}")

    def reference_values(self):
        tally = Tally()
        values = {}
        for j, (sc, _, path) in enumerate(self.logs):
            values.update(self._snapshots(j, sc, cli.read_audit(path), tally))
        if tally.failed:
            raise RuntimeError(f"reference snapshots failed: {tally.problems}")
        return values


WORKLOADS = {"study_serial": Study, "horizon_long": Horizon,
             "replay_infer": Replay}


def make_workload(name, seed, scale, workdir):
    return WORKLOADS[name](name, seed, scale, workdir)


# -- helpers ----------------------------------------------------------------

def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def write_audit(log, path) -> None:
    """Audit CSV in the layout ``ksib simulate --audit-reps`` writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.TrajectoryLog.header(log.dim))
        writer.writerows(log.to_rows())


def read_exports(outdir) -> dict:
    out = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        with open(path, encoding="utf-8", newline="") as fh:
            out[name] = json.load(fh) if name.endswith(".json") else list(csv.reader(fh))
    return out


def snapshot_values(snap, cis) -> list[float]:
    """Direction, ellipsoid radius, marginal half-widths, interval endpoints."""
    report = snap.report
    vals = [*report.direction, report.ellipsoid_radius2,
            *report.marginal_half_widths]
    for ci in cis:
        vals += [ci.lo, ci.hi]
    return [float(v) for v in vals]


def trajectory_valid(log, sc) -> bool:
    arrays = (log.contexts, log.propensity, log.reward, log.epsilon)
    return (log.rounds == sc.T
            and all(np.all(np.isfinite(a)) for a in arrays)
            and bool(np.all((log.propensity > 0) & (log.propensity <= 1)))
            and bool(np.all((log.arm >= 0) & (log.arm < sc.n_arms)))
            and bool(np.all((log.greedy >= 0) & (log.greedy < sc.n_arms))))


def trajectory_digest(log, ledger) -> dict:
    return {"pulls": [int(v) for v in np.bincount(log.arm, minlength=2)],
            "arm_sha256": hashlib.sha256(log.arm.astype(np.int8).tobytes()).hexdigest(),
            "reward_sum": float(log.reward.sum()),
            "epsilon_sum": float(log.epsilon.sum()),
            "regret_total": float(ledger.total)}


def import_seconds(src: Path) -> float:
    """Wall of ``import numpy, scipy.linalg, ksib, ksib.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import numpy, scipy.linalg, ksib, ksib.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def openblas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, read via ctypes."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def git_commit(root: Path) -> str | None:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, blas_env: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "blas_env": blas_env,
            "openblas_threads": openblas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "ksib": ksib.__version__,
            "git_commit": git_commit(root)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- the run ----------------------------------------------------------------

def _unit(workload, i, tally, reference, tracer):
    tracer.run_id = i
    with tracer:
        return workload.run_unit(i, tally, reference)


def _setup(workload, tally, repeats):
    times, first = [], None
    for k in range(repeats):
        start = time.perf_counter()
        fingerprint = workload.setup()
        times.append(time.perf_counter() - start)
        if first is None:
            first = fingerprint
        else:
            tally.record(fingerprint == first, f"setup {k} gave different inputs")
    return times


def run(name, seed, seconds, trace, scale, reference, workdir, src,
        spans_path=None) -> dict:
    """One benchmark run; returns metrics, counts and readable extras."""
    workload = make_workload(name, seed, scale, workdir)
    tally = Tally()
    extras = {}
    if not trace:
        imports = [import_seconds(src) for _ in range(SETUPS)]
        setups = _setup(workload, tally, SETUPS)
        timer = Tracer(workload.op_layers, count_flops=False)
        walls = []
        start = time.perf_counter()
        with timer:
            # start a unit only while half a typical unit still fits
            while not walls or (
                    time.perf_counter() - start + statistics.median(walls) / 2 < seconds
                    and len(walls) < MAX_UNITS):
                walls.append(workload.run_unit(len(walls), tally, reference))
        workload.finish(tally)
        if workload.op_layers:
            ops = timer.durations(workload.op_layers[0])
        else:
            ops = workload.latencies
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(imports) + statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb()}
        extras.update({
            "units": (len(walls), "count"),
            "unit_walls": (" ".join(f"{w:.3f}" for w in walls), "s"),
            f"{workload.op_name}s": (len(ops), "count"),
            "import_s": (statistics.median(imports), "s"),
            "input_s": (statistics.median(setups), "s")})
        ops_ms = np.asarray(ops) * 1e3
        p50 = float(np.percentile(ops_ms, 50))
        tail = float(np.percentile(ops_ms, workload.op_tail))
        metrics.update({"op_p50_ms": p50, "op_tail_ms": tail})
        extras.update({
            f"{workload.op_name}_p50_ms": (p50, "ms"),
            f"{workload.op_name}_p{workload.op_tail}_ms": (tail, "ms")})
        units = dict(END_TO_END)
    else:
        _setup(workload, tally, 1)
        n = max(1, int(seconds / 2 / workload.nominal_unit_s[scale]))
        n = min(n, MAX_UNITS)
        # each unit runs untraced and traced, alternating which goes first,
        # so drift and warm-up fall on both sides alike
        timer, tracer = Tracer(workload.op_layers, count_flops=False), Tracer()
        plain, traced, cpu_s, reps = [], [], 0.0, 0
        for i in range(n):
            for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_pass:
                    traced.append(_unit(workload, i, tally, reference, tracer))
                    continue
                cpu0, reps0 = workload.cpu_s, workload.reps_done
                plain.append(_unit(workload, i, tally, reference, timer))
                cpu_s += workload.cpu_s - cpu0
                reps += workload.reps_done - reps0
        cpu_per_rep = cpu_s / reps if reps else 0.0
        workload.finish(tally)
        if spans_path is not None:
            tracer.write_spans(spans_path)
        metrics = layer_metrics(tracer.summary(), {
            "harness.run_scenario.cpu_per_rep_s": cpu_per_rep,
            "trace.overhead_frac": sum(traced) / sum(plain) - 1.0})
        extras.update({"units": (n, "count"), "spans": (len(tracer.spans), "count")})
        units = dict(PER_LAYER)
    extras["fail_frac"] = (tally.failed / tally.attempted, "frac")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.problems,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "extras": extras}


def layer_metrics(summary: dict, measured: dict) -> dict:
    """PER_LAYER values from a tracer summary, plus values measured elsewhere."""
    out = {}
    for metric, _ in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if metric in measured:
            out[metric] = measured[metric]
        elif stat == "support_n_mean":
            rec = summary[layer]
            out[metric] = rec["size"] / rec["calls"] if rec["calls"] else 0.0
        else:
            out[metric] = summary[layer][_STAT[stat]]
    return out
