"""Replay equals live: ``ksib infer`` with no flags reproduces, with ``==``,
every marginal and pointwise value the run exported, for random valid
configs of ``simulate`` and for ``realdata``."""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cli import two_cluster_csv

from ksib.cli import main


def run_cli(argv):
    """``main(argv)``; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def read_rows(path, rep):
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.DictReader(fh) if r["rep"] == rep]


@st.composite
def study_configs(draw):
    T = draw(st.integers(80, 200))
    T0 = draw(st.integers(6, 40))
    times = draw(st.sets(st.integers(T0 + 30, T), min_size=1, max_size=3))
    return {"T": T, "T0": T0, "inference_times": sorted(times), "reps": 1,
            "seed": draw(st.integers(0, 2**31 - 1)),
            "d": draw(st.integers(1, 4)),
            "sigma": draw(st.sampled_from([0.0, 0.05, 0.2])),
            "score": draw(st.sampled_from(["known", "empirical"])),
            "zeta": draw(st.floats(0.0, 0.5)),
            "p_min": draw(st.sampled_from([1e-3, 0.02, 0.2])),
            "lambda_beta": draw(st.sampled_from([0.0, 2e-3, 0.05])),
            "level": draw(st.floats(0.5, 0.99))}


@st.composite
def realdata_runs(draw):
    T = draw(st.integers(201, 400))
    return ["--perms", "1", "--seed", str(draw(st.integers(0, 2**31 - 1))),
            "--T", str(T), "--T0", str(draw(st.integers(6, 150)))]


def replay_matches(log, marginals, pointwise):
    """Flag-free ``infer`` at every exported (t, arm) equals the rows."""
    for t, arm in sorted({(r["t"], r["arm"]) for r in marginals}):
        code, out, err = run_cli(["infer", "--log", log, "--arm", arm, "--t", t])
        assert code == 0, err
        got = json.loads(out)
        for r in marginals:
            if (r["t"], r["arm"]) == (t, arm):
                center = got["direction"][int(r["coord"])]
                half = got["marginal_half_widths"][int(r["coord"])]
                assert [float(r[k]) for k in ("center", "lo", "hi")] == [
                    center, center - half, center + half], (t, arm, r)
        for r in pointwise:
            if (r["t"], r["arm"]) == (t, arm):
                ci = got["pointwise"][r["method"]]
                assert (float(r["lo"]), float(r["hi"])) == (ci["lo"], ci["hi"]), (t, arm, r)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(study_configs(), realdata_runs()))
def test_flag_free_infer_equals_live(run):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if isinstance(run, dict):
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(run, fh)
            argv = ["simulate", "--config", config, "--audit-reps", "1",
                    "--threads", "1"]
            log, marginals = "rounds_rep0.csv", "marginals.csv"
        else:
            two_cluster_csv(os.path.join(tmp, "c.csv"))
            argv = ["realdata", "--csv", os.path.join(tmp, "c.csv"),
                    "--label-col", "label", "--audit"] + run
            log, marginals = "rounds_perm0.csv", "realdata_marginals.csv"
        code, _, err = run_cli(argv + ["--out", out])
        # a study whose only replication failed exports nothing to compare;
        # any other error fails the example
        assume(not err.endswith("error: no successful replications to aggregate\n"))
        assert code == 0, err.splitlines()[-1]
        rows = read_rows(os.path.join(out, marginals), "0")
        pointwise = (read_rows(os.path.join(out, "pointwise.csv"), "0")
                     if isinstance(run, dict) else [])
        assert rows and (pointwise or not isinstance(run, dict))
        replay_matches(os.path.join(out, log), rows, pointwise)
