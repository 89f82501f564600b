"""Smoke tests of the benchmark itself, at the tiny input scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _ksib_objects():
    """Identity of every attribute of every ksib module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not (name == "ksib" or name.startswith("ksib.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    seen[(name, attr, meth)] = fn
    return seen


def _run(tmp_path, workload, trace, reference=None, seconds=1.0):
    if reference is None:
        reference = workloads.load_reference(HERE / "reference.json")
    workdir = tmp_path / f"{workload}-{trace}"
    workdir.mkdir()
    return workloads.run(workload, 0, seconds, trace, "tiny", reference,
                         str(workdir), SRC)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_every_patched_function(tmp_path, workload):
    before = _ksib_objects()
    result = _run(tmp_path, workload, True)
    assert result["correct"]
    after = _ksib_objects()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs_at_one_seed(tmp_path, workload):
    runs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        runs.append(_run(tmp_path / side, workload, True)["metrics"])
    first, second = runs
    counts = [k for k in first
              if k.endswith((".calls", ".flops_computed", ".bytes", "_n_mean"))]
    assert len(counts) == 15
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def _bump_csv_cell(ref):
    row = ref["pointwise.csv"][1]           # first data row; column 5 is center
    row[5] = repr(float(row[5]) + 1e-6)


def _bump_reward_sum(ref):
    ref["reward_sum"] += 1e-6


def _bump_first_snapshot(ref):
    ref[sorted(ref)[0]][0] += 1e-6


@pytest.mark.parametrize("key,workload,perturb", [
    ("study_serial/tiny", "study_serial", _bump_csv_cell),
    ("horizon_long/tiny", "horizon_long", _bump_reward_sum),
    ("replay_infer/tiny", "replay_infer", _bump_first_snapshot)])
def test_perturbed_reference_fails_the_check(tmp_path, key, workload, perturb):
    reference = workloads.load_reference(HERE / "reference.json")
    bad = copy.deepcopy(reference)
    perturb(bad[key])
    result = _run(tmp_path, workload, False, reference=bad, seconds=0.2)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_tolerance_is_1e9():
    assert workloads.first_mismatch([1.0, "2.5"], [1.0 + 5e-10, "2.5000000004"]) is None
    assert workloads.first_mismatch([1.0], [1.0 + 5e-9]) is not None
    assert workloads.first_mismatch({"a": "x"}, {"a": "y"}) is not None


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(WORKLOADS[0], 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
