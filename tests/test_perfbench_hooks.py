"""What the benchmark relies on still exists.

``perfbench/tracer.py`` wraps ksib names listed in its ``LAYERS``; a rename
in ksib breaks only the traced benchmark run, so one test resolves each
name the way ``Tracer.patch`` does.  ``perfbench/reference.json`` pins the
exports' file names, CSV columns and JSON keys, which another test checks
without comparing values (the benchmark compares those at 1e-9).  A third
builds every ``Scenario`` that ``perfbench/workloads.py`` builds, so a
stricter ``Scenario`` fails here before it fails the benchmark.  All read
perfbench and change nothing.
"""

import csv
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ksib import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_tracer():
    # the tracer imports neither numpy nor ksib, so loading it runs nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports the tracer by its bare name, as run.py runs it,
    # and its dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, modname, attr", load_tracer().LAYERS)
def test_layer_resolves(layer, modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # a method is patched on the class that defines it
        assert callable(vars(getattr(owner, cls_name)).get(meth)), layer
    else:
        assert callable(getattr(owner, attr, None)), layer


def dict_keys(value, path="") -> dict:
    """Sorted keys of every dict inside ``value``, by its path."""
    if isinstance(value, dict):
        out = {path: sorted(value)}
        for key, item in value.items():
            out.update(dict_keys(item, f"{path}/{key}"))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(dict_keys(item, f"{path}[{i}]"))
        return out
    return {}


def test_exports_keep_the_pinned_schema(tmp_path):
    """The study recorded as study_serial/tiny, rebuilt from its own
    config, exports the same files, CSV header rows and summary.json keys:
    a new Scenario field, diagnostics key or column fails the benchmark's
    correctness check, and fails here first."""
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)["study_serial/tiny"]
    scenario = harness.Scenario(**ref["summary.json"]["config"])
    harness.export(harness.aggregate(harness.run_scenario(scenario), scenario),
                   str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ref)
    for name in sorted(ref):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            if name.endswith(".csv"):
                assert next(csv.reader(fh)) == ref[name][0], name
            else:
                assert dict_keys(json.load(fh)) == dict_keys(ref[name]), name


@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_workload_scenarios_build(workloads, scale):
    """Each workload's Scenario, built as its ``setup`` builds it: a study
    unit's, the long trajectory's (the tiny one's default grid runs past
    its T=200) and the replayed logs'."""
    size = workloads.SCALES[scale]
    seed = workloads.SCENARIO_SEED
    built = [workloads.easy_scenario(seed, reps=size["study_reps"], **size["study"]),
             workloads.easy_scenario(seed, reps=1, **size["horizon"]),
             workloads.hard_scenario(seed, reps=1, **size["replay"])]
    assert [sc.T for sc in built] == [size[key].get("T", 1000)
                                      for key in ("study", "horizon", "replay")]
