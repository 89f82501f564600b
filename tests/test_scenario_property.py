"""A ``Scenario`` is valid once it is built: for any field values, either
construction refuses them with a ``ConfigError`` naming a field it was
given, or a short study on them runs, and every row of every replication
that succeeds is finite."""

import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ksib.errors import ConfigError
from ksib.harness import Scenario, run_scenario

NAN, INF = float("nan"), float("inf")

# (valid and boundary values, invalid values) of each field; T, T0 and
# reps are always set, so that a study stays short
VALUES = {
    "T": ([2, 60, 100, 150], [0, -1, 100.0, True, "100"]),
    "T0": ([1, 10, 49], [0, -1, 10.0, True, 150]),
    "reps": ([1], [0, -1, 1.0, True]),
    "d": ([1, 2, 5, np.int64(3)], [0, -1, True, 2.0, "2"]),
    "sigma": ([0, 0.05, 1.0, 1e150, 1e155, 1e300], [-1e-9, NAN, INF, "x", True]),
    "alpha": ([0.5, 1e-9, 0.999], [0.0, 1.0, -200.0, NAN, "x"]),
    "gamma": ([0.5, 1e-9, 0.999], [0.0, 1.0, 200.0, INF]),
    "zeta": ([0.0, 0.05, 1.0, 50.0], [-0.05, NAN, INF]),
    "lambda_beta": ([0.0, 2e-3, 1.0, 1e300], [-1e-3, NAN]),
    "level": ([0.5, 0.95, 1e-9, 0.999999], [0.0, 1.0, NAN]),
    "seed": ([0, 1, 2**64 - 1, np.uint64(2**64 - 1)],
             [2**64, -1, 2**100, 1.0, True, "0"]),
    "p_min": ([1e-3, 1.0, 1e-300], [0.0, 1.5, -0.1, NAN]),
    "eps_floor": ([0.005, 1e-9, 0.35], [0.0, 1.0, -0.1]),
    "eps_cap": ([0.35, 0.999], [0.001, 1.0, 0.0]),
    "eps_coeff": ([0.15, 1e-9, 100.0], [0.0, -0.15, INF]),
    "eps_exponent": ([0.4, 0.0, 5.0], [-0.4, NAN]),
    "n_arms": ([2], [1, 3, 2.0, True]),
    "score": (["known", "empirical"], ["bogus", 3, None]),
    "krr_ridge_mode": (["plain"], ["support-scaled"]),
    "ridge_time": (["rounds"], ["pulls"]),
    "np_residual_mode": (["loo"], ["raw"]),
    "as_theta": ([0.25, 1e-9, 0.499], [0.0, 0.5, -0.1]),
    "as_kappa": ([1.0, 1e-300, 1e300], [0.0, -1.0]),
    "as_c_const": ([1.0, 1e-300, 1e300], [0.0, -1.0]),
}
ALWAYS = ("T", "T0", "reps")
GRID_CELLS = st.one_of(st.integers(-1, 160),
                       st.sampled_from([np.int64(120), 120.0, "120", True, None]))


def sorted_times(lo, hi, min_size):
    return st.lists(st.integers(lo, hi), min_size=min_size, max_size=3).map(
        lambda ts: tuple(sorted(set(ts))))


@st.composite
def scenario_fields(draw):
    """Fields of a Scenario: each is left at its default, set to a valid
    value or, one time in forty, set to any value of its list."""
    fields = {}
    for name, (valid, invalid) in VALUES.items():
        roll = draw(st.integers(0, 39))
        if roll == 0:
            fields[name] = draw(st.sampled_from(valid + invalid))
        elif roll < 16 or name in ALWAYS:
            fields[name] = draw(st.sampled_from(valid))
    T, T0 = fields["T"], fields["T0"]
    lo, hi = ((T0, T) if all(type(v) is int for v in (T0, T)) and T0 < T
              else (-1, 160))
    # times after T0, some past T; one grid in ten may hold anything
    fields["inference_times"] = draw(
        st.one_of(sorted_times(lo - 1, hi + 10, 0), st.lists(GRID_CELLS, max_size=3),
                  st.sampled_from([5, "60", None]))
        if draw(st.integers(0, 9)) == 0 else sorted_times(lo + 1, hi + 5, 1))
    return fields


def finite_rows(record) -> bool:
    rows = (record.param_rows + record.marginal_rows + record.pointwise_rows
            + record.regret_rows + [record.gram_diag])
    return all(math.isfinite(v) for row in rows for v in row.values()
               if not isinstance(v, str))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow at 1e300
@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario_fields())
def test_built_scenario_runs(fields):
    try:
        scenario = Scenario(**fields)
    except ConfigError as exc:
        event("refused")
        assert any(re.search(rf"\b{name}\b", str(exc)) for name in fields), \
            (str(exc), fields)
        return
    if any(t > scenario.T for t in scenario.inference_times):
        event("grid past T")
        with pytest.raises(ConfigError, match=r"^inference_times must lie in"):
            run_scenario(scenario)
        return
    records = run_scenario(scenario)
    event("replication ok" if records[0].ok else "replication failed")
    assert [r.rep for r in records] == [0]
    assert all(finite_rows(r) for r in records if r.ok), fields
