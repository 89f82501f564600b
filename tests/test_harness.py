"""Replication engine: aggregation math, exports, determinism, replay."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ksib import harness
from ksib.errors import ConfigError, DomainError
from ksib.harness import (RunRecord, Scenario, TrajectoryLog, aggregate,
                          calibrated_band_ratio, export, inference_snapshot,
                          np_cis_at, run_replication, run_scenario,
                          run_trajectory, write_csv)
from ksib.kernel_ridge import HINT_CAP, fit, support_hint
from ksib.numerics import Rng, normal_quantile

TINY = dict(T=140, T0=20, reps=4, inference_times=(60, 100, 139),
            d=2, sigma=0.05, seed=3)

# one wrongly typed value per Scenario field annotation
WRONG_TYPE = {"int": "2", "float": "x", "str": 3, "tuple": 5}


def assert_same_record(a, b):
    """Equal fields, with ``repr`` keeping -0.0 and int/float apart as
    JSON would, and bit-equal logs."""
    assert a == b and repr(a) == repr(b)
    for f in dataclasses.fields(TrajectoryLog):
        x, y = getattr(a.log, f.name), getattr(b.log, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.fixture(scope="module")
def tiny_records():
    sc = Scenario(**TINY)
    return sc, [run_replication(sc, r) for r in range(sc.reps)]


class TestScenario:
    def test_validation_messages(self):
        with pytest.raises(ConfigError):
            Scenario(sigma=-1.0)
        with pytest.raises(ConfigError):
            Scenario(inference_times=(10, 999))
        with pytest.raises(ConfigError):
            Scenario(inference_times=(999, 200))
        with pytest.raises(ConfigError):
            Scenario(score="bogus")

    @pytest.mark.parametrize("floor,cap", [(0.4, 0.35), (0.0, 0.35), (0.005, 1.0)])
    def test_validation_rejects_bad_epsilon(self, floor, cap):
        with pytest.raises(ConfigError, match="eps_floor"):
            Scenario(eps_floor=floor, eps_cap=cap)

    def test_validation_rejects_single_arm(self):
        with pytest.raises(ConfigError, match="n_arms"):
            Scenario(n_arms=1)

    @pytest.mark.parametrize("p_min", [0.0, -0.1, 1.5])
    def test_validation_rejects_bad_p_min(self, p_min):
        with pytest.raises(ConfigError, match="p_min"):
            Scenario(p_min=p_min)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
    def test_validation_rejects_wrong_type(self, field):
        annotation = {f.name: f.type for f in dataclasses.fields(Scenario)}[field]
        bad = [WRONG_TYPE[annotation]]
        if annotation == "float":
            bad += [float("nan"), float("inf"), -float("inf")]
        for value in bad:
            with pytest.raises(ConfigError, match=field):
                Scenario(**{field: value})

    # the middle six once passed and then failed every replication (no third
    # link; a DomainError from the index solve or the band) or, for
    # as_kappa, inverted every AS band silently; the next four ran an
    # exploration or ridge schedule that does not decay; the next four, alpha
    # and gamma outside (0,1), overflowed a power or gave NaN intervals that
    # "covered"; the link fit has one configuration, and its three fields
    # refuse any other value; alpha, gamma and as_kappa are fixed labels too
    @pytest.mark.parametrize("bad", [{"d": True}, {"reps": 2.0},
                                     {"inference_times": (200, "999")},
                                     {"inference_times": (200, 999.0)},
                                     {"n_arms": 3}, {"lambda_beta": -1e-3},
                                     {"as_c_const": 0.0}, {"as_c_const": -1.0},
                                     {"as_kappa": 0.0}, {"as_kappa": -1.0},
                                     {"eps_coeff": 0.0}, {"eps_coeff": -0.15},
                                     {"eps_exponent": -0.4}, {"zeta": -0.05},
                                     {"alpha": -200.0}, {"alpha": 1.0},
                                     {"gamma": 200.0}, {"gamma": 0.0},
                                     {"krr_ridge_mode": "support-scaled"},
                                     {"ridge_time": "pulls"},
                                     {"np_residual_mode": "raw"},
                                     {"alpha": 0.3}, {"gamma": 0.3},
                                     {"as_kappa": 2.0}])
    def test_validation_rejects_bools_floats_and_bad_times(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            Scenario(**bad)

    def test_validation_accepts_numpy_scalars_and_int_floats(self):
        Scenario(d=np.int64(3), sigma=0, zeta=np.float64(0.05), lambda_beta=0,
                 inference_times=[200, np.int64(999)])

    # no Scenario that breaks the design exists, built or replaced: three
    # arms failed each trajectory in the environment, T0=0 ran without a
    # warm start, and Rng keeps a seed's low 64 bits, so 2**64 ran seed 0
    @pytest.mark.parametrize("bad", [{"n_arms": 3}, {"T0": 0},
                                     {"seed": 2**64}, {"seed": -1}])
    def test_construction_refuses_a_broken_design(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            Scenario(**bad)
        with pytest.raises(ConfigError, match=next(iter(bad))):
            dataclasses.replace(Scenario(**TINY), **bad)

    def test_seed_range_ends_accepted(self):
        assert [Scenario(seed=s).seed for s in (0, 2**64 - 1)] == [0, 2**64 - 1]

    def test_grid_stored_as_tuple(self):
        sc = Scenario(inference_times=[200, 999])
        assert sc.inference_times == (200, 999)
        assert sc == Scenario(inference_times=(200, 999))

    def test_numpy_scalars_stored_as_python_numbers(self):
        """A numpy integer made the config unwritable as JSON, and with a
        large sigma overflowed the index vectors' seed tag."""
        sc = Scenario(d=np.int64(3), sigma=np.float64(1e150), seed=np.uint64(7),
                      inference_times=[200, np.int64(999)])
        assert json.loads(json.dumps(dataclasses.asdict(sc))) == {
            **json.loads(json.dumps(dataclasses.asdict(Scenario()))),
            "d": 3, "sigma": 1e150, "seed": 7, "inference_times": [200, 999]}
        assert sc.scenario_betas().shape == (2, 3)

    def test_grid_past_T_refused_by_the_study(self, monkeypatch):
        """A time past T marks a refit that never fires, so such a
        Scenario exists; a study snapshots at every time and refuses it
        before any replication runs."""
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "run_replication", no_replication)
        sc = Scenario(T=200)
        assert sc.inference_times == harness.DEFAULT_INFERENCE_TIMES
        with pytest.raises(ConfigError,
                           match=r"^inference_times must lie in \(T0, T\]$"):
            run_scenario(sc)

    def test_scenario_betas_shared_across_reps(self):
        sc = Scenario(**TINY)
        np.testing.assert_array_equal(sc.scenario_betas(), sc.scenario_betas())
        other = Scenario(**{**TINY, "sigma": 0.10})
        assert not np.array_equal(sc.scenario_betas(), other.scenario_betas())

    def test_betas_canonical(self):
        betas = Scenario(**TINY).scenario_betas()
        for b in betas:
            assert b[0] > 0
            assert np.linalg.norm(b) == pytest.approx(1.0)


class TestTrajectoryLog:
    def test_round_trip_rows(self):
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 0)
        rows = [[str(v) for v in row] for row in log.to_rows()]
        back = TrajectoryLog.from_rows(TrajectoryLog.header(sc.d), rows)
        np.testing.assert_array_equal(back.contexts, log.contexts)
        np.testing.assert_array_equal(back.propensity, log.propensity)
        np.testing.assert_array_equal(back.arm, log.arm)

    def test_schema_mismatch_names_columns(self):
        with pytest.raises(DomainError) as err:
            TrajectoryLog.from_rows(["t", "x0", "oops"], [["1", "0", "0"]])
        assert "pulled_arm" in str(err.value)

    # contexts are read by position: a log with a moved or renamed context
    # column replayed as if its header were the original's
    @pytest.mark.parametrize("names, message", [
        (["x1", "x0"], "column 2 is 'x1', expected 'x0'"),
        (["foo", "bar"], "column 2 is 'foo', expected 'x0'"),
        (["x0", "x2"], "column 3 is 'x2', expected 'x1'")])
    def test_header_names_checked(self, names, message):
        header = ["t", *names, *harness.LOG_TAIL_COLUMNS]
        with pytest.raises(DomainError, match=message):
            TrajectoryLog.from_rows(header, [["1", "0.5", "0.1", "0", "0", "0.5",
                                              "1.0", "0.5"]])

    def test_arm_propensities_reconstruction(self):
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 1)
        for arm in (0, 1):
            props = log.arm_propensities(arm, sc.T, sc.T0, 2)
            pulled = log.arm == arm
            # exact: inference takes its weights from this rule alone
            assert np.array_equal(props[pulled], log.propensity[pulled])
            assert np.array_equal(props[:sc.T0], np.full(sc.T0, 0.5))

    @pytest.mark.parametrize("score", ["known", "empirical"])
    def test_policy_log_agrees_with_its_rule(self, score):
        """Every epsilon and propensity the policy writes is the rule's,
        bit for bit."""
        sc = Scenario(**{**TINY, "score": score})
        log, _, _, _ = run_trajectory(sc, 0)
        log.check_against(sc)

    # the T=140 log against a shorter and a longer run
    @pytest.mark.parametrize("T, message", [
        (139, "line 141, column t: expected end of log at T=139, got '140'"),
        (141, "line 142, column t: expected 141, got end of log before T=141")])
    def test_round_count_checked_against_T(self, T, message):
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 0)
        with pytest.raises(DomainError, match=f"^audit log {message}$"):
            log.check_against(dataclasses.replace(sc, T=T))

    # rows 50 and 9 are rounds 51 (after the warm start) and 10 (in it)
    @pytest.mark.parametrize("column, row, value", [
        ("propensity", 50, 0.5), ("epsilon", 50, 0.3),
        ("propensity", 9, 0.4), ("epsilon", 9, 0.25)])
    def test_edit_refused_at_its_cell(self, column, row, value):
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 0)
        getattr(log, column)[row] = value
        with pytest.raises(DomainError, match=rf"^audit log line {row + 2}, "
                                              rf"column {column}: expected .+, got '{value}'$"):
            log.check_against(sc)

    def test_greedy_arm_edit_refused_at_its_propensity(self):
        """The greedy arm is not itself checked, but an edit moves the
        rule's propensity of the round's pulled arm."""
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 0)
        log.greedy[50] = 1 - log.greedy[50]
        with pytest.raises(DomainError, match="^audit log line 52, column propensity: "):
            log.check_against(sc)

    # a warm-start arm is the round-robin's whatever the propensity says:
    # round 11 is arm 0's turn, and relabelling it moved infer's direction
    @pytest.mark.parametrize("field, column", [("greedy", "greedy_arm"),
                                               ("arm", "pulled_arm")])
    def test_warm_start_arm_edit_refused(self, field, column):
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 0)
        getattr(log, field)[10] = 1
        with pytest.raises(DomainError, match=f"^audit log line 12, column "
                                              f"{column}: expected 0, got '1'$"):
            log.check_against(sc)

    def test_snapshot_reads_no_logged_propensity(self):
        """The propensity column is an audit copy: overwriting it leaves
        every snapshot value as it was."""
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 0)
        want = [inference_snapshot(log, 139, arm, sc) for arm in (0, 1)]
        log.propensity[:] = np.nan
        for arm, snap in enumerate(want):
            got = inference_snapshot(log, 139, arm, sc)
            assert np.array_equal(got.estimate.beta_hat, snap.estimate.beta_hat)
            assert got.report.ellipsoid_radius2 == snap.report.ellipsoid_radius2
            assert got.r_tilde == snap.r_tilde
            assert np.array_equal(got.covariance.model.support_w,
                                  snap.covariance.model.support_w)


class TestRunReplication:
    def test_deterministic_records(self, tiny_records):
        sc, records = tiny_records
        again = run_replication(sc, 2)
        assert_same_record(again, records[2])

    def test_noiseless_linear_link_always_covered(self):
        """sigma=0, linear links, no ridge: ellipsoid contains the truth."""
        sc = Scenario(**{**TINY, "sigma": 0.0, "lambda_beta": 0.0})
        betas = sc.scenario_betas()
        from ksib.environment import SyntheticEnv
        from ksib import harness as hz

        orig = hz.SyntheticEnv

        class LinearEnv(orig):
            def __init__(self, b, sigma, rng, links=None, link_params=None):
                links = (lambda z: 0.5 + 0.1 * z, lambda z: 0.5 - 0.1 * z)
                super().__init__(b, sigma, rng, links=links)

        hz.SyntheticEnv = LinearEnv
        try:
            rec = run_replication(sc, 0)
        finally:
            hz.SyntheticEnv = orig
        assert rec.ok, rec.error
        assert all(row["covered"] for row in rec.param_rows)

    def test_snapshot_rejects_bad_times(self, tiny_records):
        sc, _ = tiny_records
        log, _, _, _ = run_trajectory(sc, 0)
        with pytest.raises(DomainError):
            inference_snapshot(log, sc.T0, 0, sc)
        with pytest.raises(DomainError):
            inference_snapshot(log, sc.T + 1, 0, sc)

    @pytest.mark.parametrize("arm", [2, -1])
    def test_snapshot_rejects_arm_out_of_range(self, tiny_records, arm):
        """Such an arm was reported as never pulled."""
        sc, records = tiny_records
        with pytest.raises(DomainError, match=rf"^arm {arm} outside 0\.\.1$"):
            inference_snapshot(records[0].log, 100, arm, sc)

    def test_record_keeps_its_trajectory_log(self, tiny_records):
        sc, records = tiny_records
        log, _, _, _ = run_trajectory(sc, 1)
        assert_same_record(records[1], dataclasses.replace(records[1], log=log))

    def test_failed_trajectory_leaves_no_log(self, monkeypatch):
        """A trajectory that raises a package error fails its record."""
        def failing_policy(*args):
            raise DomainError("one link per arm required")

        monkeypatch.setattr(harness, "run_policy", failing_policy)
        rec = run_replication(Scenario(**TINY), 0)
        assert not rec.ok and rec.log is None

    @pytest.mark.parametrize("scenario", [
        dict(d=2, sigma=0.05), dict(d=5, sigma=0.20, score="empirical")])
    def test_snapshot_link_fit_is_hinted_by_its_support(self, scenario):
        """Every snapshot warm-starts its link fit from ``support_hint`` of
        its own support, and lies within the two bounds of the cold fit."""
        sc = Scenario(T=400, T0=20, reps=1, seed=5,
                      inference_times=(60, 150, 250, 399), **scenario)
        log, _, _, _ = run_trajectory(sc, 0)
        for t in sc.inference_times:
            for arm in range(sc.n_arms):
                snap = inference_snapshot(log, t, arm, sc)
                hinted = snap.covariance.model
                u, y, w = hinted.support_u, hinted.support_y, hinted.support_w
                bandwidth = hinted.kernel.bandwidth
                hint = support_hint(u, w, bandwidth)
                assert hint.size <= HINT_CAP and np.array_equal(hint, np.unique(hint))
                assert 0 <= hint[0] and hint[-1] < u.size
                assert np.array_equal(support_hint(u, w, bandwidth), hint)
                again = fit(u, y, w, hinted.ridge, hinted.kernel, pivots=hint)
                assert np.array_equal(again.dual_coeffs, hinted.dual_coeffs)
                assert np.isin(hinted.pivots[0], hint)
                cold = fit(u, y, w, hinted.ridge, hinted.kernel)
                points = np.append(u, log.contexts[t] @ snap.direction)
                assert np.abs(hinted.predict(points) - cold.predict(points)).max() \
                    <= hinted.bound + cold.bound

    # from sigma ~1e153 the KSIEGE interval was (-inf, inf), and counted as
    # covered; past ~1.3e154 the index direction overflowed to [0, 0]
    @pytest.mark.parametrize("sigma, error", [
        (1e153, "DegeneracyError: non-finite KSIEGE interval"),
        (1e160, "DegeneracyError: degenerate index estimate")])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_noise_fails_every_replication(self, sigma, error):
        sc = Scenario(**{**TINY, "reps": 2, "sigma": sigma})
        records = run_scenario(sc)
        assert [r.error.startswith(error) for r in records] == [True, True]
        with pytest.raises(DomainError, match="no successful replications"):
            aggregate(records, sc)


class TestAggregate:
    def test_rates_and_se(self, tiny_records):
        sc, records = tiny_records
        table = aggregate(records, sc)
        row = next(r for r in table.coverage_rows
                   if r["kind"] == "param_joint" and r["t"] == 100)
        # jointly covered: both arms' ellipsoids cover at t=100
        flags = [int(all(pr["covered"] for pr in rec.param_rows
                         if pr["t"] == 100)) for rec in records]
        assert len(flags) == sc.reps
        assert row["rate"] == pytest.approx(np.mean(flags))
        assert row["se"] == pytest.approx(
            np.sqrt(row["rate"] * (1 - row["rate"]) / len(flags)))

    def test_alternating_flags_rate_half(self):
        sc = Scenario(**TINY)
        records = []
        for rep in range(100):
            rec = RunRecord(rep)
            for t in sc.inference_times:
                # arm 1 always covers, so the joint flag is arm 0's
                rec.param_rows.append({"t": t, "arm": 0, "covered": rep % 2})
                rec.param_rows.append({"t": t, "arm": 1, "covered": 1})
                rec.regret_rows.append({"t": t, "avg_regret": 0.0})
            records.append(rec)
        table = aggregate(records, sc)
        row = next(r for r in table.coverage_rows if r["kind"] == "param_joint")
        assert row["rate"] == pytest.approx(0.5)
        assert row["se"] == pytest.approx(0.05)
        assert table.coverage_rate("param", 60, arm=1) == 1.0

    def test_known_probability_coverage_rate(self):
        """Bernoulli(0.9) covered flags: harness rate lands within 3 SE."""
        sc = Scenario(**TINY)
        rng = Rng(123)
        n = 10_000
        records = []
        for rep in range(n):
            rec = RunRecord(rep)
            rec.param_rows.append({"t": 60, "arm": 0,
                                   "covered": int(rng.uniform() < 0.9)})
            rec.param_rows.append({"t": 60, "arm": 1, "covered": 1})
            rec.regret_rows.append({"t": 60, "avg_regret": 0.0})
            records.append(rec)
        table = aggregate(records, sc)
        row = next(r for r in table.coverage_rows
                   if r["kind"] == "param_joint" and r["t"] == 60)
        assert abs(row["rate"] - 0.9) <= 3 * np.sqrt(0.9 * 0.1 / n)

    # lengths.csv's se and regret.csv's lo/hi/n from hand-made records: the
    # standard error is std (ddof=1) over sqrt(n), and 0.0 for one record
    @pytest.mark.parametrize("values", [[0.25, 0.5, 1.5], [0.75]])
    def test_length_se_and_regret_band(self, values):
        sc = Scenario(**TINY)
        records = []
        for rep, v in enumerate(values):
            rec = RunRecord(rep)
            for t in sc.inference_times:
                rec.param_rows += [{"t": t, "arm": a, "covered": 1} for a in (0, 1)]
                rec.pointwise_rows.append({"t": t, "arm": 0, "method": "KSIEGE",
                                           "covered": 1, "length": v})
                rec.regret_rows.append({"t": t, "avg_regret": v})
            records.append(rec)
        table = aggregate(records, sc)
        mean = float(np.mean(values))
        se = (float(np.std(values, ddof=1) / np.sqrt(3)) if len(values) == 3
              else 0.0)
        half = normal_quantile(0.975) * se
        for t in sc.inference_times:
            # arm -1 pools both arms; arm 1 has no rows and so no length row
            assert [(r["arm"], r["mean_length"], r["se"], r["n"])
                    for r in table.length_rows if r["t"] == t] == [
                (-1, mean, se, len(values)), (0, mean, se, len(values))]
            [regret] = [r for r in table.regret_rows if r["t"] == t]
            assert (regret["mean_avg_regret"], regret["lo"], regret["hi"],
                    regret["n"]) == (mean, mean - half, mean + half, len(values))
        if len(values) == 1:
            assert table.regret_rows[0]["lo"] == table.regret_rows[0]["hi"] == mean

    def test_failed_reps_excluded_but_counted(self, tiny_records):
        sc, records = tiny_records
        broken = records + [RunRecord(99, ok=False, error="boom")]
        table = aggregate(broken, sc)
        assert table.diagnostics["failed"] == 1
        assert table.diagnostics["errors"] == ["boom"]
        row = next(r for r in table.coverage_rows if r["kind"] == "param_joint")
        assert row["n"] == sc.reps

    def test_all_failed_raises(self):
        sc = Scenario(**TINY)
        with pytest.raises(DomainError):
            aggregate([RunRecord(0, ok=False, error="x")], sc)


def dir_digest(path):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class TestExport:
    def test_byte_stable_and_parsable(self, tiny_records, tmp_path):
        sc, records = tiny_records
        table = aggregate(records, sc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        export(table, str(out_a))
        export(table, str(out_b))
        assert dir_digest(out_a) == dir_digest(out_b)
        with open(out_a / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["schema_version"] == 1
        assert summary["config"]["sigma"] == sc.sigma
        assert summary["config"]["T"] == sc.T
        for name, header in [
                ("coverage.csv", "scenario,d,sigma,arm,t,kind,rate,se,n"),
                ("lengths.csv", "scenario,arm,t,method,mean_length,se,n"),
                ("regret.csv", "scenario,t,mean_avg_regret,lo,hi,n")]:
            with open(out_a / name, encoding="utf-8") as fh:
                assert fh.readline().strip() == header

    def test_numpy_scalars_written_as_numbers(self, tmp_path):
        """A numpy scalar is written as the number, not as its repr."""
        path = tmp_path / "scalars.csv"
        write_csv(str(path), ["x", "k"], [{"x": np.float64(0.1), "k": np.int64(3)}])
        assert path.read_bytes() == b"x,k\n0.1,3\n"

    def test_empty_table_no_partial_files(self, tiny_records, tmp_path):
        sc, records = tiny_records
        table = aggregate(records, sc)
        table.coverage_rows = []
        out = tmp_path / "empty"
        with pytest.raises(DomainError):
            export(table, str(out))
        assert not out.exists()


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
# prints the OpenBLAS thread counts of this process and of each of two pool
# workers, read through the same symbols as perfbench's openblas_threads
BLAS_PROBE = """
import ctypes, json, os
from ksib import harness


def blas_threads(*_):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in
                        line.lower() and line.rstrip().endswith(".so")})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = get()
                break
    return counts


if __name__ == "__main__":
    harness.run_replication = blas_threads
    sc = harness.Scenario(T=150, T0=20, inference_times=(100, 149), reps=2)
    print(json.dumps([blas_threads(), harness.run_scenario(sc, threads=2)]))
"""


class TestParallel:
    def test_parallel_equals_serial(self, tmp_path):
        sc = Scenario(**{**TINY, "reps": 3})
        serial = run_scenario(sc, threads=1, logs=3)
        parallel = run_scenario(sc, threads=2, logs=3)
        for a, b in zip(serial, parallel):
            assert_same_record(a, b)
        out_a, out_b = tmp_path / "s", tmp_path / "p"
        export(aggregate(serial, sc), str(out_a))
        export(aggregate(parallel, sc), str(out_b))
        assert dir_digest(out_a) == dir_digest(out_b)

    def test_pool_workers_run_one_blas_thread(self, tmp_path):
        """A forked worker inherits its parent's OpenBLAS, one thread per core
        unless the environment says otherwise; the pool's initializer pins
        every OpenBLAS in each worker to one thread.  Run in a fresh process
        whose environment leaves the BLAS thread count unset."""
        probe = tmp_path / "probe.py"
        probe.write_text(BLAS_PROBE, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, str(probe)], env=env, timeout=300,
                             capture_output=True, text=True, check=True)
        parent, workers = json.loads(out.stdout.splitlines()[-1])
        if not parent:
            pytest.skip("no OpenBLAS in this numpy/scipy build")
        assert len(workers) == 2
        for counts in workers:
            assert set(counts) == set(parent)
            assert set(counts.values()) == {1}

    @pytest.mark.parametrize("flags, score", [
        (["--d", "2", "--sigma", "0.05"], "known"),
        (["--d", "5", "--sigma", "0.20"], "empirical")])
    def test_exports_equal_across_blas_threads(self, tmp_path, flags, score):
        """A study writes the same bytes whether BLAS runs one thread or
        two: snapshots call dpstrf and dtrsm, and the policy does too."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inference_times": [60, 100, 139],
                                      "score": score}))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        digests = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, env.get("PYTHONPATH")) if p))
            out = tmp_path / f"blas{threads}"
            subprocess.run([sys.executable, "-m", "ksib.cli", "simulate", *flags,
                            "--reps", "2", "--seed", "3", "--T", "140", "--T0", "20",
                            "--threads", "1", "--config", str(config), "--out", str(out)],
                           env=env, timeout=300, capture_output=True, check=True)
            digests.append(dir_digest(out))
        assert digests[0] == digests[1]

    def test_pool_without_openblas_says_so_once(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_openblas_setters", lambda: [])
        sc = Scenario(**{**TINY, "reps": 2})
        assert all(r.ok for r in run_scenario(sc, threads=2))
        assert capsys.readouterr().err.count("no OpenBLAS found") == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_keeps_only_the_logs_asked_for(self, threads):
        """A log costs T (8 d + 40) bytes; a study keeps only those it is
        asked for, and its workers send no other log back."""
        sc = Scenario(**{**TINY, "reps": 3})
        records = run_scenario(sc, threads=threads, logs=1)
        assert [r.log is not None for r in records] == [True, False, False]
        log, _, _, _ = run_trajectory(sc, 0)
        assert_same_record(records[0], dataclasses.replace(records[0], log=log))
        assert all(r.ok for r in records)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unrecorded_error_names_the_replication(self, threads, monkeypatch):
        """An error that is no KsibError or LinAlgError stops the study,
        naming the replication that raised it."""
        sc = Scenario(**{**TINY, "reps": 3})
        rep1_contexts = run_trajectory(sc, 1)[0].contexts

        def failing_cis(snapshot, x_next, scenario):
            if (rep1_contexts == x_next).all(axis=1).any():
                raise TypeError("bad operand")
            return np_cis_at(snapshot, x_next, scenario)

        monkeypatch.setattr(harness, "np_cis_at", failing_cis)
        with pytest.raises(RuntimeError,
                           match="^replication 1: TypeError: bad operand$") as info:
            run_scenario(sc, threads=threads)
        if threads == 1:
            assert isinstance(info.value.__cause__, TypeError)


class TestRegretTrend:
    def test_average_regret_nonincreasing_trend(self, tiny_records):
        sc, records = tiny_records
        ok = 0
        for rec in records:
            vals = [row["avg_regret"] for row in rec.regret_rows]
            ts = np.array(sc.inference_times, dtype=float)
            slope = np.polyfit(ts, vals, 1)[0]
            ok += slope <= 0
        assert ok >= len(records) - 1


class TestCalibratedRatio:
    def test_calibration_on_synthetic_rows(self):
        rows = []
        rng = np.random.default_rng(0)
        for rep in range(50):
            for t, base in ((200, 2.0), (999, 1.0)):
                err = abs(rng.normal()) * 0.05
                rows.append({"rep": rep, "arm": 0, "t": t, "method": "AS",
                             "u": 0.0, "center": err, "lo": 0.0, "hi": 0.0,
                             "truth": 0.0, "covered": 1, "length": 2 * base})
                rows.append({"rep": rep, "arm": 0, "t": t, "method": "KSIEGE",
                             "u": 0.0, "center": 0.0, "lo": -0.05, "hi": 0.05,
                             "truth": 0.0, "covered": 1, "length": 0.1})
        c_star, info = calibrated_band_ratio(rows, 200, 999)
        # the calibrated band covers everything at the calibration time
        assert info["coverage"][200] == 1.0
        assert info["ratio"] == pytest.approx(2 * c_star * 1.0 / 0.1)

    # a t_eval without rows of either method gave ratio nan and two
    # RuntimeWarnings
    @pytest.mark.parametrize("drop, message", [
        ("AS", "no AS rows at evaluation time 999"),
        ("KSIEGE", "no KSIEGE rows at evaluation time 999"),
        (None, "no AS rows at evaluation time 500")])
    def test_evaluation_time_without_rows_refused(self, drop, message):
        rows = [{"t": t, "method": method, "center": 0.0, "truth": 0.01,
                 "length": 0.1} for t in (200, 999) for method in ("AS", "KSIEGE")]
        rows = [r for r in rows if not (r["t"] == 999 and r["method"] == drop)]
        with pytest.raises(DomainError, match=message):
            calibrated_band_ratio(rows, 200, 999 if drop else 500)
