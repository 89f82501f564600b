"""Replication engine: aggregation math, exports, determinism, replay."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from ksib import harness
from ksib.errors import ConfigError, DomainError
from ksib.harness import (RunRecord, Scenario, TrajectoryLog, aggregate,
                          calibrated_band_ratio, export, inference_snapshot,
                          np_cis_at, run_replication, run_scenario,
                          run_trajectory, write_csv)
from ksib.numerics import Rng

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
            Scenario(sigma=-1.0).validate()
        with pytest.raises(ConfigError):
            Scenario(inference_times=(10, 999)).validate()
        with pytest.raises(ConfigError):
            Scenario(inference_times=(999, 200)).validate()
        with pytest.raises(ConfigError):
            Scenario(score="bogus").validate()

    @pytest.mark.parametrize("floor,cap", [(0.4, 0.35), (0.0, 0.35), (0.005, 1.0)])
    def test_validation_rejects_bad_epsilon(self, floor, cap):
        with pytest.raises(ConfigError, match="eps_floor"):
            Scenario(eps_floor=floor, eps_cap=cap).validate()

    def test_validation_rejects_single_arm(self):
        with pytest.raises(ConfigError, match="n_arms"):
            Scenario(n_arms=1).validate()

    @pytest.mark.parametrize("p_min", [0.0, -0.1, 1.5])
    def test_validation_rejects_bad_p_min(self, p_min):
        with pytest.raises(ConfigError, match="p_min"):
            Scenario(p_min=p_min).validate()

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
    def test_validation_rejects_wrong_type(self, field):
        annotation = {f.name: f.type for f in dataclasses.fields(Scenario)}[field]
        bad = [WRONG_TYPE[annotation]]
        if annotation == "float":
            bad += [float("nan"), float("inf"), -float("inf")]
        for value in bad:
            with pytest.raises(ConfigError, match=field):
                Scenario(**{field: value}).validate()

    # the middle six once passed and then failed every replication (no third
    # link; a DomainError from the index solve or the band) or, for
    # as_kappa, inverted every AS band silently; the next four ran an
    # exploration or ridge schedule that does not decay; the last four, alpha
    # and gamma outside (0,1), overflowed a power or gave NaN intervals that
    # "covered"; the link fit has one configuration, and its three fields
    # refuse any other value
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
                                     {"np_residual_mode": "raw"}])
    def test_validation_rejects_bools_floats_and_bad_times(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            Scenario(**bad).validate()

    def test_validation_accepts_numpy_scalars_and_int_floats(self):
        Scenario(d=np.int64(3), sigma=0, zeta=np.float64(0.05), lambda_beta=0,
                 inference_times=[200, np.int64(999)]).validate()

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

    def test_arm_propensities_reconstruction(self):
        sc = Scenario(**TINY)
        log, _, _, _ = run_trajectory(sc, 1)
        for arm in (0, 1):
            props = log.arm_propensities(arm, sc.T, sc.T0, 2)
            pulled = log.arm == arm
            np.testing.assert_allclose(props[pulled], log.propensity[pulled])
            np.testing.assert_allclose(props[:sc.T0], 0.5)


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

    def test_failed_trajectory_leaves_no_log(self):
        """An invalid scenario fails inside the trajectory itself."""
        rec = run_replication(Scenario(**{**TINY, "n_arms": 3}), 0)
        assert not rec.ok and rec.log is None


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
        header = open(out_a / "coverage.csv", encoding="utf-8").readline()
        assert header.strip() == "scenario,d,sigma,arm,t,kind,rate,se,n"
        header = open(out_a / "lengths.csv", encoding="utf-8").readline()
        assert header.strip() == "scenario,arm,t,method,mean_length,se,n"
        header = open(out_a / "regret.csv", encoding="utf-8").readline()
        assert header.strip() == "scenario,t,mean_avg_regret,lo,hi,n"

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
