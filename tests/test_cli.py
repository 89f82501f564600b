"""Command-line surface: determinism, validation, offline replay."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from ksib import cli
from ksib.cli import REALDATA_INFERENCE_TIMES, main, read_audit
from ksib.errors import ConfigError, DegeneracyError, DomainError

SIM_ARGS = ["simulate", "--d", "2", "--sigma", "0.05", "--reps", "3",
            "--seed", "7", "--T", "140", "--T0", "20"]


def patch_times(config_path):
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"inference_times": [60, 100, 139]}, fh)
    return str(config_path)


def dir_digest(path):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith((".csv", ".json")):
            digest.update(name.encode())
            with open(os.path.join(path, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = patch_times(tmp / "cfg.json")
    out = tmp / "out"
    code = main(SIM_ARGS + ["--config", cfg, "--out", str(out),
                            "--audit-reps", "1"])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_out):
        for name in ("coverage.csv", "lengths.csv", "regret.csv",
                     "marginals.csv", "pointwise.csv", "summary.json",
                     "rounds_rep0.csv", "rounds_rep0.json"):
            assert (sim_out / name).exists()

    def test_rerun_identical_hashes(self, sim_out, tmp_path):
        cfg = patch_times(tmp_path / "cfg.json")
        out2 = tmp_path / "out2"
        assert main(SIM_ARGS + ["--config", cfg, "--out", str(out2),
                                "--audit-reps", "1"]) == 0
        assert dir_digest(sim_out) == dir_digest(out2)

    def test_negative_sigma_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--sigma", "-1", "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code != 0
        assert "sigma" in capsys.readouterr().err

    # Rng keeps a seed's low 64 bits: 2**64 ran seed 0's study while
    # summary.json recorded the larger seed, and -1 ran seed 2**64 - 1's
    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, seed):
        code = main(["simulate", "--seed", seed, "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: seed must be in 0..2**64 - 1, got {seed}\n")
        assert not (tmp_path / "x").exists()

    # a config that is not UTF-8 ended in a UnicodeDecodeError traceback
    def test_undecodable_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe{}")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sigma": 0.05, "sigmma": 0.1}))
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code != 0
        assert "sigmma" in capsys.readouterr().err

    # a thread count below 1 or not an integer is refused, naming the flag
    # or the environment variable it came from, before any replication runs
    @pytest.mark.parametrize("flags, env, message", [
        (["--threads", "-3"], None, "--threads must be an integer >= 1, got -3"),
        (["--threads", "0"], None, "--threads must be an integer >= 1, got 0"),
        ([], "abc", "KSIB_THREADS must be an integer >= 1, got 'abc'"),
        ([], "0", "KSIB_THREADS must be an integer >= 1, got '0'"),
    ])
    def test_bad_thread_count_rejected(self, tmp_path, capsys, monkeypatch,
                                       flags, env, message):
        if env is None:
            monkeypatch.delenv("KSIB_THREADS", raising=False)
        else:
            monkeypatch.setenv("KSIB_THREADS", env)
        out = tmp_path / "x"
        assert main(SIM_ARGS + flags + ["--config", patch_times(tmp_path / "c.json"),
                                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config,field", [
        ({"d": "2"}, "d"), ({"gamma": "x"}, "gamma"),
        ({"inference_times": 5}, "inference_times")])
    def test_wrongly_typed_config_rejected(self, tmp_path, capsys, config,
                                           field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_of_range_gamma_rejected(self, tmp_path, capsys):
        """gamma=200 used to end in an OverflowError traceback; gamma is now
        a fixed label."""
        cfg = tmp_path / "gamma.json"
        cfg.write_text(json.dumps({"T": 300, "T0": 20, "reps": 1,
                                   "inference_times": [100, 299], "gamma": 200}))
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == "error: gamma must be 0.5\n"
        assert not (tmp_path / "x").exists()

    # alpha and gamma cancel in every reported number and as_kappa is the
    # Gaussian kernel's bound, so each is a fixed label: a config file that
    # sets another value is refused, and simulate has no flag for either
    @pytest.mark.parametrize("field, value, only", [
        ("alpha", 0.3, "0.5"), ("gamma", 0.3, "0.5"), ("as_kappa", 2.0, "1.0")])
    def test_fixed_label_in_config_refused(self, tmp_path, capsys, field, value,
                                           only):
        cfg = tmp_path / "fixed.json"
        cfg.write_text(json.dumps({field: value}))
        code = main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {field} must be {only}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
    def test_fixed_label_flags_gone(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, "0.5", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_other_link_configuration_rejected(self, tmp_path, capsys):
        """The link fit has one configuration; a config asking for another
        is refused before anything is written."""
        cfg = tmp_path / "pulls.json"
        cfg.write_text(json.dumps({"ridge_time": "pulls"}))
        code = main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == "error: ridge_time must be 'rounds'\n"
        assert not (tmp_path / "x").exists()

    def test_empty_inference_grid_rejected(self, tmp_path, capsys,
                                           monkeypatch):
        def no_study(*args, **kwargs):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr("ksib.cli.run_scenario", no_study)
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"inference_times": [], "reps": 1,
                                   "T": 140, "T0": 20}))
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: inference_times must" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_audit_reps_rejected(self, tmp_path, capsys, monkeypatch):
        """A negative count used to run the study and write no log."""
        def no_study(*args, **kwargs):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr("ksib.cli.run_scenario", no_study)
        out = tmp_path / "x"
        assert main(SIM_ARGS + ["--config", patch_times(tmp_path / "c.json"),
                                "--audit-reps", "-2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --audit-reps must be >= 0, got -2\n"
        assert not out.exists()

    def test_audit_reps_above_reps_rejected(self, tmp_path, capsys, monkeypatch):
        """A count above --reps used to be clipped to it silently."""
        def no_study(*args, **kwargs):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr("ksib.cli.run_scenario", no_study)
        out = tmp_path / "x"
        assert main(SIM_ARGS + ["--config", patch_times(tmp_path / "c.json"),
                                "--audit-reps", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --audit-reps must be <= reps (3), got 4\n")
        assert not out.exists()

    def test_audit_logs_are_the_study_trajectories(self, sim_out, tmp_path,
                                                   monkeypatch):
        """Each audited trajectory runs once, for the study itself."""
        from ksib import harness
        reps, real = [], harness.run_trajectory

        def counted(scenario, rep):
            reps.append(rep)
            return real(scenario, rep)

        monkeypatch.setattr(harness, "run_trajectory", counted)
        out = tmp_path / "out"
        assert main(SIM_ARGS + ["--config", patch_times(tmp_path / "c.json"),
                                "--out", str(out), "--audit-reps", "3",
                                "--threads", "1"]) == 0
        assert reps == [0, 1, 2]
        assert sorted(p.name for p in out.glob("rounds_*")) == [
            f"rounds_rep{r}.{ext}" for r in range(3) for ext in ("csv", "json")]
        for name in ("rounds_rep0.csv", "rounds_rep0.json"):
            assert (out / name).read_bytes() == (sim_out / name).read_bytes()

    def test_config_beside_log_reruns_the_study(self, sim_out, tmp_path):
        """The file beside each log is the resolved config as a plain
        --config object: summary.json's, and a rerun from it alone writes
        the same bytes."""
        config = json.loads((sim_out / "rounds_rep0.json").read_text())
        assert config == json.loads((sim_out / "summary.json").read_text())["config"]
        out = tmp_path / "rerun"
        assert main(["simulate", "--config", str(sim_out / "rounds_rep0.json"),
                     "--out", str(out), "--audit-reps", "1"]) == 0
        assert dir_digest(out) == dir_digest(sim_out)

    def test_every_file_ends_lines_in_lf(self, sim_out, tmp_path):
        """Exports, audit logs and configs end every line in LF; a log read
        back from a CRLF copy is the same log."""
        for path in sim_out.iterdir():
            assert b"\r" not in path.read_bytes(), path.name
        crlf = tmp_path / "rounds.csv"
        lf_bytes = (sim_out / "rounds_rep0.csv").read_bytes()
        crlf.write_bytes(lf_bytes.replace(b"\n", b"\r\n"))
        lf, got = read_audit(str(sim_out / "rounds_rep0.csv")), read_audit(str(crlf))
        for f in dataclasses.fields(lf):
            a, b = getattr(got, f.name), getattr(lf, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name

    def test_summary_echoes_resolved_config(self, sim_out):
        summary = json.loads((sim_out / "summary.json").read_text())
        assert summary["config"]["T"] == 140
        assert summary["config"]["seed"] == 7
        assert summary["config"]["inference_times"] == [60, 100, 139]


class TestInferReplay:
    def read_rows(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_reproduces_harness_values(self, sim_out, capsys):
        """Every inference quantity recomputes from the audit log alone."""
        log_path = str(sim_out / "rounds_rep0.csv")
        marginals = [r for r in self.read_rows(sim_out / "marginals.csv")
                     if r["rep"] == "0"]
        pointwise = [r for r in self.read_rows(sim_out / "pointwise.csv")
                     if r["rep"] == "0"]
        for t in (60, 139):
            for arm in (0, 1):
                code = main(["infer", "--log", log_path, "--arm", str(arm),
                             "--t", str(t)])
                assert code == 0
                out = json.loads(capsys.readouterr().out)
                rows = [r for r in marginals
                        if r["arm"] == str(arm) and r["t"] == str(t)]
                assert len(rows) == 2
                for r in rows:
                    j = int(r["coord"])
                    center = out["direction"][j]
                    half = out["marginal_half_widths"][j]
                    assert [float(r[k]) for k in ("center", "lo", "hi")] == [
                        center, center - half, center + half]
                prows = [r for r in pointwise
                         if r["arm"] == str(arm) and r["t"] == str(t)]
                assert len(prows) == 2
                for r in prows:
                    got = out["pointwise"][r["method"]]
                    for k in ("u", "center", "lo", "hi"):
                        assert float(r[k]) == got[k]

    def test_gram_diagnostic_equals_the_run(self, tmp_path, capsys):
        """At the last grid time, infer's gram_lambda_min is the 1-rep
        study's gram_diagnostic_mean for each arm."""
        out = tmp_path / "one"
        assert main(SIM_ARGS + ["--config", patch_times(tmp_path / "c.json"),
                                "--reps", "1", "--audit-reps", "1",
                                "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for arm in ("0", "1"):
            capsys.readouterr()
            assert main(["infer", "--log", str(out / "rounds_rep0.csv"),
                         "--arm", arm, "--t", "139"]) == 0
            got = json.loads(capsys.readouterr().out)["gram_lambda_min"]
            assert got == summary["diagnostics"]["gram_diagnostic_mean"][arm]

    def test_t_before_warm_start_errors(self, sim_out, capsys):
        code = main(["infer", "--log", str(sim_out / "rounds_rep0.csv"),
                     "--arm", "0", "--t", "10"])
        assert code != 0
        assert capsys.readouterr().err == (
            f"error: --t must be after the warm start T0=20 of "
            f"{sim_out / 'rounds_rep0.json'}, got 10\n")

    # such an arm was reported as never pulled
    @pytest.mark.parametrize("arm", ["2", "-1"])
    def test_arm_out_of_range_refused(self, sim_out, capsys, arm):
        assert main(["infer", "--log", str(sim_out / "rounds_rep0.csv"),
                     "--arm", arm, "--t", "100"]) == 1
        assert capsys.readouterr().err == f"error: arm {arm} outside 0..1\n"

    def test_log_without_config_refused(self, sim_out, tmp_path, capsys):
        """No defaults stand in for the run's config."""
        log = tmp_path / "lone.csv"
        shutil.copy(sim_out / "rounds_rep0.csv", log)
        assert main(["infer", "--log", str(log), "--arm", "0", "--t", "60"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: no config file {tmp_path / 'lone.json'} "
                                "beside the log; write the run's --config JSON there\n")
        assert captured.out == ""

    def test_config_of_other_dimension_refused(self, sim_out, tmp_path, capsys):
        log = tmp_path / "rounds.csv"
        shutil.copy(sim_out / "rounds_rep0.csv", log)
        (tmp_path / "rounds.json").write_text(json.dumps({"d": 3}))
        assert main(["infer", "--log", str(log), "--arm", "0", "--t", "60"]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'rounds.json'}: d=3, log has 2 context columns\n")

    # a non-number used to end in a ValueError traceback and a nan printed
    # NaN centres, which is not JSON; a negative T0 went unchecked. T0 now
    # comes from the config beside the log, so a ["--log", edits] case
    # points --log at a copy whose config is the run's with `edits` applied
    @pytest.mark.parametrize("flags, message", [
        (["--context", "1,abc"], "--context"),
        (["--context", "1,nan"], "--context must be finite"),
        (["--log", {"T0": -5}], "need 0 < T0 < T"),
        (["--context", ""], "--context"),   # was read as no --context
        (["--log", {"alpha": 0.3}], "alpha must be 0.5")])
    def test_bad_input_refused(self, sim_out, tmp_path, capsys, flags, message):
        log = sim_out / "rounds_rep0.csv"
        if flags[0] == "--log":
            config = json.loads((sim_out / "rounds_rep0.json").read_text())
            (tmp_path / "rounds.json").write_text(json.dumps({**config, **flags[1]}))
            log, flags = tmp_path / "rounds.csv", []
            shutil.copy(sim_out / "rounds_rep0.csv", log)
        assert main(["infer", "--log", str(log),
                     "--arm", "0", "--t", "60"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    # sha256 of sim_out's log and config, and of two infer outputs on them,
    # as the code wrote and printed them while alpha, gamma and as_kappa
    # were settable: the config that holds them still loads, and infer
    # prints the same bytes.  The infer digests were re-pinned when
    # snapshot link fits began to warm-start from their own support
    # (aa024c7f..., 46ebbbce... before): only the "pointwise" fields moved,
    # by at most 1.2e-14 (1.1e-13 relative)
    def test_log_and_config_of_settable_labels_give_same_output(self, sim_out,
                                                                capsys):
        sha = lambda data: hashlib.sha256(data).hexdigest()
        assert [sha((sim_out / name).read_bytes())
                for name in ("rounds_rep0.csv", "rounds_rep0.json")] == [
            "23b3889dafa48549f2228b449fcd930c5737df91310cc6c78992c649cfe7d44a",
            "4ade5b8ea01e194e5e39fcff1953a69737f3137e2b2666a8914330981885f94f"]
        for flags, digest in [
                (["--arm", "0", "--t", "100"],
                 "2b68a1c49b3b6cfdb3b1a0e2420312beb1c81a99e8b853e2b38ef1a1cb03b855"),
                (["--arm", "1", "--t", "139", "--context", "0.3,-1.2"],
                 "4e6338b9f255d4ccec06b8e06ed38e8717fcb1d2283c38c4fe65fb2dce1e9488")]:
            assert main(["infer", "--log", str(sim_out / "rounds_rep0.csv")]
                        + flags) == 0
            assert sha(capsys.readouterr().out.encode()) == digest

    def test_empty_log_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["infer", "--log", str(empty), "--arm", "0",
                     "--t", "60"]) != 0
        capsys.readouterr()

    def test_schema_mismatch_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x0,greedy_arm\n1,0.0,0\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) != 0
        err = capsys.readouterr().err
        assert "pulled_arm" in err

    HEADER = "t,x0,greedy_arm,pulled_arm,propensity,reward,epsilon\n"
    GOOD_ROW = "1,0.5,0,0,0.5,1.0,0.5\n"

    # a log that is not UTF-8 ended in a UnicodeDecodeError traceback
    def test_undecodable_log_refused(self, tmp_path, capsys):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + (self.HEADER + self.GOOD_ROW).encode("utf-16-le"))
        assert main(["infer", "--log", str(bad), "--arm", "0", "--t", "60"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
        with pytest.raises(ConfigError):
            read_audit(str(bad))

    def test_non_numeric_cell_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.HEADER + self.GOOD_ROW + "2,abc,0,1,0.5,0.0,0.5\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: audit log line 3:")
        assert "abc" in err

    # a non-finite cell used to surface far from its cause: a nan context
    # as "A is not symmetric", a nan or inf reward as a nan bandwidth, a
    # nan epsilon as a non-positive r_tilde
    @pytest.mark.parametrize("row, column, cell", [
        ("2,nan,0,1,0.5,0.0,0.5", "x0", "nan"),
        ("2,0.1,0,1,0.5,nan,0.5", "reward", "nan"),
        ("2,0.1,0,1,0.5,-inf,0.5", "reward", "-inf"),
        ("2,0.1,0,1,0.5,0.0,nan", "epsilon", "nan"),
    ])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, capsys,
                                                   row, column, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.HEADER + self.GOOD_ROW + row + "\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: audit log line 3, column {column}: "
                              f"non-finite value '{cell}'")

    def test_short_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.HEADER + self.GOOD_ROW + "2,0.1,0,1\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: audit log line 3: 4 cells, expected 7")

    # the arm columns hold integers, so '1.5' and '1.0' are refused there,
    # and one past 64 bits ended in an OverflowError traceback; a blank
    # line is a row of 0 cells
    @pytest.mark.parametrize("row, message", [
        ("2,0.1,0,1.5,0.5,0.0,0.5", "line 3: invalid literal for int() with base 10: '1.5'"),
        ("2,0.1,1.0,1,0.5,0.0,0.5", "line 3: invalid literal for int() with base 10: '1.0'"),
        ("\n2,0.1,0,1,0.5,0.0,0.5", "line 3: 0 cells, expected 7"),
        ("2,0.1,0," + "9" * 20 + ",0.5,0.0,0.5", "line 3: Python int too large")])
    def test_non_integer_arm_and_blank_line_refused(self, tmp_path, capsys,
                                                    row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.HEADER + self.GOOD_ROW + row + "\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) == 1
        assert capsys.readouterr().err.startswith(f"error: audit log {message}")

    # an arm outside 0..1 would replay as a round in which neither arm was
    # pulled (or greedy) and shift the estimate without any error
    @pytest.mark.parametrize("row, column, cell", [
        ("2,0.1,2,1,0.5,0.0,0.5", "greedy_arm", "2"),
        ("2,0.1,0,7,0.5,0.0,0.5", "pulled_arm", "7"),
        ("2,0.1,0,-1,0.5,0.0,0.5", "pulled_arm", "-1"),
    ])
    def test_out_of_range_arm_names_line_and_column(self, tmp_path, capsys,
                                                    row, column, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.HEADER + self.GOOD_ROW + row + "\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: audit log line 3, column {column}: "
                              f"arm outside 0..1, got '{cell}'")

    # a propensity outside (0, 1] or an epsilon outside (0, 1) used to end in
    # an error about propensities that named neither line nor column
    @pytest.mark.parametrize("row, column, message", [
        ("2,0.1,0,1,0,0.0,0.5", "propensity", "propensity outside (0, 1], got '0'"),
        ("2,0.1,0,1,3.5,0.0,0.5", "propensity", "propensity outside (0, 1], got '3.5'"),
        ("2,0.1,0,1,-0.5,0.0,0.5", "propensity", "propensity outside (0, 1], got '-0.5'"),
        ("2,0.1,0,1,0.5,0.0,7", "epsilon", "epsilon outside (0, 1), got '7'"),
        ("2,0.1,0,1,0.5,0.0,-0.2", "epsilon", "epsilon outside (0, 1), got '-0.2'"),
        ("2,0.1,0,1,0.5,0.0,1", "epsilon", "epsilon outside (0, 1), got '1'"),
        ("2,0.1,0,1,0.5,0.0,0.0", "epsilon", "epsilon outside (0, 1), got '0.0'"),
    ])
    def test_out_of_range_probability_names_line_and_column(
            self, tmp_path, capsys, row, column, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.HEADER + self.GOOD_ROW + row + "\n")
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "60"]) == 1
        assert capsys.readouterr().err == (
            f"error: audit log line 3, column {column}: {message}\n")

    def test_probability_bounds_accepted(self, tmp_path):
        """A propensity of exactly 1 is a valid cell."""
        log = tmp_path / "log.csv"
        log.write_text(self.HEADER + self.GOOD_ROW + "2,0.1,1,1,1.0,0.0,0.5\n")
        assert read_audit(str(log)).propensity.tolist() == [0.5, 1.0]

    def test_edited_study_log_names_first_bad_cell(self, sim_out, tmp_path,
                                                   capsys):
        """Propensity and epsilon edits on a study log are refused at the
        first edited line, whichever column comes first there."""
        with open(sim_out / "rounds_rep0.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        p_col, e_col = rows[0].index("propensity"), rows[0].index("epsilon")
        rows[41][p_col] = "3.5"
        for i in range(41, 51):
            rows[i][e_col] = "7"
        bad = tmp_path / "edited.csv"
        with open(bad, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "100"]) == 1
        assert capsys.readouterr().err == (
            "error: audit log line 42, column propensity: "
            "propensity outside (0, 1], got '3.5'\n")

    def test_relabelled_pulls_refused(self, sim_out, tmp_path, capsys):
        """A study log with some of arm 1's pulls relabelled as arm 7 is
        refused at the first relabelled line."""
        with open(sim_out / "rounds_rep0.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("pulled_arm")
        lines = [i for i, r in enumerate(rows) if i and r[col] == "1"][5:15]
        for i in lines:
            rows[i][col] = "7"
        bad = tmp_path / "relabelled.csv"
        with open(bad, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["infer", "--log", str(bad), "--arm", "1",
                     "--t", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: audit log line {lines[0] + 1}, "
                              "column pulled_arm: arm outside 0..1, got '7'")

    # rows were replayed in file order: with rounds 30-39 deleted, or
    # rounds 60-120 reversed, infer ran and its r_tilde or direction moved
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:30] + rows[40:],
         "line 31, column t: expected 30, got '40'"),
        (lambda rows: rows[:60] + rows[60:121][::-1] + rows[121:],
         "line 61, column t: expected 60, got '120'")], ids=["gap", "reordered"])
    def test_rounds_out_of_order_refused(self, sim_out, tmp_path, capsys,
                                         edit, message):
        with open(sim_out / "rounds_rep0.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        bad = tmp_path / "rounds.csv"
        with open(bad, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(edit(rows))
        assert main(["infer", "--log", str(bad), "--arm", "0",
                     "--t", "100"]) == 1
        assert capsys.readouterr().err == f"error: audit log {message}\n"

    # an easy T=300 log (seed 4, grid (150, 299)) with one of these edits
    # gave exit 0 and a different direction and KSIEGE centre, since the
    # weights read the propensity column and r_tilde the rule
    @pytest.mark.parametrize("line, column, cell, expected", [
        (184, "propensity", "0.5", "0.01866856013935611"),
        (251, "epsilon", "0.3", "0.016478408149591763")])
    def test_log_that_disagrees_with_its_rule_refused(
            self, tmp_path, capsys, line, column, cell, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inference_times": [150, 299]}))
        run = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--T", "300", "--seed",
                     "4", "--reps", "1", "--audit-reps", "1", "--threads", "1",
                     "--out", str(run)]) == 0
        with open(run / "rounds_rep0.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[line - 1][rows[0].index(column)] == expected
        rows[line - 1][rows[0].index(column)] = cell
        with open(run / "rounds_rep0.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(["infer", "--log", str(run / "rounds_rep0.csv"), "--arm", "0",
                     "--t", "299"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: audit log line {line}, column {column}: "
                                f"expected {expected}, got '{cell}'\n")
        assert captured.out == ""

    def test_log_longer_than_its_run_refused(self, sim_out, tmp_path, capsys):
        """A round past the config's T is refused before any snapshot."""
        with open(sim_out / "rounds_rep0.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows.append(["141"] + rows[-1][1:])
        log = tmp_path / "rounds.csv"
        with open(log, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        shutil.copy(sim_out / "rounds_rep0.json", tmp_path / "rounds.json")
        assert main(["infer", "--log", str(log), "--arm", "0", "--t", "100"]) == 1
        assert capsys.readouterr().err == (
            "error: audit log line 142, column t: expected end of log at T=140, "
            "got '141'\n")

    def test_columnwise_parse_equals_row_by_row(self, sim_out, tmp_path):
        """The log is parsed a column at a time by the float() and int() of
        each cell, bit for bit as a row-by-row parse, here with quoted cells,
        CRLF row ends, blanks, signs and underscores."""
        with open(sim_out / "rounds_rep0.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        # '0_1' is arm 1: an arm outside 0..1 is refused, and so is a
        # propensity outside (0, 1], so the signed zero is a reward
        rows[1][1:7] = [" 0.5 ", "+1", "1", "0_1", "+0.5", "-0.0"]
        log = tmp_path / "log.csv"
        log.write_text("\r\n".join(",".join(f'"{c}"' for c in row)
                                    for row in rows), newline="")
        got = read_audit(str(log))
        want = [[float(v) for v in row[1:3]] for row in rows[1:]], \
            [int(row[3]) for row in rows[1:]], [int(row[4]) for row in rows[1:]], \
            *([float(row[j]) for row in rows[1:]] for j in (5, 6, 7))
        for field, values in zip(("contexts", "greedy", "arm", "propensity",
                                  "reward", "epsilon"), want):
            a = getattr(got, field)
            assert a.tobytes() == np.array(values, dtype=a.dtype).tobytes()
            assert a.flags.c_contiguous and a.dtype == (int if field in (
                "greedy", "arm") else float)


def two_cluster_csv(path, n=900, seed=0):
    """Separable single-index fixture: label = sign of a projection."""
    rng = np.random.default_rng(seed)
    beta = np.array([0.8, 0.5, -0.33])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("f0,f1,f2,label\n")
        for _ in range(n):
            x = rng.normal(size=3)
            label = int(x @ beta + 0.15 * rng.normal() > 0)
            fh.write(f"{x[0]:.8f},{x[1]:.8f},{x[2]:.8f},{label}\n")
    return str(path)


class TestRealdata:
    def test_learns_to_best_fixed_arm(self, tmp_path, capsys):
        csv_path = two_cluster_csv(tmp_path / "clusters.csv")
        out = tmp_path / "rd"
        code = main(["realdata", "--csv", csv_path, "--label-col", "label",
                     "--perms", "2", "--seed", "3", "--T", "400",
                     "--T0", "20", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        summary = json.loads((out / "realdata_summary.json").read_text())
        assert len(summary["rows"]) == 2
        perms = set()
        for row in summary["rows"]:
            assert row["accuracy"] > row["best_fixed_arm_accuracy"] - 0.05
            perms.add(row["accuracy"])
        assert (out / "realdata_marginals.csv").exists()

    def test_skipped_snapshots_counted_by_error_class(self, tmp_path, capsys,
                                                      monkeypatch):
        """A snapshot that raises is left out of the marginals, counted in
        the summary by its error class, and reported once on stderr."""
        real = cli.inference_snapshot

        def snapshot(log, t, arm, scenario):
            if arm == 1:
                raise DegeneracyError(f"arm {arm} fails at t={t}")
            if t == 200:
                raise DomainError(f"t={t} fails")
            return real(log, t, arm, scenario)

        monkeypatch.setattr(cli, "inference_snapshot", snapshot)
        csv_path = two_cluster_csv(tmp_path / "clusters.csv")
        out = tmp_path / "rd"
        assert main(["realdata", "--csv", csv_path, "--label-col", "label",
                     "--perms", "2", "--seed", "3", "--T", "400",
                     "--T0", "20", "--out", str(out)]) == 0
        times = [t for t in REALDATA_INFERENCE_TIMES if 20 < t <= 400]
        assert 200 in times and len(times) > 1
        summary = json.loads((out / "realdata_summary.json").read_text())
        assert summary["skipped_snapshots"] == {
            "DegeneracyError": 2 * len(times), "DomainError": 2}
        err = capsys.readouterr().err
        assert err.count("skipped") == 1
        assert (f"realdata: skipped snapshots that raised "
                f"DegeneracyError x{2 * len(times)}, DomainError x2\n") in err
        with open(out / "realdata_marginals.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {row["arm"] for row in rows} == {"0"}
        assert "200" not in {row["t"] for row in rows}

    def test_no_skipped_snapshot_no_message(self, tmp_path, capsys):
        csv_path = two_cluster_csv(tmp_path / "clusters.csv")
        out = tmp_path / "rd"
        assert main(["realdata", "--csv", csv_path, "--label-col", "label",
                     "--perms", "1", "--seed", "3", "--T", "400",
                     "--T0", "20", "--out", str(out)]) == 0
        summary = json.loads((out / "realdata_summary.json").read_text())
        assert summary["skipped_snapshots"] == {}
        assert "skipped" not in capsys.readouterr().err

    def test_distinct_permutations(self, tmp_path, capsys):
        csv_path = two_cluster_csv(tmp_path / "clusters.csv", seed=1)
        out = tmp_path / "rd2"
        code = main(["realdata", "--csv", csv_path, "--label-col", "label",
                     "--perms", "2", "--seed", "5", "--T", "120", "--T0", "20",
                     "--out", str(out), "--audit"])
        assert code == 0
        capsys.readouterr()
        a = (out / "rounds_perm0.csv").read_text()
        b = (out / "rounds_perm1.csv").read_text()
        assert a != b

    @pytest.mark.parametrize("flags,message", [
        (["--perms", "0"], "--perms must be >= 1"),
        (["--T", "0"], "need 0 < T0 < T"),
        (["--T0", "250", "--T", "240"], "need 0 < T0 < T"),
        ([], "--T must be at most the 300 rows of "),   # the default T=1000
        (["--T", "250", "--feature-cols", ""], "--feature-cols names no column")])
    def test_invalid_run_rejected(self, tmp_path, capsys, flags, message):
        csv_path = two_cluster_csv(tmp_path / "clusters.csv", n=300)
        out = tmp_path / "rd"
        code = main(["realdata", "--csv", csv_path, "--label-col", "label",
                     "--out", str(out)] + flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replay_reproduces_live_marginals(self, tmp_path, capsys):
        """``infer`` on a realdata audit log recomputes every marginal row
        exactly, with the T0 and score of the run read from its config."""
        csv_path = two_cluster_csv(tmp_path / "clusters.csv")
        out = tmp_path / "rd"
        assert main(["realdata", "--csv", csv_path, "--label-col", "label",
                     "--perms", "1", "--T", "400", "--T0", "20",
                     "--out", str(out), "--audit"]) == 0
        capsys.readouterr()
        with open(out / "realdata_marginals.csv", newline="",
                  encoding="utf-8") as fh:
            live = list(csv.DictReader(fh))
        checked = 0
        for t in (200, 300, 400):
            for arm in (0, 1):
                rows = [r for r in live
                        if r["t"] == str(t) and r["arm"] == str(arm)]
                assert main(["infer", "--log", str(out / "rounds_perm0.csv"),
                             "--arm", str(arm), "--t", str(t)]) == 0
                got = json.loads(capsys.readouterr().out)
                assert len(rows) == len(got["direction"]) == 3
                for r in rows:
                    j = int(r["coord"])
                    center = got["direction"][j]
                    half = got["marginal_half_widths"][j]
                    assert [float(r[k]) for k in ("center", "lo", "hi")] == [
                        center, center - half, center + half]
                    checked += 1
        assert checked == 18

    def test_missing_label_column(self, tmp_path, capsys):
        csv_path = two_cluster_csv(tmp_path / "clusters.csv", seed=2)
        code = main(["realdata", "--csv", csv_path, "--label-col", "nope",
                     "--perms", "1", "--out", str(tmp_path / "rd3")])
        assert code != 0
        capsys.readouterr()

    def test_label_as_feature_refused(self, tmp_path, capsys):
        path = tmp_path / "leak.csv"
        path.write_text("a,y\n1.0,0\n2.0,1\n", encoding="utf-8")
        code = main(["realdata", "--csv", str(path), "--label-col", "y",
                     "--feature-cols", "a,y", "--perms", "1",
                     "--out", str(tmp_path / "rd")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: label column 'y' is also in feature_columns\n")
        assert not (tmp_path / "rd").exists()

    def test_class_name_labels_refused_with_remedy(self, tmp_path, capsys):
        """Class names such as the Rice dataset's are refused with what the
        column must hold; the CLI has no label map."""
        path = tmp_path / "rice.csv"
        path.write_text("Area,Perimeter,Class\n15231,525.6,Cammeo\n"
                        "11434,404.7,Osmancik\n")
        code = main(["realdata", "--csv", str(path), "--label-col", "Class",
                     "--perms", "1", "--out", str(tmp_path / "rd")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: label 'Cammeo' is not numeric; "
                              "the label column must hold 0/1 labels")
        assert "label_map" in err
        assert not (tmp_path / "rd").exists()

    # an inf label ended in an OverflowError traceback, and a nan feature in
    # "nonfinite or mis-shaped observation rejected" with no line number
    @pytest.mark.parametrize("row, message", [
        ("11434,inf", "3: label 'inf' is not 0 or 1"),
        ("nan,1", "3: feature 'Area' is not finite")])
    def test_non_finite_cell_refused_with_line(self, tmp_path, capsys, row,
                                               message):
        path = tmp_path / "cells.csv"
        path.write_text(f"Area,Class\n15231,0\n{row}\n11434,1\n")
        code = main(["realdata", "--csv", str(path), "--label-col", "Class",
                     "--perms", "1", "--out", str(tmp_path / "rd")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}:{message}\n"
        assert not (tmp_path / "rd").exists()


class TestScenarioFlags:
    """Every command builds its Scenario one way, so one bad value gives one
    message whichever command it is passed to: as a flag, or for ``infer``
    in the config file beside the log."""

    @pytest.mark.parametrize("command", ["simulate", "realdata", "infer"])
    def test_negative_T0(self, sim_out, tmp_path, capsys, command):
        out = str(tmp_path / "x")
        if command == "infer":
            shutil.copy(sim_out / "rounds_rep0.csv", tmp_path / "rounds.csv")
            (tmp_path / "rounds.json").write_text(json.dumps({"T0": -5}))
            argv = ["infer", "--log", str(tmp_path / "rounds.csv"),
                    "--arm", "0", "--t", "60"]
        else:
            argv = [command, "--T0", "-5"] + {
                "simulate": ["--reps", "1", "--out", out],
                "realdata": ["--csv", two_cluster_csv(tmp_path / "c.csv", n=300),
                             "--label-col", "label", "--out", out]}[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need 0 < T0 < T\n"
        assert captured.out == ""
        assert not os.path.exists(out)


class TestInputFiles:
    """--csv, --log and --config are read one way: as UTF-8 with or without
    a byte-order mark, and an unreadable file is named in one message."""

    BOM = b"\xef\xbb\xbf"

    # a marked log lost its "t" column to the mark, and a marked config
    # ended in "Unexpected UTF-8 BOM"
    def test_marked_log_and_config_give_same_output(self, sim_out, tmp_path,
                                                    capsys):
        for ext in ("csv", "json"):
            (tmp_path / f"rounds.{ext}").write_bytes(
                self.BOM + (sim_out / f"rounds_rep0.{ext}").read_bytes())
        outputs = []
        for log in (sim_out / "rounds_rep0.csv", tmp_path / "rounds.csv"):
            assert main(["infer", "--log", str(log), "--arm", "1",
                         "--t", "100"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_marked_config_runs_the_same_study(self, sim_out, tmp_path):
        cfg = tmp_path / "cfg.json"
        patch_times(cfg)
        cfg.write_bytes(self.BOM + cfg.read_bytes())
        out = tmp_path / "out"
        assert main(SIM_ARGS + ["--config", str(cfg), "--out", str(out),
                                "--audit-reps", "1"]) == 0
        assert dir_digest(out) == dir_digest(sim_out)

    # a missing --log or --config printed the bare "[Errno 2] ..."
    @pytest.mark.parametrize("flags", [
        ["realdata", "--label-col", "label", "--csv"],
        ["infer", "--arm", "0", "--t", "60", "--log"],
        ["simulate", "--config"]], ids=["csv", "log", "config"])
    def test_missing_file_named_one_way(self, tmp_path, capsys, flags):
        missing, out = tmp_path / "missing", tmp_path / "out"
        argv = flags + [str(missing)]
        if flags[0] != "infer":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {missing}: [Errno 2] ")
        assert not out.exists()
