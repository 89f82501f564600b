"""Synthetic and replay environments plus regret accounting."""

import numpy as np
import pytest

from ksib.environment import (RegretLedger, ReplayEnv, SyntheticEnv,
                              link_pair, load_csv, sample_canonical_betas)
from ksib.errors import DomainError, LoadError
from ksib.harness import Scenario, run_trajectory
from ksib.numerics import Rng


class TestLinks:
    def test_value_at_zero(self):
        assert link_pair(0.0) == (pytest.approx(0.6), pytest.approx(0.4))

    def test_tanh_limits(self):
        g1, g2 = link_pair(60.0)
        assert g1 == pytest.approx(1.0)
        assert g2 == pytest.approx(0.0)

    def test_odd_symmetry(self):
        for z in (0.3, 1.0, 2.5):
            assert link_pair(z)[0] + link_pair(-z)[0] == pytest.approx(1.2)

    def test_vectorized(self):
        g1, g2 = link_pair(np.array([0.0, 1.0]))
        assert g1.shape == (2,)


class TestBetas:
    def test_unit_norm_positive_first(self):
        betas = sample_canonical_betas(5, 2, Rng(3))
        for b in betas:
            assert np.linalg.norm(b) == pytest.approx(1.0)
            assert b[0] > 0

    def test_deterministic_given_rng_seed(self):
        a = sample_canonical_betas(3, 2, Rng(4))
        b = sample_canonical_betas(3, 2, Rng(4))
        np.testing.assert_array_equal(a, b)


class TestSyntheticEnv:
    def test_zero_noise_reward_is_mean(self):
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(1)), 0.0, Rng(2))
        x, means, noise = env.draw_round()
        assert noise == 0.0
        np.testing.assert_allclose(means, env.true_means(x))

    def test_context_zero_gives_link_intercepts(self):
        env = SyntheticEnv(sample_canonical_betas(3, 2, Rng(1)), 0.1, Rng(2))
        np.testing.assert_allclose(env.true_means(np.zeros(3)), [0.6, 0.4])

    def test_context_marginals_standard_normal(self):
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(1)), 0.0, Rng(7))
        xs = np.array([env.draw_round()[0] for _ in range(100_000)])
        assert np.max(np.abs(xs.mean(axis=0))) < 0.02
        np.testing.assert_allclose(xs.std(axis=0), 1.0, atol=0.02)

    def test_identical_arms_zero_regret(self):
        beta = sample_canonical_betas(2, 1, Rng(1))[0]
        g = lambda z: 0.5 + 0.1 * np.tanh(z)
        env = SyntheticEnv(np.array([beta, beta]), 0.0, Rng(2),
                           links=(g, g))
        means = np.array([env.draw_round()[1] for _ in range(200)])
        ledger = RegretLedger(means, np.zeros(200, dtype=int))  # any policy choice
        assert ledger.total == 0.0

    def test_oracle_policy_zero_regret(self):
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(1)), 0.0, Rng(3))
        means = np.array([env.draw_round()[1] for _ in range(200)])
        ledger = RegretLedger(means, np.argmax(means, axis=1))
        assert ledger.total == 0.0


class TestRegretLedger:
    def test_pulling_argmax_adds_zero(self):
        ledger = RegretLedger(np.array([[0.6, 0.4]]), [0])
        assert ledger.total == 0.0

    def test_gap_accumulates(self):
        ledger = RegretLedger(np.array([[0.6, 0.4]]), [1])
        assert ledger.total == pytest.approx(0.2)

    def test_monotone_path(self):
        rng = Rng(5)
        means = np.array([rng.normal(3) for _ in range(100)])
        ledger = RegretLedger(means, np.zeros(100, dtype=int))
        assert all(b >= a - 1e-15 for a, b in zip(ledger.path, ledger.path[1:]))

    def test_average(self):
        ledger = RegretLedger(np.tile([1.0, 0.0], (4, 1)), [1] * 4)
        assert ledger.average() == pytest.approx(1.0)
        assert ledger.average(2) == pytest.approx(1.0)

    # on two rounds, -1 gave path[-2] / -1, 0 a ZeroDivisionError and 3 an
    # IndexError
    @pytest.mark.parametrize("t", [-1, 0, 3])
    def test_average_outside_the_rounds_refused(self, t):
        ledger = RegretLedger(np.tile([1.0, 0.0], (2, 1)), [1, 1])
        with pytest.raises(DomainError, match=f"t must be in 1..2, got {t}"):
            ledger.average(t)
        assert ledger.average() == ledger.average(2) == 1.0

    @pytest.mark.parametrize("means, pulled", [
        (np.zeros((3, 2)), [0, 1]), (np.zeros(3), [0, 1, 0]),
        (np.zeros((3, 2)), [[0, 1, 0]])])
    def test_mismatched_shapes_refused(self, means, pulled):
        with pytest.raises(DomainError, match="one pulled arm per row"):
            RegretLedger(means, pulled)

    def test_path_is_the_running_sum(self):
        """On an easy T=1500 trajectory the cumulative sum equals a plain
        running sum of the gaps bit for bit, and the total is a Python
        float, whose repr is what regret.csv writes."""
        log, means, ledger, _ = run_trajectory(
            Scenario(d=2, sigma=0.05, T=1500, reps=1, seed=0), 0)
        total, running = 0.0, []
        for mu, arm in zip(means, log.arm):
            total += float(np.max(mu)) - float(mu[arm])
            running.append(total)
        assert np.array_equal(ledger.path, running)
        assert type(ledger.total) is float
        assert repr(ledger.total) == repr(total)
        assert type(ledger.average(999)) is float


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(60):
        x = rng.normal(size=3)
        label = int(x[0] + 0.1 * rng.normal() > 0)
        rows.append([f"{x[0]:.6f}", f"{x[1]:.6f}", f"{x[2]:.6f}", label])
    path = tmp_path / "toy.csv"
    write_csv(path, ["f0", "f1", "f2", "label"], rows)
    return str(path)


class TestLoadCsv:
    def test_header_names_select_columns(self, toy_csv):
        table = load_csv(toy_csv, "label", ["f2", "f0"])
        full = load_csv(toy_csv, "label")
        np.testing.assert_array_equal(table.features, full.features[:, [2, 0]])
        np.testing.assert_array_equal(table.labels, full.labels)
        assert table.feature_names == ["f2", "f0"]
        # a column position is no header name
        with pytest.raises(LoadError, match="column 3 not in header"):
            load_csv(toy_csv, 3)

    # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\n1.0,0\n\xff,1\n3.0,1\n")
        with pytest.raises(LoadError) as exc:
            load_csv(str(path), "y")
        assert str(exc.value).startswith(
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    # a spreadsheet's byte-order mark stayed in the first header name
    def test_byte_order_mark_is_not_a_header_character(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
        table = load_csv(str(path), "label", ["a", "b"])
        assert table.feature_names == ["a", "b"]
        np.testing.assert_array_equal(table.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_default_features_are_all_others(self, toy_csv):
        table = load_csv(toy_csv, "label")
        assert table.features.shape[1] == 3
        assert table.feature_names == ["f0", "f1", "f2"]

    def test_missing_label_column(self, toy_csv):
        with pytest.raises(LoadError):
            load_csv(toy_csv, "not_a_column")

    def test_non_binary_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["a", "y"], [[1.0, 0], [2.0, 1], [3.0, 2]])
        with pytest.raises(LoadError):
            load_csv(str(path), "y")

    # int() truncated a 0.7 label to 0 and a 1.9 label to 1, an inf label
    # overflowed, and a nan feature passed
    @pytest.mark.parametrize("row, message", [
        ("2.0,0.7", "label '0.7' is not 0 or 1"),
        ("2.0,1.9", "label '1.9' is not 0 or 1"),
        ("2.0,inf", "label 'inf' is not 0 or 1"),
        ("2.0,nan", "label 'nan' is not 0 or 1"),
        ("nan,1", "feature 'a' is not finite"),
        ("-inf,0", "feature 'a' is not finite")])
    def test_bad_label_or_feature_names_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,y\n1.0,0\n{row}\n3.0,1\n")
        with pytest.raises(LoadError) as exc:
            load_csv(str(path), "y")
        assert str(exc.value) == f"{path}:3: {message}"

    def test_label_map(self, tmp_path):
        path = tmp_path / "mapped.csv"
        write_csv(path, ["a", "y"], [[1.0, "cat"], [2.0, "dog"], [3.0, "cat"]])
        table = load_csv(str(path), "y", label_map={"cat": 0, "dog": 1})
        assert table.labels.tolist() == [0, 1, 0]

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("a,y\n1.0,0\n2.0\n")
        with pytest.raises(LoadError):
            load_csv(str(path), "y")


class TestReplayEnv:
    def test_two_seeds_distinct_orders_same_multiset(self, toy_csv):
        table = load_csv(toy_csv, "label")
        env_a = ReplayEnv(table, seed=1, horizon=60)
        env_b = ReplayEnv(table, seed=2, horizon=60)
        assert not np.array_equal(env_a.order, env_b.order)
        assert sorted(env_a.order.tolist()) == sorted(env_b.order.tolist())

    def test_standardized_columns(self, toy_csv):
        table = load_csv(toy_csv, "label")
        env = ReplayEnv(table, seed=3, horizon=60)
        np.testing.assert_allclose(env.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(env.features.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_zeroed(self, tmp_path):
        path = tmp_path / "const.csv"
        rows = [[1.0, i % 2, i % 2] for i in range(20)]
        write_csv(path, ["c", "f", "y"], rows)
        table = load_csv(str(path), "y")
        env = ReplayEnv(table, seed=1, horizon=20)
        assert 0 in env.constant_columns
        np.testing.assert_allclose(env.features[:, 0], 0.0)

    def test_rewards_are_indicator_of_label(self, toy_csv):
        table = load_csv(toy_csv, "label")
        env = ReplayEnv(table, seed=4, horizon=60)
        ones = 0
        for _ in range(60):
            _, rewards, noise = env.draw_round()
            assert set(rewards.tolist()) == {0.0, 1.0}
            assert noise == 0.0
            ones += rewards[1]
        assert ones == np.sum(env.labels == 1)

    def test_fixed_arm_accuracy_is_class_frequency(self, toy_csv):
        table = load_csv(toy_csv, "label")
        env = ReplayEnv(table, seed=5, horizon=60)
        total = 0.0
        for _ in range(60):
            _, rewards, _ = env.draw_round()
            total += rewards[0]
        assert total / 60 == pytest.approx(np.mean(env.labels == 0))

    def test_exhaustion_and_insufficient_rows(self, toy_csv):
        table = load_csv(toy_csv, "label")
        with pytest.raises(LoadError):
            ReplayEnv(table, seed=1, horizon=500)
        env = ReplayEnv(table, seed=1, horizon=60)
        for _ in range(60):
            env.draw_round()
        with pytest.raises(DomainError):
            env.draw_round()
