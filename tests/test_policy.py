"""Decision loop: schedule, selection law, bookkeeping, determinism."""

import hashlib
import pickle

import numpy as np
import pytest

from dense_krr import DenseKrr
from ksib import harness, kernel_ridge
from ksib import policy as policy_module
from ksib.environment import SyntheticEnv, sample_canonical_betas
from ksib.errors import ConfigError, DomainError, StateError
from ksib.harness import Scenario, run_trajectory
from ksib.kernel_ridge import ridge_schedule
from ksib.numerics import Rng
from ksib.policy import EpsilonGreedyPolicy


def make_policy(seed=0, d=2, T0=10, **kw):
    sc = Scenario(d=d, T0=T0, **kw)
    return EpsilonGreedyPolicy(sc, Rng(seed))


def run_rounds(policy, env, rounds):
    recs = []
    for _ in range(rounds):
        x, means, noise = env.draw_round()
        recs.append(policy.step(x, lambda a: means[a] + noise))
    return recs


class TestEpsilonSchedule:
    def test_first_round(self):
        assert Scenario().epsilon(1) == pytest.approx(0.15)

    def test_power_decay(self):
        assert Scenario().epsilon(10) == pytest.approx(0.05972, abs=1e-5)

    def test_floor_clamp(self):
        assert Scenario().epsilon(10 ** 9) == 0.005

    def test_cap_clamp(self):
        assert Scenario(eps_coeff=5.0).epsilon(1) == 0.35

    def test_invalid(self):
        with pytest.raises(ConfigError, match="eps_floor"):
            Scenario(eps_floor=0.5, eps_cap=0.4)

    # round 0 gave a ZeroDivisionError and round -3 a TypeError from a
    # complex power
    @pytest.mark.parametrize("t", [0, -3])
    def test_round_before_the_first_refused(self, t):
        with pytest.raises(DomainError, match=f"epsilon requires t >= 1, got {t}"):
            Scenario().epsilon(t)


class TestLinkRidge:
    def test_refits_use_the_scenario_ridge(self, monkeypatch):
        """The policy's refits and the snapshot's fit both take the ridge
        ``ridge_schedule(t, zeta)`` at their round ``t``."""
        sc = Scenario(T=120, T0=10, zeta=0.07, inference_times=(60, 119))
        log, _, _, _ = run_trajectory(sc, 0)
        ridges = []

        def recording_fit(u, y, w, ridge, *args, **kwargs):
            ridges.append((policy.t, ridge))
            return kernel_ridge.fit(u, y, w, ridge, *args, **kwargs)

        monkeypatch.setattr(policy_module, "fit", recording_fit)
        monkeypatch.setattr(harness, "fit", recording_fit)
        policy = make_policy(seed=4, T0=10, zeta=0.07)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05, Rng(3))
        run_rounds(policy, env, 60)
        assert len(ridges) > 40
        for t, ridge in ridges:
            assert ridge == ridge_schedule(t, 0.07)
        for t in sc.inference_times:
            n = len(ridges)
            harness.inference_snapshot(log, t, 0, sc)
            assert [ridge for _, ridge in ridges[n:]] == [ridge_schedule(t, 0.07)]


class TestSelectionLaw:
    def test_warm_start_round_robin(self):
        policy = make_policy(T0=9)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.0, Rng(1))
        recs = run_rounds(policy, env, 9)
        assert [r.arm for r in recs] == [0, 1] * 4 + [0]
        assert all(r.propensity == pytest.approx(1 / 2) for r in recs)

    def test_warm_start_equal_pulls(self):
        policy = make_policy(T0=50)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.0, Rng(1))
        recs = run_rounds(policy, env, 50)
        arms = [r.arm for r in recs]
        assert arms.count(0) == arms.count(1) == 25

    def test_propensity_values(self):
        """Recorded propensity re-derives exactly from (eps, greedy, arm)."""
        policy = make_policy(seed=3, T0=6)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05, Rng(2))
        recs = run_rounds(policy, env, 300)
        for rec in recs:
            again = policy_module.propensity(rec.arm, rec.greedy_arm, rec.epsilon)
            assert rec.propensity == again
            if rec.t <= 6:   # the warm start: eps = 1/2 gives either arm 1/2
                assert (rec.epsilon, rec.propensity) == (0.5, 0.5)
            else:
                expect = 1 - rec.epsilon if rec.arm == rec.greedy_arm \
                    else rec.epsilon
                assert rec.propensity == pytest.approx(expect)

    def test_exploration_frequency_matches_schedule(self):
        """Non-greedy pulls concentrate around sum(eps_t)."""
        total, expect, var = 0, 0.0, 0.0
        for seed in range(10):
            policy = make_policy(seed=seed, T0=10)
            env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05,
                               Rng(100 + seed))
            recs = run_rounds(policy, env, 400)
            for rec in recs[10:]:
                total += rec.arm != rec.greedy_arm
                expect += rec.epsilon
                var += rec.epsilon * (1 - rec.epsilon)
        assert abs(total - expect) <= 3 * np.sqrt(var)

    def test_explicit_probabilities(self):
        propensity = policy_module.propensity
        assert propensity(1, 1, 0.15) == pytest.approx(0.85)
        assert propensity(0, 1, 0.15) == pytest.approx(0.15)
        # a warm-start round: eps = 1/2, so 1 - eps = eps exactly
        for arm in (0, 1):
            for greedy in (0, 1):
                assert propensity(arm, greedy, 0.5) == 0.5

    def test_greedy_undefined_during_warm_start(self):
        policy = make_policy(T0=10)
        with pytest.raises(StateError):
            policy.greedy_arm(np.zeros(2))


class TestGreedyArm:
    def test_tie_breaks_to_lowest_id(self):
        policy = make_policy(T0=2)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.0, Rng(3))
        run_rounds(policy, env, 2)
        # wipe both arms' models: every prediction is 0.0, a tie
        for arm in policy.arms:
            arm.model = None
        assert policy.greedy_arm(np.array([1.0, 1.0])) == 0

    def test_matches_bruteforce_prediction(self):
        policy = make_policy(seed=9, T0=20)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05, Rng(4))
        run_rounds(policy, env, 120)
        for _ in range(20):
            x = env.rng.normal(2)
            preds = [policy._prediction(s, x) for s in policy.arms]
            assert policy.greedy_arm(x) == int(np.argmax(preds))


def state_digest(arm_state):
    """Digest of an arm's sums, pull count, estimate and link model."""
    blob = pickle.dumps((arm_state.acc.sum_gram, arm_state.acc.sum_moment,
                         arm_state.n,
                         None if arm_state.estimate is None
                         else arm_state.estimate.beta_hat,
                         None if arm_state.model is None
                         else arm_state.model.dual_coeffs))
    return hashlib.sha256(blob).hexdigest()


class TestSingleArmUpdate:
    def test_non_pulled_arm_state_unchanged(self):
        policy = make_policy(seed=5, T0=6)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05, Rng(6))
        run_rounds(policy, env, 30)
        for _ in range(40):
            x, means, noise = env.draw_round()
            before = {i: state_digest(s) for i, s in enumerate(policy.arms)}
            rec = policy.step(x, lambda a: means[a] + noise)
            assert policy.t == rec.t  # the one round clock
            for i, state in enumerate(policy.arms):
                if i == rec.arm:
                    assert state_digest(state) != before[i]
                else:
                    assert state_digest(state) == before[i]


class TestDeterminism:
    def test_same_seed_identical_trajectory(self):
        logs = []
        for _ in range(2):
            policy = make_policy(seed=11, T0=10)
            env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.1,
                               Rng(12))
            recs = run_rounds(policy, env, 200)
            logs.append([(r.t, r.arm, r.greedy_arm, r.propensity, r.reward)
                         for r in recs])
        assert logs[0] == logs[1]

    def test_estimates_bit_identical(self):
        digests = []
        for _ in range(2):
            policy = make_policy(seed=13, T0=10)
            env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.1,
                               Rng(14))
            run_rounds(policy, env, 150)
            digests.append(tuple(state_digest(s) for s in policy.arms))
        assert digests[0] == digests[1]


class TestPivotedRefit:
    """The policy's pivoted-Cholesky refit decides exactly as a dense solve."""

    @pytest.mark.parametrize("scenario", [
        dict(d=2, sigma=0.05),
        dict(d=5, sigma=0.20, score="empirical")])
    @pytest.mark.parametrize("rep", [0, 1])
    def test_same_decisions_as_exact_fit(self, monkeypatch, scenario, rep):
        sc = Scenario(T=1000, reps=1, seed=4, **scenario)
        log, _, ledger, _ = run_trajectory(sc, rep)
        with monkeypatch.context() as m:
            m.setattr(policy_module, "fit", DenseKrr)
            exact_log, _, exact_ledger, _ = run_trajectory(sc, rep)
        assert np.bincount(log.arm).max() > 200
        np.testing.assert_array_equal(log.greedy, exact_log.greedy)
        np.testing.assert_array_equal(log.arm, exact_log.arm)
        assert ledger.total == exact_ledger.total


def cold_fit(*args, pivots=(), **kwargs):
    """``kernel_ridge.fit`` with the warm-start hint dropped."""
    return kernel_ridge.fit(*args, **kwargs)


def assert_same_decisions(sc, rep, monkeypatch):
    log, _, ledger, _ = run_trajectory(sc, rep)
    with monkeypatch.context() as m:
        m.setattr(policy_module, "fit", cold_fit)
        cold_log, _, cold_ledger, _ = run_trajectory(sc, rep)
    np.testing.assert_array_equal(log.greedy, cold_log.greedy)
    np.testing.assert_array_equal(log.arm, cold_log.arm)
    assert ledger.total == cold_ledger.total


class TestWarmStartedRefit:
    """Refits warm-started from the last fit's pivots decide exactly as cold
    refits do."""

    @pytest.mark.parametrize("scenario", [
        dict(d=2, sigma=0.05),
        dict(d=5, sigma=0.20, score="empirical")])
    @pytest.mark.parametrize("rep", [0, 1])
    def test_same_decisions_as_cold_fit(self, monkeypatch, scenario, rep):
        assert_same_decisions(Scenario(T=1000, reps=1, seed=4, **scenario),
                              rep, monkeypatch)

    @pytest.mark.slow
    def test_same_decisions_as_cold_fit_long_horizon(self, monkeypatch):
        assert_same_decisions(Scenario(T=4000, reps=1, seed=4, d=2, sigma=0.05),
                              0, monkeypatch)

    def test_refits_pass_the_last_pivots(self, monkeypatch):
        hints = []

        def recording_fit(*args, pivots=(), **kwargs):
            hints.append(len(pivots))
            return kernel_ridge.fit(*args, pivots=pivots, **kwargs)

        monkeypatch.setattr(policy_module, "fit", recording_fit)
        policy = make_policy(seed=2, T0=10)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05, Rng(3))
        run_rounds(policy, env, 120)
        assert hints[0] == 0 and sum(h > 0 for h in hints) > 100


class TestSupportBuffers:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_refit_rows_equal_list_history(self, monkeypatch, seed):
        """At every checked pull count the refit sees exactly the rows a
        list-built history gives."""
        fitted = []

        def recording_fit(u, y, w, *args, **kwargs):
            fitted.append((u.copy(), y.copy(), w.copy()))
            return kernel_ridge.fit(u, y, w, *args, **kwargs)

        monkeypatch.setattr(policy_module, "fit", recording_fit)
        policy = make_policy(seed=seed, T0=10)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05,
                           Rng(seed))
        history = {0: ([], [], []), 1: ([], [], [])}
        boundaries = {63, 64, 65, 128, 129}
        checked = set()
        for _ in range(400):
            x, means, noise = env.draw_round()
            fitted.clear()
            rec = policy.step(x, lambda a: means[a] + noise)
            xs, ys, props = history[rec.arm]
            xs.append(x)
            ys.append(rec.reward)
            props.append(rec.propensity)
            if len(xs) not in boundaries:
                continue
            state = policy.arms[rec.arm]
            assert state.n == len(xs)
            (u, y, w), = fitted
            assert np.array_equal(u, np.asarray(xs) @ state.estimate.direction)
            assert np.array_equal(y, np.asarray(ys))
            assert np.array_equal(
                w, 1.0 / np.maximum(np.asarray(props), policy.config.p_min))
            checked.add(len(xs))
        assert checked == boundaries


class TestHorizon:
    def test_round_past_T_refused_without_side_effects(self):
        """The buffers hold T rows; round T+1 raises before it draws from
        the RNG, calls the reward or touches any accumulator."""
        policy = make_policy(seed=3, T0=10, T=60)
        env = SyntheticEnv(sample_canonical_betas(2, 2, Rng(5)), 0.05, Rng(4))
        run_rounds(policy, env, 60)
        rng_state = pickle.dumps(policy.rng._gen.bit_generator.state)
        before = [(s.n, s.acc.sum_gram.copy(), s.acc.sum_moment.copy())
                  for s in policy.arms]
        x, means, _ = env.draw_round()
        rewarded = []
        with pytest.raises(StateError, match="round 61"):
            policy.step(x, lambda a: rewarded.append(a) or means[a])
        assert rewarded == []
        assert pickle.dumps(policy.rng._gen.bit_generator.state) == rng_state
        assert policy.t == 60
        for state, (n, gram, moment) in zip(policy.arms, before):
            assert state.n == n
            assert np.array_equal(state.acc.sum_gram, gram)
            assert np.array_equal(state.acc.sum_moment, moment)


class TestGoldenDecisions:
    """Seeded trajectories keep their recorded greedy arms, pulled arms and
    regret totals: any change to the policy round must leave its decisions
    bit for bit as they were."""

    @pytest.mark.parametrize("scenario, rep, arm, greedy, total", [
        (dict(d=2, sigma=0.05), 0,
         "076fdb2c58831c6301e68c1e4dfb80c164fcbc157238f222a4362e39c0d54dec",
         "cbb8ad2e863a1ebb4254706b41dd525f2675ac0e4d101c70817538c64802edff",
         "28.44107620002571"),
        (dict(d=5, sigma=0.20), 1,
         "86a9dcc419c81f05d8b5486d583dc70dbe915ce06a5bddc5dd8662ee57caa1be",
         "bf1c9451e67c6234d16c2ed22643daa58d78866a5d3a3fa357c88d81fb051464",
         "47.60811437934872"),
        # supports past n = 1000, where the fit's round-off floor stops it
        (dict(d=2, sigma=0.05, T=4000), 0,
         "0d89e27a7a3afb6d22771033e6cc03457cb815617a3ce12ba28d8ca279c47baa",
         "a306c5b5beac09036ab196cc66524340006c5d3cca2db7f06d8d8b0365fc9ef1",
         "40.17240186218047"),
        # the streaming whitening, cold round included, feeds the index
        (dict(d=5, sigma=0.20, score="empirical"), 1,
         "01733e8d7d91671470a14961eceea9cbd6e1e05cd65d37260c730faf0bc30ca8",
         "0e4aec022ee8bff6c3e1293246099c503add0dd1ed224671b3775c80e7c37e0c",
         "47.943727926833766")])
    def test_recorded_trajectory(self, scenario, rep, arm, greedy, total):
        log, _, ledger, _ = run_trajectory(
            Scenario(**{"T": 1000, **scenario}, reps=1, seed=4), rep)
        digest = lambda a: hashlib.sha256(a.astype(np.int64).tobytes()).hexdigest()
        assert digest(log.arm) == arm
        assert digest(log.greedy) == greedy
        assert repr(ledger.total) == total
