"""IPW index estimation: accumulators, normal equations, recovery."""

import numpy as np
import pytest

from ksib import harness
from ksib.errors import DomainError
from ksib.harness import Scenario, run_trajectory
from ksib.index_estimation import (IndexAccumulator, _solve_normal_equations,
                                   estimate_from_arrays, ipw_weights)
from ksib.numerics import Rng, min_eigenvalue, solve_spd
from ksib.policy import EpsilonGreedyPolicy


def observe_pulled(acc, feats, ys, pulled, props, p_min=1e-3):
    """Feed the pulled rounds to ``acc`` as the policy does; returns the
    weights ``observe`` applied."""
    return np.array([acc.observe(feats[i], ys[i], props[i], p_min)
                     for i in np.flatnonzero(pulled)])


def gemm_sums(feats, ys, pulled, props, p_min=1e-3):
    """The pulled rounds' weighted sums as one matrix product, written out
    as :func:`estimate_from_arrays` forms them."""
    w = ipw_weights(props[pulled], p_min)
    f = feats[pulled]
    return (f * w[:, None]).T @ f, (w * ys[pulled]) @ f


class TestObserve:
    def test_weighted_update_by_hand(self):
        acc = IndexAccumulator(2)
        assert acc.observe(np.array([1.0, 0.0]), 2.0, 0.5) == 2.0
        np.testing.assert_allclose(acc.sum_gram, [[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(acc.sum_moment, [4.0, 0.0])

    def test_clip_floor(self):
        acc = IndexAccumulator(1)
        assert acc.observe(np.array([1.0]), 1.0, 0.001, p_min=0.01) == 100.0
        assert acc.sum_gram[0, 0] == pytest.approx(100.0)
        np.testing.assert_array_equal(ipw_weights([0.001, 0.5], 0.01),
                                      [100.0, 2.0])

    def test_rejects_nonfinite(self):
        acc = IndexAccumulator(2)
        with pytest.raises(DomainError):
            acc.observe(np.array([np.nan, 0.0]), 1.0, 0.5)
        with pytest.raises(DomainError):
            acc.observe(np.array([1.0, 0.0]), np.inf, 0.5)
        assert not acc.sum_gram.any() and not acc.sum_moment.any()

    def test_rejects_bad_propensity(self):
        """Live and replay paths alike refuse a propensity outside (0, 1]."""
        acc = IndexAccumulator(1)
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                acc.observe(np.array([1.0]), 1.0, p)
            with pytest.raises(DomainError):
                ipw_weights(np.array([0.5, p]))
            with pytest.raises(DomainError):
                estimate_from_arrays(np.ones((2, 1)), np.ones(2),
                                     np.ones(2, bool), np.array([0.5, p]))

    def test_rejects_bad_p_min(self):
        with pytest.raises(DomainError):
            IndexAccumulator(1).observe(np.array([1.0]), 1.0, 0.5, p_min=0.0)

    def test_weight_at_least_one_when_pulled(self):
        rng = Rng(0)
        acc = IndexAccumulator(1)
        for _ in range(50):
            p = 0.05 + 0.95 * rng.uniform()
            before = acc.sum_gram[0, 0]
            assert acc.observe(np.array([1.0]), 0.0, p) >= 1.0
            assert acc.sum_gram[0, 0] - before >= 1.0 - 1e-12
        assert (ipw_weights(np.linspace(0.01, 1.0, 50)) >= 1.0).all()


class TestEstimateBeta:
    def test_exact_linear_fit_1d(self):
        acc = IndexAccumulator(1)
        acc.observe(np.array([1.0]), 1.0, 1.0)
        acc.observe(np.array([-1.0]), -1.0, 1.0)
        est = acc.estimate_beta(2, lambda_beta=0.0)
        assert est.beta_hat[0] == pytest.approx(1.0)
        assert est.direction[0] == pytest.approx(1.0)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, 3))
        ys = rng.normal(size=20)
        props = rng.uniform(0.2, 1.0, size=20)
        base = estimate_from_arrays(feats, ys, np.ones(20, bool), props, 0.0)
        # scaling every weight by c>0 means scaling all propensities by 1/c
        scaled = estimate_from_arrays(feats, ys, np.ones(20, bool),
                                      props / 3.0, 0.0)
        np.testing.assert_allclose(base.beta_hat, scaled.beta_hat, rtol=1e-9)

    def test_hand_solved_normal_equations(self):
        acc = IndexAccumulator(2)
        rows = [((1.0, 0.0), 2.0), ((0.0, 1.0), 3.0), ((1.0, 1.0), 5.0)]
        for w, y in rows:
            acc.observe(np.array(w), y, 1.0)
        est = acc.estimate_beta(3, lambda_beta=0.0)
        np.testing.assert_allclose(est.beta_hat, [2.0, 3.0], atol=1e-10)

    def test_unit_direction(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(50, 4))
        ys = rng.normal(size=50)
        est = estimate_from_arrays(feats, ys, np.ones(50, bool),
                                   np.full(50, 0.5))
        assert np.linalg.norm(est.direction) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            est.direction, est.beta_hat / np.linalg.norm(est.beta_hat))

    def test_degenerate_zero_moment(self):
        acc = IndexAccumulator(2)
        acc.observe(np.array([1.0, 0.0]), 0.0, 1.0)
        est = acc.estimate_beta(1)
        assert est.degenerate
        np.testing.assert_array_equal(est.direction, np.zeros(2))

    # past |beta| ~ 1.3e154 beta.dot(beta) overflows, and the "unit"
    # direction beta / inf was [0, 0] without being flagged
    @pytest.mark.parametrize("scale, degenerate", [(1e150, False), (1e160, True)])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_norm_is_degenerate(self, scale, degenerate):
        est = _solve_normal_equations(np.eye(2), np.array([scale, scale]), 1, 0.0)
        assert est.degenerate == degenerate
        assert np.linalg.norm(est.direction) == (0.0 if degenerate else 1.0)


class TestGramDiagnostic:
    def test_identity_scaled(self):
        acc = IndexAccumulator(2)
        for w in np.eye(2).repeat(2, axis=0):   # four rounds, all at p = 1/2
            acc.observe(w, 0.0, 0.5)
        assert min_eigenvalue(acc.sum_gram / 4) == pytest.approx(1.0)

    def test_rank_one_is_zero(self):
        acc = IndexAccumulator(2)
        acc.observe(np.array([1.0, 1.0]), 1.0, 1.0)
        assert min_eigenvalue(acc.sum_gram / 1) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_policy_concentrates(self):
        rng = Rng(42)
        acc = IndexAccumulator(3)
        t = 2000
        xs = rng.normal((t, 3))
        for i in range(t):
            if rng.uniform() < 0.5:
                acc.observe(xs[i], 0.0, 0.5)
        assert 0.8 <= min_eigenvalue(acc.sum_gram / t) <= 1.2


class TestVectorizedEquivalence:
    def test_matches_sequential_observe(self):
        rng = np.random.default_rng(5)
        t = 60
        feats = rng.normal(size=(t, 3))
        ys = rng.normal(size=t)
        pulled = rng.random(t) < 0.4
        props = rng.uniform(0.05, 1.0, size=t)
        acc = IndexAccumulator(3)
        weights = observe_pulled(acc, feats, ys, pulled, props)
        assert np.array_equal(weights, ipw_weights(props[pulled]))
        gram, moment = gemm_sums(feats, ys, pulled, props)
        np.testing.assert_allclose(gram, acc.sum_gram, rtol=1e-12)
        np.testing.assert_allclose(moment, acc.sum_moment, rtol=1e-12)
        est = estimate_from_arrays(feats, ys, pulled, props, 0.0)
        np.testing.assert_allclose(est.moment_gram, acc.sum_gram / t, rtol=1e-12)
        assert est.t == t

    def test_estimate_from_arrays_matches_accumulator_solve(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(80, 3))
        ys = rng.normal(size=80)
        pulled = rng.random(80) < 0.5
        props = rng.uniform(0.05, 1.0, size=80)
        acc = IndexAccumulator(3)
        acc.sum_gram, acc.sum_moment = gemm_sums(feats, ys, pulled, props)
        expected = acc.estimate_beta(80, 0.01)
        got = estimate_from_arrays(feats, ys, pulled, props, 0.01)
        for field in ("beta_hat", "direction", "gram", "moment_gram"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(expected, field))
        assert (got.t, got.lambda_beta, got.degenerate) == \
            (expected.t, expected.lambda_beta, expected.degenerate)


class TestLiveReplayBridge:
    def test_policy_sums_match_replay_on_easy_trajectory(self, monkeypatch):
        """On an easy T=1000 trajectory (known standard score, so the feature
        is the context itself) each arm's stored weights are the replay
        weights bit for bit, and its live Gram over ``t`` is the replay's."""
        policies = []

        class Recording(EpsilonGreedyPolicy):
            def __init__(self, *args):
                super().__init__(*args)
                policies.append(self)

        monkeypatch.setattr(harness, "EpsilonGreedyPolicy", Recording)
        sc = Scenario(T=1000, reps=1)
        log, _, _, _ = run_trajectory(sc, 0)
        policy, = policies
        assert policy.t == log.rounds == 1000
        for a, state in enumerate(policy.arms):
            pulled = log.arm == a
            assert state.n == pulled.sum() > 0
            assert np.array_equal(state.ws[:state.n],
                                  ipw_weights(log.propensity[pulled], sc.p_min))
            est = estimate_from_arrays(log.contexts, log.reward, pulled,
                                       log.propensity, sc.lambda_beta, sc.p_min)
            live = state.acc.sum_gram / policy.t
            assert np.abs(live - est.moment_gram).max() <= \
                1e-12 * np.abs(est.moment_gram).max()


def old_normal_equations(sum_gram, sum_moment, t, lambda_beta):
    """The index solve as it was written with np.eye and np.linalg.norm."""
    moment_gram = sum_gram / t
    gram = moment_gram + lambda_beta * np.eye(sum_moment.size)
    beta = solve_spd(gram, sum_moment / t)
    return beta, beta / float(np.linalg.norm(beta)), gram, moment_gram


class TestLeanSolve:
    @pytest.mark.parametrize("source", ["accumulator", "gemm"])
    def test_bit_identical_to_eye_and_norm(self, source):
        rng = np.random.default_rng(8)
        asymmetric = 0
        for d in (1, 2, 5, 5, 6) * 4:
            t = int(rng.integers(d + 5, 300))
            feats, ys = rng.normal(size=(t, d)), rng.normal(size=t)
            pulled = rng.random(t) < 0.6
            props = rng.uniform(0.01, 1.0, size=t)
            if source == "gemm":
                sums = (*gemm_sums(feats, ys, pulled, props), t)
            else:
                acc = IndexAccumulator(d)
                observe_pulled(acc, feats, ys, pulled, props)
                sums = acc.sum_gram, acc.sum_moment, t
            asymmetric += not np.array_equal(sums[0], sums[0].T)
            got = _solve_normal_equations(*sums, 0.002)
            for a, b in zip((got.beta_hat, got.direction, got.gram,
                             got.moment_gram), old_normal_equations(*sums, 0.002)):
                assert np.array_equal(a, b)
        # the gemm Gram is not exactly symmetric, so solve_spd symmetrizes it
        assert (asymmetric > 0) == (source == "gemm")


class TestRecovery:
    def test_ipw_moment_unbiased(self):
        """Randomized arm at known propensity: mean of m-hat matches E[W Y]."""
        rng = Rng(7)
        beta = np.array([1.0, -0.5])
        p = 0.3
        reps, t = 2000, 50
        moments = np.empty((reps, 2))
        for rep in range(reps):
            r = rng.split(rep)
            xs = r.normal((t, 2))
            ys = xs @ beta + 0.1 * r.normal(t)
            pulled = r.normal(t) < np.float64(
                -0.5244005127080407)  # P(Z < z) = 0.3
            _, moment = gemm_sums(xs, ys, pulled, np.full(t, p))
            moments[rep] = moment / t
        se = moments.std(axis=0, ddof=1) / np.sqrt(reps)
        np.testing.assert_array_less(np.abs(moments.mean(axis=0) - beta),
                                     3 * se + 1e-12)

    def test_offline_tanh_direction_recovery(self):
        rng = Rng(99)
        d, n = 5, 5000
        beta = rng.normal(d)
        beta /= np.linalg.norm(beta)
        xs = rng.normal((n, d))
        ys = np.tanh(xs @ beta) + 0.05 * rng.normal(n)
        est = estimate_from_arrays(xs, ys, np.ones(n, bool), np.ones(n), 0.0)
        assert abs(float(est.direction @ beta)) >= 0.98


class TestGramConsistency:
    def test_operator_norm_concentrates(self):
        """Uniform-weight Gram at t=2000 stays within 0.15 of identity."""
        rng = Rng(2718)
        d, t, reps = 5, 2000, 200
        hits = 0
        for _ in range(reps):
            xs = rng.normal((t, d))
            gram = xs.T @ xs / t
            hits += np.linalg.norm(gram - np.eye(d), ord=2) <= 0.15
        assert hits / reps >= 0.95
