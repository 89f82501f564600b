"""IPW index estimation: accumulators, normal equations, recovery."""

import numpy as np
import pytest

from ksib.errors import DomainError
from ksib.index_estimation import (IndexAccumulator, accumulate_arrays,
                                   estimate_from_arrays)
from ksib.numerics import Rng


class TestObserve:
    def test_not_pulled_only_advances_clock(self):
        acc = IndexAccumulator(0, 2)
        acc.observe(np.array([1.0, 1.0]), 5.0, 0.5, pulled=False)
        assert acc.t == 1 and acc.pulls == 0
        assert not acc.sum_gram.any() and not acc.sum_moment.any()

    def test_weighted_update_by_hand(self):
        acc = IndexAccumulator(0, 2)
        acc.observe(np.array([1.0, 0.0]), 2.0, 0.5, pulled=True)
        np.testing.assert_allclose(acc.sum_gram, [[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(acc.sum_moment, [4.0, 0.0])

    def test_clip_floor(self):
        acc = IndexAccumulator(0, 1)
        acc.observe(np.array([1.0]), 1.0, 0.001, pulled=True, p_min=0.01)
        assert acc.sum_gram[0, 0] == pytest.approx(100.0)

    def test_rejects_nonfinite(self):
        acc = IndexAccumulator(0, 2)
        with pytest.raises(DomainError):
            acc.observe(np.array([np.nan, 0.0]), 1.0, 0.5, pulled=True)
        with pytest.raises(DomainError):
            acc.observe(np.array([1.0, 0.0]), np.inf, 0.5, pulled=True)

    def test_rejects_bad_propensity(self):
        acc = IndexAccumulator(0, 1)
        with pytest.raises(DomainError):
            acc.observe(np.array([1.0]), 1.0, 0.0, pulled=True)

    def test_weight_at_least_one_when_pulled(self):
        rng = Rng(0)
        acc = IndexAccumulator(0, 1)
        for _ in range(50):
            p = 0.05 + 0.95 * rng.uniform()
            before = acc.sum_gram[0, 0]
            acc.observe(np.array([1.0]), 0.0, p, pulled=True)
            assert acc.sum_gram[0, 0] - before >= 1.0 - 1e-12


class TestEstimateBeta:
    def test_exact_linear_fit_1d(self):
        acc = IndexAccumulator(0, 1)
        acc.observe(np.array([1.0]), 1.0, 1.0, pulled=True)
        acc.observe(np.array([-1.0]), -1.0, 1.0, pulled=True)
        est = acc.estimate_beta(lambda_beta=0.0)
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
        acc = IndexAccumulator(0, 2)
        rows = [((1.0, 0.0), 2.0), ((0.0, 1.0), 3.0), ((1.0, 1.0), 5.0)]
        for w, y in rows:
            acc.observe(np.array(w), y, 1.0, pulled=True)
        est = acc.estimate_beta(lambda_beta=0.0)
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
        acc = IndexAccumulator(0, 2)
        acc.observe(np.array([1.0, 0.0]), 0.0, 1.0, pulled=True)
        est = acc.estimate_beta()
        assert est.degenerate
        np.testing.assert_array_equal(est.direction, np.zeros(2))


class TestGramDiagnostic:
    def test_identity_scaled(self):
        acc = IndexAccumulator(0, 2)
        acc.sum_gram = 4 * np.eye(2)
        acc.t = 4
        assert acc.gram_diagnostic() == pytest.approx(1.0)

    def test_rank_one_is_zero(self):
        acc = IndexAccumulator(0, 2)
        acc.observe(np.array([1.0, 1.0]), 1.0, 1.0, pulled=True)
        assert acc.gram_diagnostic() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_policy_concentrates(self):
        rng = Rng(42)
        acc = IndexAccumulator(0, 3)
        t = 2000
        xs = rng.normal((t, 3))
        for i in range(t):
            pulled = rng.uniform() < 0.5
            acc.observe(xs[i], 0.0, 0.5, pulled=pulled)
        assert 0.8 <= acc.gram_diagnostic() <= 1.2


class TestVectorizedEquivalence:
    def test_matches_sequential_observe(self):
        rng = np.random.default_rng(5)
        t = 60
        feats = rng.normal(size=(t, 3))
        ys = rng.normal(size=t)
        pulled = rng.random(t) < 0.4
        props = rng.uniform(0.05, 1.0, size=t)
        acc = IndexAccumulator(0, 3)
        for i in range(t):
            acc.observe(feats[i], ys[i], props[i], pulled=bool(pulled[i]))
        gram, moment, tt, pulls = accumulate_arrays(feats, ys, pulled, props)
        np.testing.assert_allclose(gram, acc.sum_gram, rtol=1e-12)
        np.testing.assert_allclose(moment, acc.sum_moment, rtol=1e-12)
        assert (tt, pulls) == (acc.t, acc.pulls)

    def test_estimate_from_arrays_matches_accumulator_solve(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(80, 3))
        ys = rng.normal(size=80)
        pulled = rng.random(80) < 0.5
        props = rng.uniform(0.05, 1.0, size=80)
        acc = IndexAccumulator(0, 3)
        acc.sum_gram, acc.sum_moment, acc.t, acc.pulls = accumulate_arrays(
            feats, ys, pulled, props)
        expected = acc.estimate_beta(0.01)
        got = estimate_from_arrays(feats, ys, pulled, props, 0.01)
        for field in ("beta_hat", "direction", "gram"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(expected, field))
        assert (got.t, got.lambda_beta, got.degenerate) == \
            (expected.t, expected.lambda_beta, expected.degenerate)


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
            _, moment, tt, _ = accumulate_arrays(xs, ys, pulled,
                                                 np.full(t, p))
            moments[rep] = moment / tt
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
