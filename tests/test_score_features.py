"""Score features: standard normal contexts as their own score, and
streaming whitening."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from ksib.errors import DomainError, SingularityError, StateError
from ksib.harness import Scenario, inference_snapshot, run_trajectory
from ksib.index_estimation import estimate_from_arrays
from ksib.score_features import EmpiricalWhiteningScore


@pytest.mark.parametrize("score", ["known", "empirical"])
def test_known_score_is_the_context(score):
    """A snapshot's index estimate is the one-shot estimate, with the
    allocation rule's propensities, on the raw contexts for a "known" score
    and on the whole history's whitening for an "empirical" one: scoring
    only the pulled rounds moves no bit."""
    sc = Scenario(T=140, T0=20, reps=1, inference_times=(60, 100, 139),
                  d=3, sigma=0.05, seed=3, score=score)
    log, _, _, _ = run_trajectory(sc, 0)
    for t in sc.inference_times:
        feats = log.contexts[:t]
        if score == "empirical":
            feats = ridged_whitening(*batch_moments(feats), feats)
        for arm in (0, 1):
            props = log.arm_propensities(arm, t)
            want = estimate_from_arrays(feats, log.reward[:t],
                                        log.arm[:t] == arm, props,
                                        sc.lambda_beta, sc.p_min)
            got = inference_snapshot(log, t, arm, sc).estimate
            assert np.array_equal(got.beta_hat, want.beta_hat)


def ridged_whitening(cov, mean, x):
    """The whitening written out with scipy: the covariance symmetrized, its
    ridge ``1e-8 * trace/dim`` added, then ``cho_factor`` and ``cho_solve``."""
    d = cov.shape[0]
    ridge = 1e-8 * float(np.trace(cov)) / d
    factor = cho_factor(0.5 * (cov + cov.T) + ridge * np.eye(d), lower=True)
    return cho_solve(factor, (x - mean).T).T


def batch_moments(xs):
    """The covariance and mean of a batch, as ``from_batch`` builds them."""
    mean = xs.mean(axis=0)
    centered = xs - mean
    return (centered.T @ centered) / (len(xs) - 1), mean


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestEmpiricalWhitening:
    def test_two_point_mean_and_covariance(self):
        model = EmpiricalWhiteningScore(1)
        model.update(np.array([0.0]))
        model.update(np.array([2.0]))
        assert model.mean[0] == pytest.approx(1.0)
        assert model.covariance[0, 0] == pytest.approx(2.0)

    def test_single_update_errors(self):
        model = EmpiricalWhiteningScore(2)
        model.update(np.zeros(2))
        with pytest.raises(StateError):
            model.score(np.zeros(2))

    def test_constant_stream_degenerate_without_ridge(self):
        model = EmpiricalWhiteningScore(2)
        for _ in range(5):
            model.update(np.array([1.0, 1.0]))
        with pytest.raises(SingularityError, match="contexts do not vary"):
            model.score(np.array([1.0, 1.0]))

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 5))
            xs = rng.normal(size=(n, d))
            model = EmpiricalWhiteningScore(d)
            for x in xs:
                model.update(x)
            np.testing.assert_allclose(model.mean, xs.mean(axis=0), atol=1e-12)
            np.testing.assert_allclose(model.covariance,
                                       np.cov(xs.T).reshape(d, d), atol=1e-12)

    def test_from_batch_matches_update_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 300))
            d = int(rng.integers(1, 6))
            xs = rng.normal(loc=rng.normal(size=d), size=(n, d))
            streamed = EmpiricalWhiteningScore(d)
            for x in xs:
                streamed.update(x)
            np.testing.assert_allclose(EmpiricalWhiteningScore.from_batch(xs).score(xs),
                                       streamed.score(xs), rtol=0, atol=1e-10)

    def test_from_batch_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            EmpiricalWhiteningScore.from_batch(np.zeros(3))

    def test_streamed_score_is_the_ridged_solve(self):
        """Bit for bit the solve of the symmetrized covariance plus its
        ridge, on Welford covariances that are mostly asymmetric."""
        rng = np.random.default_rng(5)
        asymmetric = scored = 0
        for d in (1, 2, 3, 4, 5, 5):
            model = EmpiricalWhiteningScore(d)
            for x in rng.normal(loc=rng.normal(size=d), size=(300, d)):
                model.update(x)
                if model.count > d:
                    cov = model.covariance
                    asymmetric += not np.array_equal(cov, cov.T)
                    scored += 1
                    assert_same_bits(model.score(x),
                                     ridged_whitening(cov, model.mean, x))
        assert asymmetric > scored / 2

    def test_from_batch_is_the_ridged_solve(self):
        """Bit for bit the solve of the batch covariance plus its ridge, on
        every row and on a row subset, as snapshots score their arm's rows."""
        rng = np.random.default_rng(6)
        for d in (1, 2, 3, 4, 5, 5):
            for n in (d + 1, 40, 399):
                xs = rng.normal(loc=rng.normal(size=d), size=(n, d))
                cov, mean = batch_moments(xs)
                model = EmpiricalWhiteningScore.from_batch(xs)
                rows = np.flatnonzero(rng.uniform(size=n) < 0.5)
                for sub in (xs, xs[rows]):
                    assert_same_bits(model.score(sub), ridged_whitening(cov, mean, sub))

    def test_rejects_bad_shape(self):
        model = EmpiricalWhiteningScore(2)
        with pytest.raises(DomainError):
            model.update(np.zeros(3))
