"""Score features: standard normal contexts as their own score, and
streaming whitening."""

import numpy as np
import pytest

from ksib.errors import DomainError, SingularityError, StateError
from ksib.harness import TrajectoryLog, score_features_for
from ksib.score_features import EmpiricalWhiteningScore


def test_known_score_is_the_context():
    log = TrajectoryLog.empty(40, 3)
    log.contexts[:] = np.random.default_rng(0).normal(size=(40, 3))
    feats = score_features_for(log, 25, "known")
    assert np.array_equal(feats, log.contexts[:25])


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
            batch = EmpiricalWhiteningScore.from_batch(xs)
            assert batch.count == streamed.count
            np.testing.assert_allclose(batch.mean, streamed.mean, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(batch.covariance, streamed.covariance,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.score(xs), streamed.score(xs),
                                       rtol=0, atol=1e-10)

    def test_from_batch_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            EmpiricalWhiteningScore.from_batch(np.zeros(3))

    def test_rejects_bad_shape(self):
        model = EmpiricalWhiteningScore(2)
        with pytest.raises(DomainError):
            model.update(np.zeros(3))
