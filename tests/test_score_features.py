"""Score feature maps: known Gaussian scores and streaming whitening."""

import numpy as np
import pytest

from ksib.errors import DomainError, SingularityError, StateError
from ksib.score_features import EmpiricalWhiteningScore, KnownGaussianScore


class TestKnownGaussian:
    def test_standard_is_identity(self):
        model = KnownGaussianScore.standard(2)
        np.testing.assert_allclose(model.score(np.array([1.0, -2.0])),
                                   [1.0, -2.0], atol=1e-14)

    def test_centered_point_maps_to_zero(self):
        model = KnownGaussianScore(np.array([1.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(model.score(np.array([1.0, 1.0])),
                                   [0.0, 0.0], atol=1e-14)

    def test_diagonal_inverse(self):
        model = KnownGaussianScore(np.zeros(2), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(model.score(np.array([2.0, 3.0])),
                                   [0.5, 3.0], atol=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d)) + 2 * np.eye(d)
            c = rng.normal(size=d)
            base = KnownGaussianScore(np.zeros(d), np.eye(d))
            transformed = KnownGaussianScore(c, a @ a.T)
            x = rng.normal(size=d)
            lhs = transformed.score(a @ x + c)
            rhs = np.linalg.solve(a.T, base.score(x))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        model = KnownGaussianScore(rng.normal(size=3),
                                   np.eye(3) + 0.2 * np.ones((3, 3)))
        xs = rng.normal(size=(5, 3))
        batch = model.score(xs)
        for i in range(5):
            np.testing.assert_allclose(batch[i], model.score(xs[i]), atol=1e-12)


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
        with pytest.raises(SingularityError):
            model.score(np.array([1.0, 1.0]))
        ridged = EmpiricalWhiteningScore(2, ridge=1e-2)
        for _ in range(5):
            ridged.update(np.array([1.0, 1.0]))
        assert np.isfinite(ridged.score(np.array([2.0, 0.0]))).all()

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
