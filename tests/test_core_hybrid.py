"""Unit tests for the hybrid prediction model."""

import numpy as np
import pytest

from repro.core.hybrid import HybridPredictor, build_candidate_predictions
from repro.sz.predictors import lorenzo_predict


class TestCandidates:
    def test_candidate_stack_shape(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-100, 100, size=(8, 9))
        diffs = [rng.integers(-5, 5, size=(8, 9)) for _ in range(2)]
        candidates = build_candidate_predictions(codes, diffs)
        assert candidates.shape == (3, 8, 9)
        assert np.array_equal(candidates[0], lorenzo_predict(codes))

    def test_axis_candidate_formula(self):
        codes = np.arange(12, dtype=np.int64).reshape(3, 4)
        diffs = [np.ones_like(codes), 2 * np.ones_like(codes)]
        candidates = build_candidate_predictions(codes, diffs)
        # axis-0 candidate at (1, 2) = codes[0, 2] + 1
        assert candidates[1][1, 2] == codes[0, 2] + 1
        # axis-1 candidate at (2, 3) = codes[2, 2] + 2
        assert candidates[2][2, 3] == codes[2, 2] + 2

    def test_wrong_diff_count(self):
        with pytest.raises(ValueError):
            build_candidate_predictions(np.zeros((4, 4), dtype=np.int64), [np.zeros((4, 4), dtype=np.int64)])


class TestHybridPredictor:
    def _perfect_case(self, rng, shape=(20, 24)):
        """Cross-field diffs that are exactly the true backward differences."""
        codes = rng.integers(-500, 500, size=shape)
        diffs = []
        for axis in range(len(shape)):
            d = np.diff(codes, axis=axis, prepend=0)
            diffs.append(d.astype(np.int64))
        return codes, diffs

    def test_lstsq_prefers_perfect_cross_field(self):
        rng = np.random.default_rng(1)
        codes, diffs = self._perfect_case(rng)
        hybrid = HybridPredictor(ndim=2)
        weights = hybrid.fit(codes, diffs, method="lstsq")
        # with exact cross-field differences the combined cross-field weights dominate
        assert weights[1] + weights[2] > weights[0]
        prediction = hybrid.predict(codes, diffs)
        assert np.abs(prediction - codes).mean() < 1.0

    def test_lstsq_prefers_lorenzo_with_useless_diffs(self):
        rng = np.random.default_rng(2)
        codes = np.cumsum(np.cumsum(rng.integers(-3, 4, size=(30, 30)), axis=0), axis=1)
        diffs = [rng.integers(-1000, 1000, size=codes.shape) for _ in range(2)]
        hybrid = HybridPredictor(ndim=2)
        weights = np.abs(hybrid.fit(codes, diffs))
        assert weights[0] > weights[1]  # Lorenzo outweighs the axis-0 candidate
        assert weights[0] > weights[2]  # and the axis-1 candidate

    def test_sgd_records_history(self):
        rng = np.random.default_rng(3)
        codes, diffs = self._perfect_case(rng, shape=(16, 16))
        hybrid = HybridPredictor(ndim=2)
        hybrid.fit(codes, diffs, method="sgd", epochs=10)
        assert len(hybrid.loss_history) == 10
        assert hybrid.loss_history[-1] <= hybrid.loss_history[0]

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(5)
        codes, diffs = self._perfect_case(rng)
        hybrid = HybridPredictor(ndim=2)
        hybrid.fit(codes, diffs)
        restored = HybridPredictor.from_dict(hybrid.to_dict())
        assert np.allclose(restored.weights, hybrid.weights)
        assert np.array_equal(restored.predict(codes, diffs), hybrid.predict(codes, diffs))

    def test_3d_support(self):
        rng = np.random.default_rng(6)
        codes, diffs = self._perfect_case(rng, shape=(6, 8, 10))
        hybrid = HybridPredictor(ndim=3)
        weights = hybrid.fit(codes, diffs)
        assert weights.shape == (4,)
        assert hybrid.num_parameters == 4

    def test_unfitted_use_rejected(self):
        hybrid = HybridPredictor(ndim=2)
        assert hybrid.weights is None
        with pytest.raises(RuntimeError):
            hybrid.predict(np.zeros((4, 4), dtype=np.int64), [np.zeros((4, 4), dtype=np.int64)] * 2)
        with pytest.raises(RuntimeError):
            hybrid.to_dict()

    def test_invalid_method(self):
        rng = np.random.default_rng(7)
        codes, diffs = self._perfect_case(rng)
        with pytest.raises(ValueError):
            HybridPredictor(ndim=2).fit(codes, diffs, method="genetic")

    def test_invalid_ndim(self):
        with pytest.raises(ValueError):
            HybridPredictor(ndim=5)
