"""Unit tests for the weighted-prediction decoders (sequential vs wavefront)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sz.decode as sz_decode
from repro.sz.decode import (
    decode_weighted_sequential,
    decode_weighted_wavefront,
    weighted_predict_full,
)


def _random_case(rng, shape, weights=None):
    ndim = len(shape)
    codes = rng.integers(-2000, 2000, size=shape)
    diffs = [rng.integers(-20, 20, size=shape) for _ in range(ndim)]
    if weights is None:
        raw = rng.uniform(0.0, 1.0, size=ndim + 1)
        weights = raw / raw.sum()
    prediction = weighted_predict_full(codes, diffs, weights)
    residuals = codes - prediction
    return codes, diffs, weights, residuals


class TestDecoders:
    @pytest.mark.parametrize("shape", [(23,), (9, 14), (5, 6, 7)])
    def test_sequential_matches_original(self, shape):
        rng = np.random.default_rng(0)
        codes, diffs, weights, residuals = _random_case(rng, shape)
        assert np.array_equal(decode_weighted_sequential(residuals, diffs, weights), codes)

    @pytest.mark.parametrize("shape", [(23,), (9, 14), (5, 6, 7), (1, 8), (3, 1, 9)])
    def test_wavefront_matches_original(self, shape):
        rng = np.random.default_rng(1)
        codes, diffs, weights, residuals = _random_case(rng, shape)
        assert np.array_equal(decode_weighted_wavefront(residuals, diffs, weights), codes)

    def test_wavefront_equals_sequential(self):
        rng = np.random.default_rng(2)
        codes, diffs, weights, residuals = _random_case(rng, (7, 8, 6))
        seq = decode_weighted_sequential(residuals, diffs, weights)
        wav = decode_weighted_wavefront(residuals, diffs, weights)
        assert np.array_equal(seq, wav)

    def test_pure_lorenzo_weights(self):
        rng = np.random.default_rng(3)
        shape = (12, 10)
        codes, diffs, weights, residuals = _random_case(rng, shape, weights=[1.0, 0.0, 0.0])
        assert np.array_equal(decode_weighted_wavefront(residuals, diffs, weights), codes)

    def test_pure_cross_field_weights(self):
        rng = np.random.default_rng(4)
        shape = (10, 11)
        codes, diffs, weights, residuals = _random_case(rng, shape, weights=[0.0, 0.5, 0.5])
        assert np.array_equal(decode_weighted_wavefront(residuals, diffs, weights), codes)

    def test_3d_wavefront_equals_sequential_across_weights(self):
        rng = np.random.default_rng(6)
        shape = (4, 7, 5)
        for weights in ([1.0, 0, 0, 0], [0.0, 0.4, 0.3, 0.3], [0.25, 0.25, 0.25, 0.25]):
            codes, diffs, w, residuals = _random_case(rng, shape, weights=weights)
            seq = decode_weighted_sequential(residuals, diffs, w)
            wav = decode_weighted_wavefront(residuals, diffs, w)
            assert np.array_equal(seq, wav)
            assert np.array_equal(wav, codes)

    def test_3d_blocked_path_equals_sequential(self):
        # shrink the threshold so the slab variant runs on test-sized data,
        # with a slab size that does not divide the leading extent evenly
        rng = np.random.default_rng(7)
        codes, diffs, weights, residuals = _random_case(rng, (7, 6, 5))
        old = sz_decode.BLOCKED_3D_THRESHOLD
        sz_decode.BLOCKED_3D_THRESHOLD = 60  # 2 rows of 30 points per slab
        try:
            blocked = decode_weighted_wavefront(residuals, diffs, weights)
        finally:
            sz_decode.BLOCKED_3D_THRESHOLD = old
        assert np.array_equal(blocked, decode_weighted_sequential(residuals, diffs, weights))
        assert np.array_equal(blocked, codes)

    def test_weight_length_validation(self):
        with pytest.raises(ValueError, match="length ndim\\+1 = 3"):
            decode_weighted_wavefront(
                np.zeros((4, 4), dtype=np.int64),
                [np.zeros((4, 4), dtype=np.int64)] * 2,
                [0.5, 0.5],
            )

    def test_weight_length_validation_names_dimensionality(self):
        with pytest.raises(ValueError, match="one Lorenzo weight plus one per axis of the 3D"):
            decode_weighted_sequential(
                np.zeros((2, 2, 2), dtype=np.int64),
                [np.zeros((2, 2, 2), dtype=np.int64)] * 3,
                [0.5, 0.5],
            )

    def test_nested_weights_raise_valueerror_not_broadcast(self):
        with pytest.raises(ValueError, match="flat"):
            decode_weighted_wavefront(
                np.zeros((4, 4), dtype=np.int64),
                [np.zeros((4, 4), dtype=np.int64)] * 2,
                [[0.3, 0.3], [0.4, 0.0]],
            )

    def test_diff_count_validation_names_expected(self):
        with pytest.raises(ValueError, match="expected 2 cross-field difference arrays"):
            decode_weighted_wavefront(
                np.zeros((4, 4), dtype=np.int64),
                [np.zeros((4, 4), dtype=np.int64)] * 3,
                [0.3, 0.3, 0.4],
            )

    def test_diff_shape_validation(self):
        with pytest.raises(ValueError, match=r"diff_codes\[0\] has shape \(3, 3\)"):
            decode_weighted_wavefront(
                np.zeros((4, 4), dtype=np.int64),
                [np.zeros((3, 3), dtype=np.int64)] * 2,
                [0.3, 0.3, 0.4],
            )

    def test_rejects_float_residuals(self):
        with pytest.raises(TypeError):
            decode_weighted_wavefront(np.zeros((4, 4)), [np.zeros((4, 4), dtype=np.int64)] * 2, [1, 0, 0])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 100))
    def test_property_wavefront_equals_sequential(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        codes, diffs, weights, residuals = _random_case(rng, (rows, cols))
        assert np.array_equal(
            decode_weighted_sequential(residuals, diffs, weights),
            decode_weighted_wavefront(residuals, diffs, weights),
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 100)
    )
    def test_property_wavefront_equals_sequential_3d(self, d0, d1, d2, seed):
        rng = np.random.default_rng(seed)
        codes, diffs, weights, residuals = _random_case(rng, (d0, d1, d2))
        assert np.array_equal(
            decode_weighted_sequential(residuals, diffs, weights),
            decode_weighted_wavefront(residuals, diffs, weights),
        )
