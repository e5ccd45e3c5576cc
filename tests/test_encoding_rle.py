"""Unit tests for the zigzag transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.rle import zigzag_decode, zigzag_encode


class TestZigzag:
    def test_known_mapping(self):
        values = np.array([0, -1, 1, -2, 2, -3])
        assert np.array_equal(zigzag_encode(values), [0, 1, 2, 3, 4, 5])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-10000, 10000, size=1000)
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            zigzag_encode(np.array([1.0]))

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            zigzag_decode(np.array([-1]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=100))
    def test_property_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(arr)), arr)

