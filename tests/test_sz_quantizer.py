"""Unit tests for dual quantization and the classic SZ quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sz.quantizer import (
    QUANT_SAFETY_MARGIN,
    cast_safe_error_bound,
    classic_dequantize_lorenzo,
    classic_quantize_lorenzo,
    dequantize,
    prequantize,
)


class TestPrequantize:
    def test_error_bound_respected(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 50)).astype(np.float32)
        eb = 1e-3
        codes = prequantize(data, eb)
        recon = dequantize(codes, eb, dtype=np.float64)
        assert np.max(np.abs(recon - data.astype(np.float64))) <= eb + 1e-12

    def test_integer_output(self):
        codes = prequantize(np.array([0.1, 0.2]), 0.05)
        assert codes.dtype == np.int64

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            prequantize(np.array([1.0, np.nan]), 0.1)

    def test_rejects_nonpositive_eb(self):
        with pytest.raises(ValueError):
            prequantize(np.ones(3), 0.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            prequantize(np.array([1e30]), 1e-10)

    def test_dequantize_requires_integers(self):
        with pytest.raises(TypeError):
            dequantize(np.array([1.5]), 0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(np.float64, (6, 7), elements=st.floats(-1e4, 1e4)),
        st.floats(1e-4, 1.0),
    )
    def test_property_error_bound(self, data, eb):
        codes = prequantize(data, eb)
        recon = dequantize(codes, eb, dtype=np.float64)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)


class TestCastSafeErrorBound:
    def test_unchanged_while_the_margin_covers_the_cast(self):
        data = np.linspace(-9.0, 9.0, 50, dtype=np.float32)
        # half a float32 ulp at 9 is 4.8e-7, below 1e-3 * 1e-3
        assert cast_safe_error_bound(1e-3, data) == 1e-3
        assert cast_safe_error_bound(1e-5, data.astype(np.float64)) == 1e-5

    def test_tightened_by_half_a_spacing_otherwise(self):
        data = np.linspace(-9.0, 9.0, 50, dtype=np.float32)
        half = float(np.spacing(np.float32(9.0 + 1e-5))) / 2
        assert QUANT_SAFETY_MARGIN * 1e-5 < half
        assert cast_safe_error_bound(1e-5, data) == 1e-5 - half

    @pytest.mark.parametrize(
        "dataset, shape", [("cesm", (64, 128)), ("scale", (8, 48, 48)), ("hurricane", (8, 48, 48))]
    )
    def test_synthetic_fields_keep_their_margin_at_rel_1e_3(self, dataset, shape):
        # their payloads therefore stay byte-identical to margin-only encoding
        from repro.data import make_dataset
        from repro.sz.errors import ErrorBound

        for field in make_dataset(dataset, shape=shape, seed=727):
            eb = ErrorBound.relative(1e-3).resolve(field.data)
            assert cast_safe_error_bound(eb, field.data) == eb, field.name

    def test_never_below_half_the_bound(self):
        data = np.full(4, 9.0, dtype=np.float32)
        assert cast_safe_error_bound(1e-7, data) == 5e-8


class TestClassicQuantizer:
    def test_round_trip_2d(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(12, 14))
        eb = 1e-2
        codes, mask, recon = classic_quantize_lorenzo(data, eb)
        assert np.max(np.abs(recon - data)) <= eb + 1e-12
        decoded = classic_dequantize_lorenzo(codes, mask, data[mask], eb)
        assert np.allclose(decoded, recon, atol=1e-12)

    def test_round_trip_3d(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(5, 6, 4))
        eb = 5e-3
        codes, mask, recon = classic_quantize_lorenzo(data, eb)
        decoded = classic_dequantize_lorenzo(codes, mask, data[mask], eb)
        assert np.max(np.abs(decoded - data)) <= eb + 1e-12

    def test_outliers_flagged_with_small_radius(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(10, 10)) * 100
        codes, mask, recon = classic_quantize_lorenzo(data, 1e-4, radius=4)
        assert mask.any()
        assert np.max(np.abs(recon - data)) <= 1e-4 + 1e-12

    def test_rejects_4d(self):
        with pytest.raises(ValueError):
            classic_quantize_lorenzo(np.zeros((2, 2, 2, 2)), 0.1)
