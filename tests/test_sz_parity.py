"""Cross-implementation parity harness for the vectorised SZ hot path.

The batch-state-machine decoders (`decode_weighted_wavefront`, the batched
`RegressionPredictor.encode`/`decode`) promise *bit-identical* output to their
scalar reference counterparts (`decode_weighted_sequential`, and the
per-block regression oracle `regression_encode_reference` /
`regression_decode_reference` kept in this module).  This suite
drives both implementations through Hypothesis-generated shapes (1D/2D/3D,
degenerate edges, odd strides), weight profiles (pure-Lorenzo, full hybrid,
zero, axes-only, adversarial extremes), dtypes and error bounds, and asserts
exact equality — the same pattern that made the HFV2 entropy rewrite safe.

Invalid-input rejection (mismatched weights/fields, NaN/inf) is pinned here
too, so the fast paths can never regress to cryptic broadcast errors.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.sz.decode as sz_decode
from repro.sz import ErrorBound, SZCompressor
from repro.sz.decode import (
    clear_wavefront_plans,
    decode_weighted_sequential,
    decode_weighted_wavefront,
    wavefront_plan_info,
    weighted_predict_full,
)
from repro.data.slicing import iter_blocks
from repro.sz.predictors import _DESIGNS, RegressionCoefficients, RegressionPredictor
from repro.sz.quantizer import prequantize

COMMON_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
SHAPES = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
)

# Adversarial weights mix huge, tiny, negative and cancelling magnitudes.  The
# recurrence amplifies |weights| wave over wave, so extremes are paired with
# tiny shapes/values below to keep the reference path inside int64 (the scalar
# decoder raises OverflowError past that; the parity contract only covers the
# non-overflowing domain).
ADVERSARIAL_WEIGHT = st.sampled_from(
    [-64.0, -17.5, -1.0, -1e-12, 0.0, 1e-12, 1.0 / 3.0, 0.999999, 64.0]
)
MODERATE_WEIGHT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def decode_cases_3d(draw):
    """3D-only cases for the blocked slab variant (axis 0 extent > 1)."""
    shape = draw(st.tuples(st.integers(2, 6), st.integers(1, 6), st.integers(1, 6)))
    weights = np.array([draw(MODERATE_WEIGHT) for _ in range(4)])
    residuals = draw(arrays(np.int64, shape, elements=st.integers(-1000, 1000)))
    diffs = [
        draw(arrays(np.int64, shape, elements=st.integers(-1000, 1000)))
        for _ in range(3)
    ]
    return residuals, diffs, weights


@st.composite
def decode_cases(draw):
    shape = draw(SHAPES)
    ndim = len(shape)
    kind = draw(
        st.sampled_from(["pure-lorenzo", "hybrid", "zero", "axes-only", "adversarial"])
    )
    if kind == "adversarial":
        shape = tuple(min(s, 3) for s in shape)
        lo, hi = -4, 4
        weights = np.array([draw(ADVERSARIAL_WEIGHT) for _ in range(ndim + 1)])
    else:
        lo, hi = -1000, 1000
        if kind == "pure-lorenzo":
            weights = np.array([1.0] + [0.0] * ndim)
        elif kind == "zero":
            weights = np.zeros(ndim + 1)
        elif kind == "axes-only":
            weights = np.array([0.0] + [draw(MODERATE_WEIGHT) for _ in range(ndim)])
        else:  # full hybrid
            weights = np.array([draw(MODERATE_WEIGHT) for _ in range(ndim + 1)])
    residuals = draw(arrays(np.int64, shape, elements=st.integers(lo, hi)))
    diffs = [
        draw(arrays(np.int64, shape, elements=st.integers(lo, hi))) for _ in range(ndim)
    ]
    return residuals, diffs, weights


# --------------------------------------------------------------------------- #
# wavefront decoder parity
# --------------------------------------------------------------------------- #
class TestWavefrontParity:
    @COMMON_SETTINGS
    @given(decode_cases())
    def test_bit_identical_to_reference(self, case):
        residuals, diffs, weights = case
        expected = decode_weighted_sequential(residuals, diffs, weights)
        actual = decode_weighted_wavefront(residuals, diffs, weights)
        assert actual.dtype == expected.dtype == np.int64
        assert np.array_equal(actual, expected)

    @COMMON_SETTINGS
    @given(decode_cases_3d())
    def test_blocked_3d_variant_bit_identical(self, case):
        residuals, diffs, weights = case
        expected = decode_weighted_sequential(residuals, diffs, weights)
        old = sz_decode.BLOCKED_3D_THRESHOLD
        sz_decode.BLOCKED_3D_THRESHOLD = 4  # force the slab path on tiny data
        try:
            actual = decode_weighted_wavefront(residuals, diffs, weights)
        finally:
            sz_decode.BLOCKED_3D_THRESHOLD = old
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize(
        "shape",
        [(0,), (0, 5), (3, 0, 4), (1,), (1, 1), (1, 1, 1), (1, 7), (7, 1), (1, 1, 9), (5, 1, 1)],
    )
    def test_degenerate_shapes(self, shape):
        rng = np.random.default_rng(7)
        ndim = len(shape)
        residuals = rng.integers(-9, 9, size=shape).astype(np.int64)
        diffs = [rng.integers(-9, 9, size=shape).astype(np.int64) for _ in range(ndim)]
        weights = np.linspace(0.9, -0.4, ndim + 1)
        expected = decode_weighted_sequential(residuals, diffs, weights)
        actual = decode_weighted_wavefront(residuals, diffs, weights)
        assert actual.shape == shape
        assert np.array_equal(actual, expected)

    def test_odd_strides_match_contiguous(self):
        rng = np.random.default_rng(11)
        base = rng.integers(-50, 50, size=(18, 27)).astype(np.int64)
        dbase = [rng.integers(-5, 5, size=(18, 27)).astype(np.int64) for _ in range(2)]
        strided = base[::2, ::3]
        assert not strided.flags["C_CONTIGUOUS"]
        diffs = [d[::2, ::3] for d in dbase]
        weights = np.array([0.5, 0.25, -0.25])
        expected = decode_weighted_wavefront(
            strided.copy(), [d.copy() for d in diffs], weights
        )
        actual = decode_weighted_wavefront(strided, diffs, weights)
        assert np.array_equal(actual, expected)
        assert np.array_equal(
            decode_weighted_sequential(strided, diffs, weights), expected
        )

    @COMMON_SETTINGS
    @given(decode_cases())
    def test_predict_then_decode_roundtrip(self, case):
        codes, diffs, weights = case
        prediction = weighted_predict_full(codes, diffs, weights)
        residuals = codes - prediction
        assert np.array_equal(decode_weighted_wavefront(residuals, diffs, weights), codes)

    def test_plan_cache_reused_across_calls(self):
        clear_wavefront_plans()
        rng = np.random.default_rng(3)
        shape = (9, 13)
        weights = np.array([1.0, 0.0, 0.0])
        for _ in range(3):
            residuals = rng.integers(-5, 5, size=shape).astype(np.int64)
            diffs = [np.zeros(shape, dtype=np.int64) for _ in range(2)]
            decode_weighted_wavefront(residuals, diffs, weights)
        info = wavefront_plan_info()
        assert info["misses"] == 1
        assert info["hits"] == 2
        clear_wavefront_plans()
        assert wavefront_plan_info()["entries"] == 0

    def test_fat_waves_merge_dependency_free_axes(self):
        # with zero Lorenzo weight and a single active axis, the wave count
        # collapses from rows+cols-1 anti-diagonals to `rows` fat waves
        clear_wavefront_plans()
        rng = np.random.default_rng(5)
        shape = (6, 50)
        residuals = rng.integers(-5, 5, size=shape).astype(np.int64)
        diffs = [rng.integers(-5, 5, size=shape).astype(np.int64) for _ in range(2)]
        weights = np.array([0.0, 0.8, 0.0])  # only axis 0 carries a dependency
        expected = decode_weighted_sequential(residuals, diffs, weights)
        actual = decode_weighted_wavefront(residuals, diffs, weights)
        assert np.array_equal(actual, expected)
        info = wavefront_plan_info()
        assert info["entries"] == 1
        # the single cached plan has exactly shape[0] waves, not sum(shape)-1
        plan = sz_decode._PLANS.get((shape, (0,)))
        assert wavefront_plan_info()["misses"] == 1
        assert plan.n_waves == shape[0]
        # all-zero weights: the whole array decodes in one wave
        zero = decode_weighted_wavefront(residuals, diffs, np.zeros(3))
        assert np.array_equal(zero, residuals)


# --------------------------------------------------------------------------- #
# input rejection
# --------------------------------------------------------------------------- #
DECODERS = [decode_weighted_sequential, decode_weighted_wavefront]


class TestInputRejection:
    @pytest.mark.parametrize("decode", DECODERS)
    def test_wrong_weight_length_is_clear_valueerror(self, decode):
        residuals = np.zeros((3, 4), dtype=np.int64)
        diffs = [np.zeros((3, 4), dtype=np.int64)] * 2
        with pytest.raises(ValueError, match="length ndim\\+1 = 3"):
            decode(residuals, diffs, [1.0, 0.5])

    @pytest.mark.parametrize("decode", DECODERS)
    def test_non_flat_weights_rejected(self, decode):
        residuals = np.zeros((3, 4), dtype=np.int64)
        diffs = [np.zeros((3, 4), dtype=np.int64)] * 2
        with pytest.raises(ValueError, match="flat"):
            decode(residuals, diffs, [[1.0, 0.5, 0.25]])

    @pytest.mark.parametrize("decode", DECODERS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, decode, bad):
        residuals = np.zeros((3, 4), dtype=np.int64)
        diffs = [np.zeros((3, 4), dtype=np.int64)] * 2
        with pytest.raises(ValueError, match="finite"):
            decode(residuals, diffs, [1.0, bad, 0.0])

    @pytest.mark.parametrize("decode", DECODERS)
    def test_wrong_diff_count_names_expected(self, decode):
        residuals = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="expected 2 cross-field difference arrays"):
            decode(residuals, [np.zeros((3, 4), dtype=np.int64)], [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("decode", DECODERS)
    def test_mismatched_diff_shape_is_valueerror_not_broadcast(self, decode):
        residuals = np.zeros((3, 4), dtype=np.int64)
        diffs = [np.zeros((3, 4), dtype=np.int64), np.zeros((4, 3), dtype=np.int64)]
        with pytest.raises(ValueError, match=r"diff_codes\[1\] has shape \(4, 3\)"):
            decode(residuals, diffs, [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("decode", DECODERS)
    def test_float_residuals_rejected(self, decode):
        residuals = np.zeros((3, 4), dtype=np.float64)
        diffs = [np.zeros((3, 4), dtype=np.int64)] * 2
        with pytest.raises(TypeError, match="integer"):
            decode(residuals, diffs, [1.0, 0.5, 0.25])

    def test_nan_inf_data_rejected_before_prediction(self):
        comp = SZCompressor(error_bound=ErrorBound.absolute(1e-3))
        data = np.ones((8, 8), dtype=np.float32)
        data[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            comp.compress(data)
        data[3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            comp.compress(data)
        with pytest.raises(ValueError, match="non-finite"):
            prequantize(np.array([1.0, np.nan]), 1e-3)


# --------------------------------------------------------------------------- #
# regression predictor parity
# --------------------------------------------------------------------------- #
def _fit_single(info, y):
    """Scalar fit of one raveled float64 block, in the batched fit's fixed order."""
    k = len(info.active_cols)
    dty = np.empty(k, dtype=np.float64)
    for c in range(k):
        dty[c] = (y * info.design[:, c]).sum()
    coeffs = np.zeros(k, dtype=np.float64)
    for j in range(k):
        coeffs += dty[j] * info.inv_normal[j]
    full = np.zeros(len(info.block_shape) + 1, dtype=np.float32)
    full[list(info.active_cols)] = coeffs.astype(np.float32)
    return full


def _predict_single(info, coeffs):
    """Rounded hyperplane prediction of one block, ``c0 + c1*x0 + ...`` in axis order."""
    c = np.asarray(coeffs, dtype=np.float64)
    pred = np.full(info.grids[0].size, c[0], dtype=np.float64)
    for d in range(len(info.block_shape)):
        pred += c[d + 1] * info.grids[d]
    return np.rint(pred).astype(np.int64)


def regression_encode_reference(pred, codes):
    """Per-block scalar loop over the C-order blocks; the oracle of ``pred.encode``."""
    codes = np.asarray(codes, dtype=np.int64)
    block_shape = pred._block_shape(codes.ndim)
    residuals = np.empty_like(codes)
    all_coeffs = []
    for block_slices in iter_blocks(codes.shape, block_shape):
        block = codes[block_slices]
        info = _DESIGNS.get(block.shape)
        coeffs = _fit_single(info, np.ascontiguousarray(block).reshape(-1).astype(np.float64))
        residuals[block_slices] = block - _predict_single(info, coeffs).reshape(block.shape)
        all_coeffs.append(coeffs)
    return residuals, RegressionCoefficients(block_shape, np.stack(all_coeffs, axis=0))


def regression_decode_reference(pred, residuals, coefficients):
    """Per-block scalar decode; the oracle of ``pred.decode``."""
    residuals = np.asarray(residuals, dtype=np.int64)
    pred._check_rank(residuals, coefficients)
    codes = np.empty_like(residuals)
    blocks = list(iter_blocks(residuals.shape, coefficients.block_shape))
    pred._check_coefficients(residuals, coefficients, len(blocks))
    for block_slices, coeffs in zip(blocks, coefficients.coefficients):
        block_shape = tuple(s.stop - s.start for s in block_slices)
        prediction = _predict_single(_DESIGNS.get(block_shape), coeffs).reshape(block_shape)
        codes[block_slices] = prediction + residuals[block_slices]
    return codes


class TestRegressionParity:
    @COMMON_SETTINGS
    @given(
        SHAPES,
        st.integers(2, 7),
        st.integers(0, 2**32 - 1),
    )
    def test_encode_bit_identical_to_reference(self, shape, block_size, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-(2**20), 2**20, size=shape).astype(np.int64)
        pred = RegressionPredictor(block_size=block_size)
        res_fast, coeff_fast = pred.encode(codes)
        res_ref, coeff_ref = regression_encode_reference(pred, codes)
        assert np.array_equal(res_fast, res_ref)
        assert coeff_fast.block_shape == coeff_ref.block_shape
        assert coeff_fast.coefficients.dtype == coeff_ref.coefficients.dtype == np.float32
        assert np.array_equal(coeff_fast.coefficients, coeff_ref.coefficients)

    @COMMON_SETTINGS
    @given(
        SHAPES,
        st.integers(2, 7),
        st.integers(0, 2**32 - 1),
    )
    def test_decode_bit_identical_and_exact_roundtrip(self, shape, block_size, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-(2**20), 2**20, size=shape).astype(np.int64)
        pred = RegressionPredictor(block_size=block_size)
        residuals, coefficients = pred.encode(codes)
        fast = pred.decode(residuals, coefficients)
        ref = regression_decode_reference(pred, residuals, coefficients)
        assert np.array_equal(fast, ref)
        assert np.array_equal(fast, codes)

    def test_extent_one_edge_blocks_match(self):
        # shape 7 with block_size 6 leaves a width-1 edge block: the batched
        # fit must pin the degenerate slope to zero exactly like the reference
        rng = np.random.default_rng(0)
        codes = rng.integers(-500, 500, size=(7, 13, 7)).astype(np.int64)
        pred = RegressionPredictor(block_size=6)
        res_fast, coeff_fast = pred.encode(codes)
        res_ref, coeff_ref = regression_encode_reference(pred, codes)
        assert np.array_equal(res_fast, res_ref)
        assert np.array_equal(coeff_fast.coefficients, coeff_ref.coefficients)

    def test_mismatched_coefficient_count_is_clear_valueerror(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(-100, 100, size=(12, 12)).astype(np.int64)
        pred = RegressionPredictor(block_size=6)
        residuals, coefficients = pred.encode(codes)
        coefficients.coefficients = coefficients.coefficients[:-1]
        for decode in (pred.decode, lambda *args: regression_decode_reference(pred, *args)):
            with pytest.raises(ValueError, match="does not match"):
                decode(residuals, coefficients)

    def test_batched_decode_is_not_slower_than_the_block_loop(self):
        # the speed gate that sat beside the reference when it lived in src/:
        # the batched decode must never fall below the per-block loop
        # (measured ~17x at this size)
        codes = np.random.default_rng(0).integers(-500, 500, size=(256, 256)).astype(np.int64)
        pred = RegressionPredictor(block_size=6)
        residuals, coefficients = pred.encode(codes)

        def best_of(n, fn):
            times = []
            for _ in range(n):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        batched = best_of(3, lambda: pred.decode(residuals, coefficients))
        reference = best_of(1, lambda: regression_decode_reference(pred, residuals, coefficients))
        assert reference / batched >= 1.0

    def test_mismatched_block_rank_is_clear_valueerror(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(-100, 100, size=(12, 12)).astype(np.int64)
        pred = RegressionPredictor(block_size=6)
        residuals, coefficients = pred.encode(codes)
        coefficients.block_shape = (6, 6, 6)
        with pytest.raises(ValueError, match="does not match"):
            pred.decode(residuals, coefficients)


# --------------------------------------------------------------------------- #
# end-to-end compressor sweeps
# --------------------------------------------------------------------------- #
class TestCompressorSweep:
    @COMMON_SETTINGS
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([1e-2, 1e-3, 1e-4]),
        st.sampled_from(["lorenzo", "regression", "interpolation"]),
        st.integers(0, 2**32 - 1),
    )
    def test_bound_holds_and_decode_is_deterministic(self, dtype, rel_eb, predictor, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(17, 23)).astype(dtype)
        comp = SZCompressor(error_bound=ErrorBound.relative(rel_eb), predictor=predictor)
        result = comp.compress(data)
        first = comp.decompress(result.payload)
        second = comp.decompress(result.payload)
        assert first.dtype == dtype
        assert np.array_equal(first, second)  # bit-identical replays
        err = np.max(np.abs(first.astype(np.float64) - data.astype(np.float64)))
        assert err <= result.abs_error_bound * (1 + 1e-9)

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (2, 3, 4), (40, 1)])
    def test_degenerate_shapes_roundtrip(self, shape):
        rng = np.random.default_rng(9)
        data = rng.normal(size=shape).astype(np.float32)
        for predictor in ("lorenzo", "regression", "interpolation"):
            comp = SZCompressor(
                error_bound=ErrorBound.absolute(1e-3), predictor=predictor
            )
            result = comp.compress(data)
            recon = comp.decompress(result.payload)
            assert recon.shape == shape
            assert np.max(np.abs(recon - data)) <= result.abs_error_bound * (1 + 1e-9)
