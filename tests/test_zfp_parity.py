"""Cross-implementation parity harness for the vectorised ZFP path.

The batched field transforms (`field_transform_forward` / `_inverse`) promise
*bit-identical* output to the per-block scalar references
(`block_transform_forward` / `block_transform_inverse`): both contract each
axis with the same fixed-order multiply/add sequence, so stacking blocks
cannot change a single bit.  This suite drives both implementations through
Hypothesis-generated shapes (1D/2D/3D, degenerate and ragged edges), block
sizes and dtypes, and asserts exact equality — the same pattern as
``tests/test_sz_parity.py``.

The progressive grouped layout is pinned from two directions:

- decoding every prefix of the significance groups must give a monotonically
  non-increasing L2 error, with the codec's own ``rms_error_estimate``
  bracketing the measured RMS to within the quantization bound (the transform
  is orthonormal, so the dropped-group energy *is* the L2 distance to the
  full decode);
- a grouped payload re-interleaved by hand into a legacy flat stream must
  decode bit-identically through the legacy (interleaved) path on fields with
  no ragged edges, proving the reorder is pure permutation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.slicing import iter_blocks
from repro.encoding.container import CompressedBlob
from repro.sz.errors import ErrorBound
from repro.sz.pipeline import decode_integer_stream, encode_integer_stream
from repro.zfp import (
    MAX_TRANSFORM_SIZE,
    ZFPLikeCompressor,
    block_transform_forward,
    block_transform_inverse,
    clear_significance_plans,
    dct_matrix,
    field_transform_forward,
    field_transform_inverse,
    groups_for_fraction,
    significance_plan,
    significance_plan_info,
)
import repro.zfp.layout as zfp_layout

COMMON_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SHAPES = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 14), st.integers(1, 14)),
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32)


@st.composite
def transform_cases(draw):
    shape = draw(SHAPES)
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int32]))
    if np.issubdtype(dtype, np.integer):
        data = draw(arrays(dtype, shape, elements=st.integers(-1000, 1000)))
    else:
        data = draw(arrays(dtype, shape, elements=FINITE))
    block_size = draw(st.integers(2, 5))
    return data, block_size


def reference_field_transform(data, block_size, inverse):
    """The original per-block loop, using the scalar reference transforms."""
    data = np.asarray(data, dtype=np.float64)
    out = np.empty(data.shape, dtype=np.float64)
    block_shape = tuple(block_size for _ in range(data.ndim))
    fn = block_transform_inverse if inverse else block_transform_forward
    for slices in iter_blocks(data.shape, block_shape):
        out[slices] = fn(data[slices])
    return out


# --------------------------------------------------------------------------- #
# batched vs reference transforms
# --------------------------------------------------------------------------- #
class TestTransformParity:
    @COMMON_SETTINGS
    @given(case=transform_cases())
    def test_forward_bit_identical(self, case):
        data, block_size = case
        batched = field_transform_forward(data, block_size)
        reference = reference_field_transform(data, block_size, inverse=False)
        assert batched.dtype == reference.dtype
        assert np.array_equal(batched, reference)

    @COMMON_SETTINGS
    @given(case=transform_cases())
    def test_inverse_bit_identical(self, case):
        data, block_size = case
        batched = field_transform_inverse(data, block_size)
        reference = reference_field_transform(data, block_size, inverse=True)
        assert np.array_equal(batched, reference)

    @COMMON_SETTINGS
    @given(case=transform_cases())
    def test_round_trip(self, case):
        data, block_size = case
        recon = field_transform_inverse(
            field_transform_forward(data, block_size), block_size
        )
        scale = max(1.0, float(np.max(np.abs(data))) if data.size else 1.0)
        assert np.allclose(recon, np.asarray(data, dtype=np.float64), atol=1e-9 * scale)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (4, 0, 3)])
    def test_empty_fields(self, shape):
        data = np.zeros(shape, dtype=np.float64)
        assert field_transform_forward(data, 4).shape == shape
        assert field_transform_inverse(data, 4).shape == shape

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            field_transform_forward(np.zeros(4), 0)


class TestDCTMatrixCache:
    def test_cache_is_bounded(self):
        assert dct_matrix.cache_info().maxsize is not None

    def test_size_ceiling(self):
        with pytest.raises(ValueError, match="MAX_TRANSFORM_SIZE"):
            dct_matrix(MAX_TRANSFORM_SIZE + 1)
        with pytest.raises(ValueError):
            dct_matrix(0)

    def test_matrices_are_read_only(self):
        matrix = dct_matrix(4)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


# --------------------------------------------------------------------------- #
# significance plans
# --------------------------------------------------------------------------- #
class TestSignificancePlans:
    @COMMON_SETTINGS
    @given(shape=SHAPES, block_size=st.integers(2, 5))
    def test_perm_is_a_permutation_ordered_by_level(self, shape, block_size):
        plan = significance_plan(shape, block_size)
        n = int(np.prod(shape))
        assert plan.n_points == n
        assert np.array_equal(np.sort(plan.perm), np.arange(n))
        coords = np.unravel_index(plan.perm, shape)
        levels = np.zeros(n, dtype=np.int64)
        for axis_coords in coords:
            levels += axis_coords % block_size
        # along the grouped stream the significance level is non-decreasing
        assert np.all(np.diff(levels) >= 0)
        assert int(plan.group_bounds[-1]) == n

    @COMMON_SETTINGS
    @given(shape=SHAPES, block_size=st.integers(2, 5))
    def test_point_counts_match_block_extents(self, shape, block_size):
        plan = significance_plan(shape, block_size)
        counts = plan.point_counts.reshape(shape)
        block_shape = tuple(block_size for _ in shape)
        for slices in iter_blocks(shape, block_shape):
            block = counts[slices]
            assert np.all(block == block.size)

    def test_cache_stats_and_clear(self):
        clear_significance_plans()
        significance_plan((8, 8), 4)
        significance_plan((8, 8), 4)
        info = significance_plan_info()
        assert info["entries"] == 1
        assert info["hits"] == 1
        assert info["misses"] == 1
        clear_significance_plans()
        assert significance_plan_info()["entries"] == 0

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(zfp_layout._PLANS, "max_cost", 1000)
        clear_significance_plans()
        for n in range(20, 40):
            significance_plan((n,), 4)
        info = significance_plan_info()
        assert info["points"] <= 1000 + 39  # at most one oversized newest entry
        clear_significance_plans()

    def test_groups_for_fraction(self):
        assert groups_for_fraction([10, 10, 10, 10], 0.5) == 2
        assert groups_for_fraction([10, 10, 10, 10], 0.01) == 1
        assert groups_for_fraction([10, 10, 10, 10], 1.0) == 4
        assert groups_for_fraction([], 0.5) == 0
        with pytest.raises(ValueError):
            groups_for_fraction([1], 0.0)
        with pytest.raises(ValueError):
            groups_for_fraction([1], float("nan"))


# --------------------------------------------------------------------------- #
# grouped layout: previews and legacy parity
# --------------------------------------------------------------------------- #
SMOOTH_SHAPES = st.one_of(
    st.tuples(st.integers(4, 40)),
    st.tuples(st.integers(4, 16), st.integers(4, 16)),
    st.tuples(st.integers(4, 8), st.integers(4, 8), st.integers(4, 8)),
)


@st.composite
def smooth_fields(draw):
    """Cumsum-smoothed random fields: realistic low-frequency energy split."""
    shape = draw(SMOOTH_SHAPES)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    data = np.cumsum(data, axis=0)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return data.astype(dtype)


class TestGroupedLayout:
    @COMMON_SETTINGS
    @given(data=smooth_fields())
    def test_preview_error_monotone_and_estimate_brackets_rms(self, data):
        eb = 1e-3 * max(1.0, float(np.max(np.abs(data))))
        comp = ZFPLikeCompressor(ErrorBound.absolute(eb), layout="grouped")
        result = comp.compress(data)
        n_groups = len(result.metadata["groups"])
        reference = data.astype(np.float64)
        blob = CompressedBlob.from_bytes(result.payload)
        previous = None
        for k in range(1, n_groups + 1):
            decoded, info = comp._decode_blob(blob, max_groups=k)
            rms = float(
                np.sqrt(np.mean((decoded.astype(np.float64) - reference) ** 2))
            )
            # the estimate is the exact L2 distance to the full decode, so it
            # brackets the measured RMS to within the point-wise bound
            estimate = info["rms_error_estimate"]
            assert abs(rms - estimate) <= eb * (1 + 1e-9) + 1e-12
            if previous is not None:
                # adding a group can only remove coefficient-domain energy
                # from the residual (orthonormal transform): allow only the
                # quantization-bound wiggle
                assert rms <= previous + 2 * eb * (1 + 1e-9) + 1e-12
            previous = rms
        assert info["groups_decoded"] == n_groups
        assert info["rms_error_estimate"] == 0.0

    @COMMON_SETTINGS
    @given(data=smooth_fields())
    def test_full_decode_honours_bound(self, data):
        eb = 1e-3 * max(1.0, float(np.max(np.abs(data))))
        comp = ZFPLikeCompressor(ErrorBound.absolute(eb), layout="grouped")
        decoded = comp.decompress(comp.compress(data).payload)
        assert (
            np.max(np.abs(decoded.astype(np.float64) - data.astype(np.float64)))
            <= eb * (1 + 1e-9)
        )

    @COMMON_SETTINGS
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 10).map(lambda n: n * 4)),
            st.tuples(
                st.integers(1, 4).map(lambda n: n * 4),
                st.integers(1, 4).map(lambda n: n * 4),
            ),
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_reinterleaved_stream_decodes_bit_identically(self, shape, seed):
        """Grouped payloads are a pure permutation of the legacy stream.

        Restricted to multiple-of-4 shapes: with no ragged blocks the per-block
        step equals the legacy scalar step bitwise, so scattering the grouped
        integer stream back to C order and wrapping it as a legacy interleaved
        payload must reproduce the grouped decode bit for bit.
        """
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=shape), axis=0).astype(np.float32)
        comp = ZFPLikeCompressor(ErrorBound.absolute(1e-2), layout="grouped")
        result = comp.compress(data)
        grouped_decode = comp.decompress(result.payload)

        # reassemble the flat C-order integer stream from the grouped sections
        blob = CompressedBlob.from_bytes(result.payload)
        metadata = blob.metadata
        plan = significance_plan(tuple(metadata["shape"]), int(metadata["block_size"]))
        flat = np.zeros(int(np.prod(metadata["shape"])), dtype=np.int64)
        offset = 0
        for group in metadata["groups"]:
            values = decode_integer_stream(blob.sections, group["stream"])
            flat[plan.perm[offset : offset + values.size]] = values
            offset += int(values.size)

        # wrap it as a legacy interleaved payload
        sections, stream_meta = encode_integer_stream(flat, comp.entropy, comp.backend)
        legacy_meta = {
            "format": comp.format_name,
            "field_name": metadata["field_name"],
            "shape": metadata["shape"],
            "dtype": metadata["dtype"],
            "error_bound": metadata["error_bound"],
            "abs_error_bound": metadata["abs_error_bound"],
            "block_size": metadata["block_size"],
            "step": metadata["step"],
            "stream": stream_meta,
        }
        legacy_payload = CompressedBlob(metadata=legacy_meta, sections=sections).to_bytes()
        legacy_decode = comp.decompress(legacy_payload)
        assert legacy_decode.dtype == grouped_decode.dtype
        assert np.array_equal(legacy_decode, grouped_decode)

    def test_ragged_grouped_ratio_not_worse_than_interleaved_step(self):
        # satellite: edge blocks quantize with their actual point count, so
        # their steps are larger and their integer coefficients no bigger
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.normal(size=(13, 19)), axis=1).astype(np.float32)
        eb = ErrorBound.absolute(1e-2)
        grouped = ZFPLikeCompressor(eb, layout="grouped").compress(data)
        plan = significance_plan((13, 19), 4)
        step_full = 2.0 * 1e-2 / np.sqrt(16.0)
        steps = 2.0 * grouped.metadata["abs_error_bound"] / np.sqrt(plan.point_counts)
        assert np.all(steps >= step_full * (1 - 1e-12))
        assert np.any(steps > step_full)  # ragged blocks really get larger steps

    def test_max_groups_validation(self):
        comp = ZFPLikeCompressor(ErrorBound.absolute(1e-2))
        payload = comp.compress(np.zeros((8, 8), dtype=np.float32)).payload
        with pytest.raises(ValueError):
            comp.decompress(payload, max_groups=0)

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            ZFPLikeCompressor(ErrorBound.absolute(1e-2), layout="banana")

    def test_interleaved_preview_falls_back_to_full(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(16, 16)).astype(np.float32)
        comp = ZFPLikeCompressor(ErrorBound.absolute(1e-2), layout="interleaved")
        payload = comp.compress(data).payload
        full = comp.decompress(payload)
        preview, info = comp.decompress_preview(payload, 0.1)
        assert np.array_equal(preview, full)
        assert info["groups_decoded"] == info["groups_total"] == 1
        assert info["bytes_decoded"] == info["bytes_total"]
        assert info["rms_error_estimate"] == 0.0
