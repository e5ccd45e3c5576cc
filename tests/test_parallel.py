"""Unit and integration tests for block-parallel compression."""

import numpy as np
import pytest

from repro.parallel import BlockParallelCompressor, BlockSpec, plan_blocks
from repro.sz import ErrorBound, SZCompressor


class TestBlockPlanning:
    def test_plan_covers_grid(self):
        specs = plan_blocks((10, 13), (4, 4))
        covered = np.zeros((10, 13), dtype=int)
        for spec in specs:
            covered[spec.slices] += 1
        assert np.all(covered == 1)
        assert [s.index for s in specs] == list(range(len(specs)))

    def test_block_spec_round_trip(self):
        spec = plan_blocks((10, 10), (4, 4))[3]
        rebuilt = BlockSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.shape == spec.shape
        assert rebuilt.size == spec.size

    def test_extract(self):
        data = np.arange(100).reshape(10, 10)
        spec = plan_blocks((10, 10), (4, 4))[0]
        assert np.array_equal(spec.extract(data), data[:4, :4])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            plan_blocks((10, 10), (4,))


class TestBlockParallelCompressor:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_round_trip_2d(self, cesm_small, kind):
        data = cesm_small["FLNT"].data
        parallel = BlockParallelCompressor(
            compressor=SZCompressor(error_bound=ErrorBound.relative(1e-3)),
            block_shape=(24, 24),
            executor_kind=kind,
            max_workers=3,
        )
        result = parallel.compress(data, field_name="FLNT")
        recon = parallel.decompress(result.payload)
        assert recon.shape == data.shape
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)
        assert result.n_blocks == len(result.block_results)
        assert result.ratio > 1.0

    def test_round_trip_3d(self, hurricane_small):
        data = hurricane_small["Uf"].data
        parallel = BlockParallelCompressor(block_shape=(8, 16, 16))
        result = parallel.compress(data)
        recon = parallel.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)

    def test_error_bound_matches_single_shot_semantics(self, cesm_small):
        # blocks use the absolute bound resolved on the FULL array, not per block
        data = cesm_small["FLUT"].data
        eb = ErrorBound.relative(1e-3)
        single = SZCompressor(error_bound=eb).compress(data)
        blocked = BlockParallelCompressor(
            compressor=SZCompressor(error_bound=eb), block_shape=(16, 16)
        ).compress(data)
        assert np.isclose(blocked.abs_error_bound, single.abs_error_bound)

    def test_blocked_ratio_close_to_single_shot(self, cesm_small):
        data = cesm_small["CLDTOT"].data
        eb = ErrorBound.relative(1e-3)
        single = SZCompressor(error_bound=eb).compress(data)
        blocked = BlockParallelCompressor(
            compressor=SZCompressor(error_bound=eb), block_shape=(24, 24)
        ).compress(data)
        # per-block headers cost something, but not an order of magnitude
        assert blocked.ratio > 0.3 * single.ratio

    def test_default_block_shape(self, cesm_small):
        parallel = BlockParallelCompressor()
        result = parallel.compress(cesm_small["LWCF"].data)
        assert result.n_blocks >= 1

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            BlockParallelCompressor(executor_kind="gpu")

    def test_wrong_payload_rejected(self, cesm_small):
        single = SZCompressor().compress(cesm_small["LWCF"].data)
        with pytest.raises(ValueError):
            BlockParallelCompressor().decompress(single.payload)

    def test_bit_rate_property(self, cesm_small):
        result = BlockParallelCompressor().compress(cesm_small["LWCF"].data)
        assert result.bit_rate > 0

    def test_bit_rate_uses_element_count(self, cesm_small):
        # float32 and float64 copies of the same field must report bits per
        # VALUE relative to the same element count, not nbytes // 4
        data32 = cesm_small["LWCF"].data.astype(np.float32)
        data64 = data32.astype(np.float64)
        eb = ErrorBound.absolute(0.05)
        r32 = BlockParallelCompressor(compressor=SZCompressor(error_bound=eb)).compress(data32)
        r64 = BlockParallelCompressor(compressor=SZCompressor(error_bound=eb)).compress(data64)
        assert r32.element_count == r64.element_count == data32.size
        assert r32.bit_rate == 8.0 * r32.compressed_nbytes / data32.size
        assert r64.bit_rate == 8.0 * r64.compressed_nbytes / data64.size
        # identical content at the same absolute bound: similar bits/value,
        # while the old nbytes // 4 accounting would have halved the f64 rate
        assert abs(r64.bit_rate - r32.bit_rate) < 0.5 * r32.bit_rate

    def test_bit_rate_legacy_fallback(self):
        from repro.parallel import BlockCompressionResult

        legacy = BlockCompressionResult(
            payload=b"x" * 100,
            original_nbytes=400,
            compressed_nbytes=100,
            abs_error_bound=0.1,
            n_blocks=1,
        )
        assert legacy.bit_rate == 8.0  # falls back to 4-byte elements
