"""Chunk-parallel compression through the archive writer.

The writer tiles a field into chunks, compresses them on a worker pool with
the bound resolved once on the full field, and records each chunk's extent in
the manifest.  These tests pin the chunk plan, the executor kinds, the bound
and the per-value bit-rate accounting of such packs.
"""

import numpy as np
import pytest

from repro.store import ArchiveReader, ArchiveWriter
from repro.store.manifest import ChunkEntry
from repro.sz import ErrorBound, SZCompressor


def _bits_per_value(entry, data):
    return 8.0 * entry.compressed_nbytes / data.size


class TestBlockPlanning:
    def test_plan_covers_grid(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(4, 4)) as writer:
            entry = writer.add_field("x", rng.normal(size=(10, 13)))
        covered = np.zeros((10, 13), dtype=int)
        for chunk in entry.chunks:
            covered[chunk.slices] += 1
        assert np.all(covered == 1)
        assert [c.index for c in entry.chunks] == list(range(len(entry.chunks)))
        assert len(entry.chunks) == int(np.prod(entry.grid_counts))

    def test_block_spec_round_trip(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(4, 4)) as writer:
            chunk = writer.add_field("x", rng.normal(size=(10, 10))).chunks[3]
        rebuilt = ChunkEntry.from_dict(chunk.to_dict())
        assert rebuilt == chunk
        assert rebuilt.shape == chunk.shape
        assert rebuilt.slices == chunk.slices

    def test_rank_mismatch(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ValueError, match="rank"):
                writer.add_field("x", rng.normal(size=(10, 10)), chunk_shape=(4,))


class TestBlockParallelCompressor:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_round_trip_2d(self, tmp_path, cesm_small, kind):
        data = cesm_small["FLNT"].data
        path = tmp_path / "a.xfa"
        with ArchiveWriter(
            path,
            error_bound=ErrorBound.relative(1e-3),
            chunk_shape=(24, 24),
            executor_kind=kind,
            max_workers=3,
        ) as writer:
            entry = writer.add_field("FLNT", data)
        with ArchiveReader(path) as reader:
            recon = reader.read_field("FLNT")
        assert recon.shape == data.shape
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= entry.abs_error_bound * (1 + 1e-9)
        assert len(entry.chunks) == int(np.prod(entry.grid_counts)) > 1
        assert entry.ratio > 1.0

    def test_round_trip_3d(self, tmp_path, hurricane_small):
        data = hurricane_small["Uf"].data
        path = tmp_path / "a.xfa"
        with ArchiveWriter(path, chunk_shape=(8, 16, 16), executor_kind="serial") as writer:
            entry = writer.add_field("Uf", data)
        with ArchiveReader(path) as reader:
            recon = reader.read_field("Uf")
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= entry.abs_error_bound * (1 + 1e-9)

    def test_default_block_shape(self, tmp_path, cesm_small):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            entry = writer.add_field("LWCF", cesm_small["LWCF"].data)
        # 64 along every axis, clamped to the field
        assert entry.chunk_shape == (48, 64)
        assert len(entry.chunks) == 2

    def test_invalid_executor(self, tmp_path):
        with pytest.raises(ValueError):
            ArchiveWriter(tmp_path / "a.xfa", executor_kind="gpu")
        assert not list(tmp_path.iterdir())

    def test_bit_rate_property(self, tmp_path, cesm_small):
        data = cesm_small["LWCF"].data
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            entry = writer.add_field("LWCF", data)
        # a lossy pack spends fewer bits per value than the raw float32 field
        assert 0 < _bits_per_value(entry, data) < 8 * data.dtype.itemsize

    def test_bit_rate_uses_element_count(self, tmp_path, cesm_small):
        # float32 and float64 copies of the same field must report bits per
        # VALUE relative to the same element count, not per 4-byte word
        data32 = cesm_small["LWCF"].data.astype(np.float32)
        data64 = data32.astype(np.float64)
        eb = ErrorBound.absolute(0.05)
        with ArchiveWriter(tmp_path / "a.xfa", error_bound=eb, chunk_shape=(24, 48)) as writer:
            e32 = writer.add_field("f32", data32)
            e64 = writer.add_field("f64", data64)
        assert e32.original_nbytes == 4 * data32.size
        assert e64.original_nbytes == 8 * data64.size
        for data in (data32, data64):
            single = SZCompressor(error_bound=eb).compress(data)
            assert single.element_count == data32.size
            assert single.bit_rate == 8.0 * single.compressed_nbytes / data32.size
        # identical content at the same absolute bound: similar bits/value,
        # while counting 4-byte words as elements would have halved the f64 rate
        b32, b64 = _bits_per_value(e32, data32), _bits_per_value(e64, data64)
        assert abs(b64 - b32) < 0.5 * b32
