"""The SZ codec's batch path against its per-chunk path, byte for byte.

``SZChunkCodec.encode_many`` runs prequantize, the predictor and the entropy
stage once over a batch of chunks, and the archive writer hands it a field's
consecutive chunks in batches.  Its contract is that every payload equals
``encode`` of that chunk alone, so archives do not change by a byte.  The
golden archives are too small for a batch to span a ragged edge, so this
module carries the contract: Hypothesis-drawn ragged grids, every predictor,
both float dtypes, bounds that the cast-safe rule shrinks in some chunks and
not in others, and radii small enough for outliers.  It also pins the
error-bound audit the batch path must keep, and the chunk an encode error
names.
"""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.slicing import iter_blocks
from repro.parallel import ChunkTaskError
from repro.store import ArchiveReader, ArchiveWriter
from repro.store import writer as writer_module
from repro.store.codecs import Codec, SZChunkCodec
from repro.sz import ErrorBound

PREDICTORS = ("lorenzo", "interpolation", "regression")

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def ragged_grids(draw):
    """A field shape and a chunk shape that need not divide it (size-1 axes allowed)."""
    ndim = draw(st.integers(1, 3))
    top = {1: 60, 2: 20, 3: 9}[ndim]
    shape = tuple(draw(st.integers(1, top)) for _ in range(ndim))
    chunk = tuple(draw(st.integers(1, n)) for n in shape)
    return shape, chunk


def _field(shape, dtype, seed):
    """Smooth data whose magnitude changes by up to 1e3 across the field.

    At a float32 bound of 1e-3 the cast-safe rule shrinks the bound where
    ``|x|`` is near 1e2 and keeps it where ``|x|`` is near 1, so one batch
    mixes both.
    """
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=shape), axis=-1)
    scale = 10.0 ** rng.uniform(0, 3, size=shape[:1] + (1,) * (len(shape) - 1))
    spikes = rng.random(shape) < 0.02  # jumps far beyond small radii
    data = walk * scale + spikes * rng.normal(0, 1e3, size=shape)
    return data.astype(dtype)


def _chunks(data, chunk):
    return [np.ascontiguousarray(data[slices]) for slices in iter_blocks(data.shape, chunk)]


class TestEncodeManyParity:
    @SETTINGS
    @given(
        ragged_grids(),
        st.sampled_from(PREDICTORS),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([1e-2, 1e-3, 1e-4]),
        st.sampled_from([2, 16, 32768]),
        st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_per_chunk_bytes(self, grid, predictor, dtype, bound, radius, seed):
        shape, chunk = grid
        chunks = _chunks(_field(shape, dtype, seed), chunk)
        codec = SZChunkCodec(ErrorBound.absolute(bound), predictor=predictor, quant_radius=radius)
        assert codec.encode_many(chunks) == [codec.encode(c) for c in chunks]

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_one_batch_mixes_shrunk_and_kept_bounds(self, predictor):
        data = np.concatenate(
            [np.full((8, 8), 0.5), np.full((8, 8), 300.0)], axis=0
        ).astype(np.float32)
        data += np.random.default_rng(3).normal(0, 1e-2, size=data.shape).astype(np.float32)
        chunks = _chunks(data, (8, 8))
        codec = SZChunkCodec(ErrorBound.absolute(1e-3), predictor=predictor, quant_radius=4)
        results = codec._compressor.compress_many(chunks)
        bounds = [result.metadata["abs_error_bound"] for result in results]
        assert bounds[0] == 1e-3 and bounds[1] < 1e-3  # kept, then shrunk
        assert results[1].metadata["stream"]["outliers"] > 0
        assert [r.payload for r in results] == [codec.encode(c) for c in chunks]

    def test_mixed_shapes_and_dtypes_keep_their_order(self):
        rng = np.random.default_rng(5)
        chunks = [
            rng.normal(size=(6, 5)).astype(np.float32),
            rng.normal(size=(3, 5)),
            rng.normal(size=(6, 5)).astype(np.float32),
            rng.normal(size=(7,)),
        ]
        codec = SZChunkCodec(ErrorBound.relative(1e-3), predictor="regression")
        assert codec.encode_many(chunks) == [codec.encode(c) for c in chunks]
        assert codec.encode_many([]) == []


class TestWriterBatches:
    @staticmethod
    def _pack(path, data, chunk, jobs, predictor="lorenzo"):
        with ArchiveWriter(
            path, chunk_shape=chunk, max_workers=jobs, error_bound=ErrorBound.absolute(1e-3)
        ) as writer:
            writer.add_field("x", data, predictor=predictor)

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_jobs_1_and_2_write_equal_chunks_equal_to_per_chunk_encode(
        self, tmp_path, predictor
    ):
        data = _field((48, 64), np.float32, 11)
        chunk = (24, 20)  # ragged along the last axis
        crcs = {}
        for jobs in (1, 2):
            path = tmp_path / f"j{jobs}.xfa"
            self._pack(path, data, chunk, jobs, predictor)
            raw = path.read_bytes()
            with ArchiveReader(path) as reader:
                entries = reader.field("x").chunks
                codec = SZChunkCodec(**reader.field("x").codec_params)
            payloads = [raw[c.offset : c.offset + c.length] for c in entries]
            assert payloads == [codec.encode(c) for c in _chunks(data, chunk)]
            crcs[jobs] = [c.crc32 for c in entries]
            assert crcs[jobs] == [zlib.crc32(p) for p in payloads]
        assert crcs[1] == crcs[2]

    def test_a_field_goes_to_the_codec_in_batches(self, tmp_path, monkeypatch):
        sizes = []
        encode_many = SZChunkCodec.encode_many

        def spy(self, chunks, anchors=None):
            sizes.append(len(chunks))
            return encode_many(self, chunks, anchors)

        monkeypatch.setattr(SZChunkCodec, "encode_many", spy)
        self._pack(tmp_path / "a.xfa", _field((48, 64), np.float32, 2), (8, 8), jobs=1)
        assert sizes == [48]  # 48 chunks of 64 points: one batch at jobs=1
        sizes.clear()
        self._pack(tmp_path / "b.xfa", _field((48, 64), np.float32, 2), (8, 8), jobs=2)
        assert sizes == [24, 24]  # at least `jobs` batches per field
        sizes.clear()
        monkeypatch.setattr(writer_module, "WRITE_BATCH_POINTS", 16 * 64)
        self._pack(tmp_path / "c.xfa", _field((48, 64), np.float32, 2), (8, 8), jobs=2)
        assert sizes == [12] * 4  # 3 batches of 16 rounded up to a multiple of `jobs`

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_codec_without_its_own_encode_many_gets_one_chunk_a_task(
        self, tmp_path, monkeypatch, jobs
    ):
        sizes = []
        encode_many = Codec.encode_many

        def spy(self, chunks, anchors=None):
            sizes.append(len(chunks))
            return encode_many(self, chunks, anchors)

        monkeypatch.setattr(Codec, "encode_many", spy)
        with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(8, 8), max_workers=jobs) as writer:
            writer.add_field("x", _field((48, 64), np.float32, 2), codec="zfp")
        assert sizes == [1] * 48

    def test_a_short_payload_list_is_an_error_naming_the_chunks(self, tmp_path, monkeypatch):
        encode_many = SZChunkCodec.encode_many
        def short(self, chunks, anchors=None):
            return encode_many(self, chunks)[:-1]

        monkeypatch.setattr(SZChunkCodec, "encode_many", short)
        with pytest.raises(ChunkTaskError, match=r"field 'x' chunks 0-47: .*47 payloads for 48"):
            self._pack(tmp_path / "a.xfa", _field((48, 64), np.float32, 2), (8, 8), jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nan_in_chunk_k_names_chunk_k(self, tmp_path, jobs):
        data = _field((48, 64), np.float32, 4)
        data[17, 45] = np.nan  # chunk (2, 5) of the 8x8 grid: index 2 * 8 + 5
        with pytest.raises(ChunkTaskError, match=r"field 'x' chunk 21: ") as caught:
            self._pack(tmp_path / "a.xfa", data, (8, 8), jobs)
        assert caught.value.context == "field 'x' chunk 21"
        assert isinstance(caught.value.original, ValueError)
        assert "non-finite" in str(caught.value.original)


class TestBoundAudit:
    """``max|x - x̂| <= abs_error_bound`` after a store round trip, no slack."""

    CASES = {
        # name: (shape, chunk, data builder, bound)
        "constant": (
            (20, 30),
            (8, 8),
            lambda rng, shape: np.full(shape, 3.7),
            ErrorBound.relative(1e-3),
        ),
        "extreme-range": (
            (24, 24),
            (8, 8),
            lambda rng, shape: rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 8, size=shape),
            ErrorBound.absolute(1e-2),
        ),
        "size-1-axis": (
            (1, 37),
            (1, 8),
            lambda rng, shape: np.cumsum(rng.normal(size=shape), axis=1),
            ErrorBound.relative(1e-3),
        ),
        "ragged-3d": (
            (9, 13, 10),
            (4, 5, 3),
            lambda rng, shape: np.cumsum(rng.normal(size=shape), axis=2),
            ErrorBound.relative(1e-4),
        ),
    }

    @staticmethod
    def _round_trip(tmp_path, data, chunk, bound, predictor):
        path = tmp_path / "a.xfa"
        with ArchiveWriter(path, chunk_shape=chunk, error_bound=bound) as writer:
            writer.add_field("x", data, predictor=predictor)
        with ArchiveReader(path) as reader:
            recon = reader.read_field("x")
            abs_error_bound = reader.field("x").abs_error_bound
        assert recon.dtype == data.dtype
        error = np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64)))
        assert error <= abs_error_bound

    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_holds(self, tmp_path, case, dtype, predictor):
        shape, chunk, build, bound = self.CASES[case]
        data = build(np.random.default_rng(0), shape).astype(dtype)
        self._round_trip(tmp_path, data, chunk, bound, predictor)

    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_holds_on_denormals(self, tmp_path, dtype, predictor):
        tiny = np.finfo(dtype).tiny
        data = (np.random.default_rng(1).normal(size=(12, 20)) * tiny / 8).astype(dtype)
        assert np.any((data != 0) & (np.abs(data) < tiny))
        self._round_trip(tmp_path, data, (8, 8), ErrorBound.absolute(tiny / 256), predictor)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_too_small_for_the_magnitude_names_the_chunk(self, tmp_path, dtype):
        data = np.full((16, 16), 1e30, dtype=dtype)
        with pytest.raises(ChunkTaskError, match=r"field 'x' chunk 0: error bound too small"):
            with ArchiveWriter(
                tmp_path / "a.xfa", chunk_shape=(8, 8), error_bound=ErrorBound.absolute(1e-6)
            ) as writer:
                writer.add_field("x", data)
