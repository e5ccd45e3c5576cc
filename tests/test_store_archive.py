"""Integration tests for the chunked archive store (writer, reader, cache)."""

import zlib

import numpy as np
import pytest

from repro.store import (
    ArchiveCorruptionError,
    ArchiveError,
    ArchiveReader,
    ArchiveWriter,
    LRUChunkCache,
)
from repro.store.codecs import SZChunkCodec
from repro.store.manifest import (
    ArchiveManifest,
    FieldEntry,
    chunks_intersecting_region,
    normalize_region,
)
from repro.sz import SZCompressor
from repro.sz.errors import ErrorBound


@pytest.fixture()
def archive(copy_archive, multi_codec_archive_master):
    """A per-test copy of the session-built every-codec archive.

    The archive itself is compressed exactly once per session (see
    ``tests/conftest.py``); the copy exists because several tests corrupt or
    truncate the file in place.
    """
    return copy_archive(multi_codec_archive_master, "snapshot.xfa")


class TestRoundTrip:
    def test_every_codec_within_bound(self, archive, cesm_small):
        with ArchiveReader(archive) as reader:
            assert reader.names == ["FLNT", "FLNTC", "CLDLOW", "CLDMED", "LWCF"]
            for name in reader.names:
                entry = reader.field(name)
                recon = reader.read_field(name)
                original = cesm_small[name].data
                assert recon.shape == original.shape
                assert recon.dtype == original.dtype
                max_err = np.max(np.abs(recon.astype(np.float64) - original.astype(np.float64)))
                if entry.codec == "lossless":
                    assert max_err == 0.0
                else:
                    assert max_err <= entry.abs_error_bound * (1 + 1e-9)

    def test_region_matches_full_decode(self, archive):
        with ArchiveReader(archive) as reader:
            full = reader.read_field("FLNT")
            region = reader.read_region("FLNT", (slice(10, 40), slice(30, 70)))
            assert np.array_equal(region, full[10:40, 30:70])

    def test_region_with_ints_and_defaults(self, archive):
        with ArchiveReader(archive) as reader:
            full = reader.read_field("FLNTC")
            assert np.array_equal(reader.read_region("FLNTC", (slice(0, 5),)), full[0:5])
            assert np.array_equal(reader.read_region("FLNTC", (7,)), full[7:8])
            assert np.array_equal(reader.read_region("FLNTC", None), full)

    def test_cross_field_region_read(self, archive):
        with ArchiveReader(archive) as reader:
            full = reader.read_field("LWCF")
            region = reader.read_region("LWCF", (slice(5, 20), slice(50, 90)))
            assert np.array_equal(region, full[5:20, 50:90])

    def test_single_chunk_region_decodes_only_that_chunk(self, archive, monkeypatch):
        decode_calls = []
        original_decode = SZChunkCodec.decode

        def counting_decode(self, payload, anchors=None):
            decode_calls.append(len(payload))
            return original_decode(self, payload, anchors=anchors)

        monkeypatch.setattr(SZChunkCodec, "decode", counting_decode)
        with ArchiveReader(archive) as reader:
            # region fully inside chunk (1, 1) of the 24x24 grid
            reader.read_region("FLNT", (slice(25, 40), slice(30, 44)))
            assert len(decode_calls) == 1
            assert reader.cache_stats()["chunks_decoded"] == 1

    def test_repeated_reads_hit_cache(self, archive):
        with ArchiveReader(archive) as reader:
            region = (slice(0, 20), slice(0, 20))
            reader.read_region("FLNT", region)
            decoded_first = reader.cache_stats()["chunks_decoded"]
            reader.read_region("FLNT", region)
            stats = reader.cache_stats()
            assert stats["chunks_decoded"] == decoded_first  # no new decompression
            assert stats["hits"] >= 1

    def test_3d_round_trip(self, tmp_path, hurricane_small):
        path = tmp_path / "h3d.xfa"
        data = hurricane_small["Uf"].data
        with ArchiveWriter(path, chunk_shape=(8, 16, 16)) as writer:
            entry = writer.add_field("Uf", data)
        assert len(entry.chunks) > 1
        with ArchiveReader(path) as reader:
            recon = reader.read_field("Uf")
            assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= (
                reader.field("Uf").abs_error_bound * (1 + 1e-9)
            )
            region = reader.read_region("Uf", (slice(3, 9), slice(10, 20), 5))
            assert np.array_equal(region, recon[3:9, 10:20, 5:6])

    def test_relative_bound_resolved_on_full_field(self, tmp_path, rng):
        # four 32x32 chunks whose local value ranges differ by up to 1000x: a
        # relative bound resolved per chunk would differ from chunk to chunk
        scales = np.kron(np.array([[1.0, 10.0], [100.0, 1000.0]]), np.ones((32, 32)))
        data = rng.normal(size=(64, 64)) * scales
        eb = ErrorBound.relative(1e-3)
        with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(32, 32), error_bound=eb) as writer:
            writer.add_field("x", data)
        with ArchiveReader(tmp_path / "a.xfa") as reader:
            entry = reader.field("x")
            bound = eb.resolve(data)
            assert entry.abs_error_bound == bound
            errors = []
            for chunk in entry.chunks:
                region = tuple(slice(a, b) for a, b in zip(chunk.start, chunk.stop))
                errors.append(np.max(np.abs(reader.read_region("x", region) - data[region])))
        assert max(errors) <= bound * (1 + 1e-9)
        # the quiet chunk 0 was coded with the field's bound, not its own
        assert errors[0] > 1e-3 * np.ptp(data[:32, :32])

    def test_chunked_ratio_close_to_single_shot(self, tmp_path, cesm_small):
        data = cesm_small["CLDTOT"].data
        eb = ErrorBound.relative(1e-3)
        single = SZCompressor(error_bound=eb).compress(data)
        with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(24, 24), error_bound=eb) as writer:
            entry = writer.add_field("CLDTOT", data)
        # per-chunk headers and tables cost something, but not an order of magnitude
        assert entry.ratio > 0.3 * single.ratio


class TestWriterValidation:
    def test_duplicate_field_rejected(self, tmp_path, rng):
        data = rng.normal(size=(16, 16))
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            writer.add_field("x", data)
            with pytest.raises(ArchiveError, match="duplicate"):
                writer.add_field("x", data)

    def test_anchor_must_exist(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="anchor"):
                writer.add_field("y", rng.normal(size=(16, 16)), codec="cross-field", anchors=("nope",))

    def test_anchor_grid_must_align(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            writer.add_field("a", rng.normal(size=(32, 32)), chunk_shape=(16, 16))
            with pytest.raises(ArchiveError, match="chunk grid"):
                writer.add_field(
                    "t", rng.normal(size=(32, 32)), codec="cross-field",
                    anchors=("a",), chunk_shape=(32, 32),
                )

    def test_anchors_only_for_anchored_codecs(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            writer.add_field("a", rng.normal(size=(16, 16)))
            with pytest.raises(ArchiveError, match="does not accept anchor"):
                writer.add_field("b", rng.normal(size=(16, 16)), anchors=("a",))

    def test_cross_field_requires_anchors(self, tmp_path, rng):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="requires at least one anchor"):
                writer.add_field("t", rng.normal(size=(16, 16)), codec="cross-field")

    def test_exception_in_with_block_abandons_file(self, tmp_path, rng):
        path = tmp_path / "a.xfa"
        writer = ArchiveWriter(path)
        with pytest.raises(RuntimeError):
            with writer:
                writer.add_field("x", rng.normal(size=(8, 8)))
                raise RuntimeError("boom")
        # nothing is published and the temp file is cleaned up
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
        # a later close() must not report success for an unpublished archive
        with pytest.raises(ArchiveError, match="aborted"):
            writer.close()
        assert not path.exists()
        with pytest.raises(ArchiveError, match="closed"):
            writer.add_field("y", rng.normal(size=(8, 8)))

    def test_published_archive_respects_umask(self, tmp_path, rng):
        import os

        path = tmp_path / "a.xfa"
        with ArchiveWriter(path) as writer:
            writer.add_field("x", rng.normal(size=(8, 8)))
        umask = os.umask(0)
        os.umask(umask)
        # the archive gets the permissions a normally created file would get
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_non_json_attrs_rejected_eagerly(self, tmp_path):
        with pytest.raises(TypeError, match="JSON-serialisable"):
            ArchiveWriter(tmp_path / "a.xfa", attrs={"n": np.int64(5)})
        # non-string keys break sort_keys at manifest time; reject them too
        with pytest.raises(TypeError, match="JSON-serialisable"):
            ArchiveWriter(tmp_path / "a.xfa", attrs={1: "x", "y": 2})

    def test_failed_finalize_cleans_up(self, tmp_path, rng, monkeypatch):
        writer = ArchiveWriter(tmp_path / "a.xfa")
        writer.add_field("x", rng.normal(size=(8, 8)))
        monkeypatch.setattr(
            ArchiveManifest, "checked_json", lambda self: (_ for _ in ()).throw(TypeError("boom"))
        )
        with pytest.raises(TypeError, match="boom"):
            writer.close()
        # no temp residue, no published file, writer unusable afterwards
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ArchiveError, match="closed"):
            writer.add_field("y", rng.normal(size=(8, 8)))

    def test_close_releases_fetcher_cache(self, tmp_path, rng):
        writer = ArchiveWriter(tmp_path / "a.xfa")
        writer.add_field("x", rng.normal(size=(8, 8)))
        writer.close()
        assert writer._fetcher is None

    def test_concurrent_writers_do_not_clobber_each_other(self, tmp_path, rng):
        path = tmp_path / "a.xfa"
        data_a = rng.normal(size=(8, 8))
        data_b = rng.normal(size=(8, 8))
        writer_a = ArchiveWriter(path)
        writer_b = ArchiveWriter(path)
        # interleaved packs to the same destination use distinct temp files
        writer_a.add_field("x", data_a)
        writer_b.add_field("x", data_b)
        writer_a.close()
        writer_b.close()  # last close wins the atomic rename
        with ArchiveReader(path) as reader:
            recon = reader.read_field("x")
            bound = reader.field("x").abs_error_bound
            assert np.max(np.abs(recon - data_b)) <= bound * (1 + 1e-9)
        assert list(tmp_path.iterdir()) == [path]  # no temp residue

    def test_failed_overwrite_preserves_existing_archive(self, tmp_path, rng):
        path = tmp_path / "a.xfa"
        original = rng.normal(size=(8, 8))
        with ArchiveWriter(path) as writer:
            writer.add_field("x", original)
        good_bytes = path.read_bytes()
        with pytest.raises(RuntimeError):
            with ArchiveWriter(path) as writer:
                writer.add_field("x", rng.normal(size=(8, 8)))
                raise RuntimeError("boom mid-pack")
        # the old valid archive survives the failed re-pack untouched
        assert path.read_bytes() == good_bytes
        with ArchiveReader(path) as reader:
            assert reader.read_field("x").shape == (8, 8)

    def test_closed_writer_rejects_writes(self, tmp_path, rng):
        writer = ArchiveWriter(tmp_path / "a.xfa")
        writer.add_field("x", rng.normal(size=(8, 8)))
        writer.close()
        with pytest.raises(ArchiveError, match="closed"):
            writer.add_field("y", rng.normal(size=(8, 8)))

    def test_serial_executor_matches_thread(self, tmp_path, cesm_small):
        data = cesm_small["CLDTOT"].data
        paths = []
        for kind in ("serial", "thread"):
            path = tmp_path / f"{kind}.xfa"
            with ArchiveWriter(path, chunk_shape=(24, 24), executor_kind=kind) as writer:
                writer.add_field("CLDTOT", data)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_serial_matches_thread_with_anchors(self, tmp_path, cesm_small):
        # the threaded path interleaves anchor reads (workers) with payload
        # appends (main thread) on one file handle; output must still be
        # byte-identical to the serial reference
        paths = []
        for kind in ("serial", "thread"):
            path = tmp_path / f"{kind}.xfa"
            with ArchiveWriter(
                path, chunk_shape=(16, 16), executor_kind=kind, max_workers=4
            ) as writer:
                writer.add_field("CLDLOW", cesm_small["CLDLOW"].data)
                writer.add_field(
                    "CLDTOT",
                    cesm_small["CLDTOT"].data,
                    codec="cross-field",
                    anchors=("CLDLOW",),
                    epochs=2,
                    n_patches=8,
                )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestParallelReads:
    def test_jobs_one_matches_parallel(self, archive):
        with ArchiveReader(archive, jobs=1) as serial, ArchiveReader(archive) as parallel:
            for name in serial.names:
                assert np.array_equal(serial.read_field(name), parallel.read_field(name))
            region = (slice(5, 40), slice(20, 90))
            assert np.array_equal(
                serial.read_region("FLNT", region), parallel.read_region("FLNT", region)
            )

    def test_process_kind_rejected(self, archive, tmp_path):
        # reads have one knob, jobs; there is no process backend to select
        with pytest.raises(TypeError, match="executor_kind"):
            ArchiveReader(archive, executor_kind="process")
        # the writer's legacy alias takes only "thread" or "serial", and
        # rejects anything else before a file is created
        with pytest.raises(ValueError, match="thread"):
            ArchiveWriter(tmp_path / "a.xfa", executor_kind="process")
        assert not (tmp_path / "a.xfa").exists()

    def test_parallel_verify_matches_serial(self, archive):
        with ArchiveReader(archive, jobs=1) as serial:
            serial_report = serial.verify(deep=True)
        with ArchiveReader(archive, jobs=4) as parallel:
            parallel_report = parallel.verify(deep=True)
        assert serial_report == parallel_report
        assert parallel_report["ok"]

    def test_shared_reader_is_thread_safe(self, archive):
        # regression: many threads hammering one reader (shared file handle,
        # shared LRU cache, nested per-read pools) must all see exact data
        regions = [
            None,
            (slice(0, 30), slice(0, 50)),
            (slice(10, 40), slice(30, 70)),
            (slice(20, 48), slice(40, 96)),
        ]
        with ArchiveReader(archive, cache_bytes=256 * 1024) as reader:
            expected = {
                (name, i): reader.read_region(name, region)
                for name in ("FLNT", "LWCF")
                for i, region in enumerate(regions)
            }
            errors = []
            results = {}

            def hammer(worker):
                try:
                    for repeat in range(3):
                        for name in ("FLNT", "LWCF"):
                            for i, region in enumerate(regions):
                                results[(worker, repeat, name, i)] = reader.read_region(
                                    name, region
                                )
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            import threading

            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            for (_, _, name, i), data in results.items():
                assert np.array_equal(data, expected[(name, i)]), (name, i)


class TestCorruption:
    def test_chunk_crc_detected(self, archive):
        with ArchiveReader(archive) as reader:
            chunk = reader.field("FLNT").chunks[0]
        raw = bytearray(archive.read_bytes())
        raw[chunk.offset + chunk.length // 2] ^= 0xFF
        archive.write_bytes(bytes(raw))
        with ArchiveReader(archive) as reader:
            with pytest.raises(ArchiveCorruptionError, match="CRC"):
                reader.read_field("FLNT")
            report = reader.verify()
            assert not report["ok"]
            assert not report["fields"]["FLNT"]["ok"]
            assert report["fields"]["FLNTC"]["ok"]

    def test_deep_verify_does_not_trust_cache(self, archive):
        with ArchiveReader(archive) as reader:
            reader.read_field("FLNTC")  # warm the cache for every FLNTC chunk
            chunk = reader.field("FLNTC").chunks[0]
            # damage the file behind the still-open reader
            with open(archive, "r+b") as fh:
                fh.seek(chunk.offset)
                fh.write(b"\xff" * 4)
            report = reader.verify(deep=True)
            assert not report["ok"]
            assert not report["fields"]["FLNTC"]["ok"]

    def test_deep_verify_refreshes_anchor_chunks(self, archive):
        with ArchiveReader(archive) as reader:
            reader.read_field("LWCF")  # warms LWCF and its anchors FLNT/FLNTC
            chunk = reader.field("FLNT").chunks[0]
            with open(archive, "r+b") as fh:
                fh.seek(chunk.offset)
                fh.write(b"\xff" * 4)
            report = reader.verify(deep=True)
            assert not report["fields"]["FLNT"]["ok"]
            # the cross-field target depends on the damaged anchor: deep verify
            # must not decode it against the stale cached anchor chunk
            assert not report["fields"]["LWCF"]["ok"]

    def test_deep_verify_decodes_each_chunk_exactly_once(self, archive, monkeypatch):
        import repro.store.reader as reader_module

        decodes = []
        real_get_codec = reader_module.get_codec

        def counting_get_codec(name, **params):
            codec = real_get_codec(name, **params)
            decode = codec.decode

            def counted(payload, anchors=None):
                decodes.append(name)
                return decode(payload, anchors=anchors)

            codec.decode = counted
            return codec

        monkeypatch.setattr(reader_module, "get_codec", counting_get_codec)
        with ArchiveReader(archive) as reader:
            total_chunks = sum(len(e.chunks) for e in reader.fields())
            report = reader.verify(deep=True)
            assert report["ok"]
        # anchors shared by cross-field targets are decoded once within the
        # pass: one decode per stored chunk, no multiplicative re-decoding
        assert len(decodes) == total_chunks

    def test_deep_verify_reports_codec_crash_not_traceback(self, archive, monkeypatch):
        # a CRC-consistent but malformed payload makes codecs raise
        # backend-specific errors (zlib.error, ...); verify must report, not die
        from repro.store.codecs import LosslessChunkCodec

        def broken_decode(self, payload, anchors=None):
            raise zlib.error("invalid compressed stream")

        monkeypatch.setattr(LosslessChunkCodec, "decode", broken_decode)
        with ArchiveReader(archive) as reader:
            report = reader.verify(deep=True)
            assert not report["ok"]
            assert not report["fields"]["CLDLOW"]["ok"]  # the lossless field
            assert any("invalid compressed stream" in e for e in report["errors"])

    def test_verify_errors_always_name_field_and_chunk(self, archive, monkeypatch):
        # bare backend errors carry no coordinates of their own; the report
        # must still say which field and chunk failed, for every chunk
        from repro.store.codecs import LosslessChunkCodec

        def broken_decode(self, payload, anchors=None):
            raise zlib.error("invalid compressed stream")

        monkeypatch.setattr(LosslessChunkCodec, "decode", broken_decode)
        with ArchiveReader(archive) as reader:
            n_chunks = len(reader.field("CLDLOW").chunks)
            report = reader.verify(deep=True)
        assert len(report["errors"]) == n_chunks
        for index in range(n_chunks):
            assert (
                f"field 'CLDLOW' chunk {index}: invalid compressed stream"
                in report["errors"]
            )

    def test_verify_keeps_context_of_corruption_errors_unduplicated(self, archive):
        with ArchiveReader(archive) as reader:
            chunk = reader.field("FLNT").chunks[1]
        raw = bytearray(archive.read_bytes())
        raw[chunk.offset + 2] ^= 0xFF
        archive.write_bytes(bytes(raw))
        with ArchiveReader(archive) as reader:
            report = reader.verify()
        crc_errors = [e for e in report["errors"] if "CRC" in e]
        assert crc_errors, report["errors"]
        for error in crc_errors:
            # ArchiveCorruptionError already names the chunk; no double prefix
            assert error.count("field 'FLNT' chunk 1") == 1

    def test_manifest_crc_detected(self, archive):
        raw = bytearray(archive.read_bytes())
        raw[-30] ^= 0xFF  # inside the manifest JSON
        archive.write_bytes(bytes(raw))
        with pytest.raises(ArchiveCorruptionError):
            ArchiveReader(archive)

    def test_truncated_file_detected(self, archive):
        raw = archive.read_bytes()
        archive.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArchiveCorruptionError):
            ArchiveReader(archive)

    def test_short_chunk_list_detected(self, archive):
        with ArchiveReader(archive) as reader:
            # simulate a CRC-valid but inconsistent manifest: the chunk list is
            # shorter than the chunk grid implies
            reader.manifest["FLNT"].chunks.pop()
            with pytest.raises(ArchiveCorruptionError, match="chunk grid"):
                reader.read_field("FLNT")
            # verify must agree with the read path, in both modes
            for deep in (False, True):
                report = reader.verify(deep=deep)
                assert not report["ok"]
                assert not report["fields"]["FLNT"]["ok"]
                assert any("chunk grid" in e for e in report["errors"])

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.xfa"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(ArchiveCorruptionError):
            ArchiveReader(path)


class TestManifest:
    def test_manifest_json_round_trip(self, archive):
        with ArchiveReader(archive) as reader:
            manifest = reader.manifest
        rebuilt = ArchiveManifest.from_json(manifest.to_json())
        assert rebuilt.names == manifest.names
        for name in manifest.names:
            assert rebuilt[name].to_dict() == manifest[name].to_dict()

    def test_field_entry_accounting(self, archive, cesm_small):
        with ArchiveReader(archive) as reader:
            entry = reader.field("FLNT")
        assert entry.original_nbytes == cesm_small["FLNT"].data.nbytes
        assert entry.compressed_nbytes == sum(c.length for c in entry.chunks)
        assert entry.ratio > 1.0
        assert entry.grid_counts == (2, 4)

    def test_unknown_field(self, archive):
        with ArchiveReader(archive) as reader:
            with pytest.raises(KeyError):
                reader.read_field("missing")

    def test_zero_chunk_shape_rejected_at_parse(self):
        entry_dict = FieldEntry(
            name="x", dtype="float32", shape=(8, 8), chunk_shape=(8, 8), codec="sz"
        ).to_dict()
        entry_dict["chunk_shape"] = [0, 8]
        with pytest.raises(ArchiveCorruptionError, match="positive"):
            FieldEntry.from_dict(entry_dict)
        entry_dict["chunk_shape"] = [8]
        with pytest.raises(ArchiveCorruptionError, match="rank"):
            FieldEntry.from_dict(entry_dict)

    def test_inconsistent_chunk_extents_rejected_at_parse(self, archive):
        with ArchiveReader(archive) as reader:
            entry_dict = reader.field("FLNT").to_dict()
        entry_dict["chunks"][1]["start"] = [0, 0]  # lies about its grid cell
        with pytest.raises(ArchiveCorruptionError, match="chunk grid implies"):
            FieldEntry.from_dict(entry_dict)

    def test_excess_chunk_entries_rejected_at_parse(self, archive):
        with ArchiveReader(archive) as reader:
            entry_dict = reader.field("FLNT").to_dict()
        entry_dict["chunks"].append(entry_dict["chunks"][-1])
        with pytest.raises(ArchiveCorruptionError, match="holds only"):
            FieldEntry.from_dict(entry_dict)

    def test_scalar_field_rejected(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="scalar"):
                writer.add_field("s", np.float32(3.5))

    def test_bad_dtype_rejected_at_parse(self):
        entry_dict = FieldEntry(
            name="x", dtype="float32", shape=(8, 8), chunk_shape=(8, 8), codec="sz"
        ).to_dict()
        entry_dict["dtype"] = "junk"
        with pytest.raises(ArchiveCorruptionError, match="dtype"):
            FieldEntry.from_dict(entry_dict)

    def test_normalize_region_errors(self):
        with pytest.raises(ArchiveError, match="rank"):
            normalize_region((10, 10), (slice(0, 1), slice(0, 1), slice(0, 1)))
        with pytest.raises(ArchiveError, match="step"):
            normalize_region((10,), (slice(0, 10, 2),))
        with pytest.raises(ArchiveError, match="empty"):
            normalize_region((10,), (slice(5, 5),))
        with pytest.raises(ArchiveError, match="out of bounds"):
            normalize_region((10,), (12,))

    def test_chunks_intersecting_region(self):
        shape, chunk = (10, 10), (4, 4)
        region = normalize_region(shape, (slice(0, 3), slice(0, 3)))
        assert chunks_intersecting_region(shape, chunk, region) == [0]
        region = normalize_region(shape, (slice(3, 9), slice(5, 9)))
        assert chunks_intersecting_region(shape, chunk, region) == [1, 2, 4, 5, 7, 8]
        region = normalize_region(shape, None)
        assert chunks_intersecting_region(shape, chunk, region) == list(range(9))


class TestLRUChunkCache:
    def test_byte_budget_eviction(self):
        cache = LRUChunkCache(max_bytes=3 * 800)  # three 10x10 float64 chunks
        chunks = [np.full((10, 10), i, dtype=np.float64) for i in range(4)]
        for i, chunk in enumerate(chunks):
            cache.put(("f", i), chunk)
        assert len(cache) == 3
        assert cache.get(("f", 0)) is None  # evicted (least recently used)
        assert cache.get(("f", 3)) is not None
        assert cache.evictions == 1

    def test_lru_ordering(self):
        cache = LRUChunkCache(max_bytes=2 * 80)
        a, b, c = (np.full(10, v, dtype=np.float64) for v in (1, 2, 3))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", c)
        assert cache.get("b") is None  # "b" was least recently used
        assert cache.get("a") is not None

    def test_oversized_chunk_not_cached(self):
        cache = LRUChunkCache(max_bytes=10)
        cache.put("big", np.zeros(100))
        assert len(cache) == 0

    def test_oversized_replacement_drops_stale_entry(self):
        cache = LRUChunkCache(max_bytes=100)
        cache.put("k", np.zeros(10, dtype=np.uint8))
        cache.put("k", np.zeros(200, dtype=np.uint8))  # over budget
        assert cache.get("k") is None  # stale small entry must not survive
        assert cache.nbytes == 0

    def test_zero_budget_disables_cache(self):
        cache = LRUChunkCache(max_bytes=0)
        cache.put("x", np.zeros(4))
        assert cache.get("x") is None

    def test_stats(self):
        cache = LRUChunkCache()
        cache.put("x", np.zeros(4))
        cache.get("x")
        cache.get("y")
        stats = cache.stats
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1


class TestPreviewReads:
    """Progressive (prefix) reads through the reader's preview path."""

    @pytest.fixture()
    def zfp_archive(self, tmp_path, cesm_small):
        path = tmp_path / "zfp-preview.xfa"
        with ArchiveWriter(
            path, chunk_shape=(24, 24), error_bound=ErrorBound.relative(1e-3)
        ) as writer:
            writer.add_field("FLNT", cesm_small["FLNT"].data, codec="zfp")
            writer.add_field("FLNTC", cesm_small["FLNTC"].data)  # sz: no preview
        return path

    def test_full_fraction_matches_read_field(self, zfp_archive):
        with ArchiveReader(zfp_archive) as reader:
            full = reader.read_field("FLNT")
            preview, info = reader.read_region_preview("FLNT", None, fraction=1.0)
        assert np.array_equal(preview, full)
        assert info["bytes_decoded"] == info["bytes_total"]
        assert info["rms_error_estimate"] == 0.0
        assert info["fraction"] == 1.0

    def test_partial_fraction_decodes_prefix(self, zfp_archive):
        with ArchiveReader(zfp_archive) as reader:
            full = reader.read_field("FLNT").astype(np.float64)
            coarse, info = reader.read_region_preview("FLNT", None, fraction=0.25)
        assert coarse.shape == full.shape
        assert info["bytes_decoded"] < info["bytes_total"]
        assert info["groups_decoded"] < info["groups_total"]
        assert info["chunks"] == 8
        # the aggregated estimate really describes the coarse field
        rms = float(np.sqrt(np.mean((coarse.astype(np.float64) - full) ** 2)))
        assert rms > 0.0
        assert info["rms_error_estimate"] > 0.0

    def test_region_preview_matches_region_of_field_preview(self, zfp_archive):
        region = (slice(0, 24), slice(10, 40))
        with ArchiveReader(zfp_archive) as reader:
            whole, _ = reader.read_region_preview("FLNT", None, fraction=0.3)
            window, _ = reader.read_region_preview("FLNT", region, fraction=0.3)
        assert np.array_equal(window, whole[region])

    def test_preview_entries_never_alias_full_decodes(self, zfp_archive):
        with ArchiveReader(zfp_archive) as reader:
            coarse, _ = reader.read_region_preview("FLNT", None, fraction=0.25)
            full = reader.read_field("FLNT")
            coarse_again, _ = reader.read_region_preview("FLNT", None, fraction=0.25)
        assert not np.array_equal(coarse, full)
        assert np.array_equal(coarse, coarse_again)

    def test_preview_cache_hits_skip_decode(self, zfp_archive):
        with ArchiveReader(zfp_archive) as reader:
            _, info_a = reader.read_region_preview("FLNT", None, fraction=0.25)
            decodes = reader.cache_stats()["previews_decoded"]
            _, info_b = reader.read_region_preview("FLNT", None, fraction=0.25)
            decodes_after = reader.cache_stats()["previews_decoded"]
        assert decodes_after == decodes == 8  # second sweep served from cache
        assert info_a == info_b  # including the cached decode reports

    def test_non_progressive_codec_falls_back_to_full(self, zfp_archive):
        with ArchiveReader(zfp_archive) as reader:
            full = reader.read_field("FLNTC")
            preview, info = reader.read_region_preview("FLNTC", None, fraction=0.1)
        assert np.array_equal(preview, full)
        assert info["bytes_decoded"] == info["bytes_total"] > 0
        assert info["rms_error_estimate"] == 0.0

    def test_bad_fraction_rejected(self, zfp_archive):
        with ArchiveReader(zfp_archive) as reader:
            with pytest.raises(ValueError):
                reader.read_region_preview("FLNT", None, fraction=0.0)
            with pytest.raises(ValueError):
                reader.read_region_preview("FLNT", None, fraction=float("nan"))
