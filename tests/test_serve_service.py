"""Tests for the framework-agnostic archive service core.

Everything here runs without sockets: handlers are called directly (or via
``dispatch``) and return :class:`~repro.serve.service.ServiceResponse`
objects.  The transport adapters get their own suite in
``test_serve_http.py`` — by design they add nothing but byte shuffling, so
the behaviour under test (ETag/304 semantics, error mapping, reopen on
append, shared-cache dedup) lives here.
"""

import io
import json
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.serve.service import (
    ROUTES,
    ArchiveService,
    ServiceError,
    ServiceResponse,
    _etag_matches,
)
from repro.store.shared_cache import SharedChunkCache
from repro.store.writer import ArchiveWriter


@pytest.fixture()
def snapshot_archive(tmp_path):
    """A two-field snapshot archive (zfp progressive + sz fallback)."""
    rng = np.random.default_rng(7)
    data = rng.normal(size=(32, 64)).astype(np.float32)
    path = tmp_path / "snap.xfa"
    with ArchiveWriter(path, chunk_shape=(16, 32)) as writer:
        writer.add_field("T", data, codec="zfp")
        writer.add_field("P", data * 2 + 1, codec="sz")
    return path, data


@pytest.fixture()
def series_archive(tmp_path):
    """A two-step time-stepped archive plus the base array for appends."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(16, 32)).astype(np.float32)
    path = tmp_path / "series.xfa"
    with ArchiveWriter(path, chunk_shape=(8, 16)) as writer:
        writer.add_timestep({"T": base}, step=0, time=0.0)
        writer.add_timestep({"T": base + 0.1}, step=1, time=0.5)
    return path, base


def make_service(path, **kwargs):
    kwargs.setdefault("cache", SharedChunkCache())
    return ArchiveService({"a": path}, **kwargs)


def body_json(response):
    return json.loads(response.body)


def body_array(response):
    assert response.media_type == "application/x-npy"
    return np.load(io.BytesIO(response.body))


class TestManifestAndEtags:
    def test_manifest_document(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_manifest("a")
            assert response.status == 200
            document = body_json(response)
            assert document["format"] == "XFA1"
            assert {f["name"] for f in document["fields"]} == {"T", "P"}
            for entry in document["fields"]:
                # codec params are served, raw chunk offsets are not
                assert "codec" in entry and "codec_params" in entry
                assert "chunks" not in entry
                assert entry["chunk_count"] == 4
            assert document["generation"] == service.handle("a").generation
            assert response.headers["X-Repro-Generation"] == str(document["generation"])

    def test_matching_etag_304s(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            first = service.handle_manifest("a")
            etag = first.headers["ETag"]
            again = service.handle_manifest("a", if_none_match=etag)
            assert again.status == 304
            assert again.body == b""
            assert again.headers["ETag"] == etag

    def test_etag_list_and_star_match(self):
        assert _etag_matches('"x:g1"', '"x:g1"')
        assert _etag_matches('W/"x:g1"', '"x:g1"')
        assert _etag_matches('"other", "x:g1"', '"x:g1"')
        assert _etag_matches("*", '"anything"')
        assert not _etag_matches('"x:g2"', '"x:g1"')
        assert not _etag_matches(None, '"x:g1"')

    def test_region_and_preview_also_conditional(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            etag = service.handle_manifest("a").headers["ETag"]
            assert service.handle_region("a", "T", if_none_match=etag).status == 304
            assert service.handle_preview("a", "T", if_none_match=etag).status == 304
            assert service.handle_timesteps("a", if_none_match=etag).status == 304


class TestRegionReads:
    def test_npy_bytes_round_trip(self, snapshot_archive):
        path, data = snapshot_archive
        with make_service(path) as service:
            response = service.handle_region("a", "T", region="4:12,10:30")
            assert response.status == 200
            window = body_array(response)
            assert window.shape == (8, 20)
            assert response.headers["X-Repro-Shape"] == "8,20"
            # zfp is lossy: close, not equal
            assert np.allclose(window, data[4:12, 10:30], atol=1e-2)

    def test_json_format(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_region("a", "T", region="0:2,0:3", fmt="json")
            document = body_json(response)
            assert document["shape"] == [2, 3]
            assert len(document["data"]) == 2 and len(document["data"][0]) == 3

    def test_whole_field_when_region_omitted(self, snapshot_archive):
        path, data = snapshot_archive
        with make_service(path) as service:
            window = body_array(service.handle_region("a", "T"))
            assert window.shape == data.shape


class TestPreview:
    def test_progressive_preview_reports_no_fallback(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_preview("a", "T", fraction=0.25)
            assert response.status == 200
            assert response.headers["X-Repro-Preview-Fallback"] == "false"
            decoded = int(response.headers["X-Repro-Preview-Bytes"])
            total = int(response.headers["X-Repro-Preview-Bytes-Total"])
            assert 0 < decoded < total

    def test_fallback_preview_is_flagged(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_preview("a", "P", fraction=0.25, fmt="json")
            assert response.status == 200
            assert response.headers["X-Repro-Preview-Fallback"] == "true"
            document = body_json(response)
            assert document["preview"]["fallback"] is True
            # a fallback is billed at full payload size, never claimed partial
            assert document["preview"]["bytes_decoded"] == document["preview"]["bytes_total"]

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "nan", "inf"])
    def test_bad_fraction_maps_to_422(self, snapshot_archive, fraction):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_preview("a", "T", fraction=fraction)
            assert response.status == 422
            assert "fraction" in body_json(response)["detail"]

    def test_non_numeric_fraction_maps_to_422(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            assert service.handle_preview("a", "T", fraction="lots").status == 422

    @pytest.mark.parametrize("fraction", ["abc", "0.2_5", " 0.25 "])
    def test_non_decimal_fraction_is_422_naming_it(self, snapshot_archive, fraction):
        # float() alone would serve "0.2_5" and " 0.25 " as 0.25
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_preview("a", "T", fraction=fraction)
            assert response.status == 422
            assert body_json(response)["detail"].startswith("fraction must be")

    @pytest.mark.parametrize("fraction", ["0.25", "1", "2.5e-1"])
    def test_decimal_fractions_still_parse(self, snapshot_archive, fraction):
        path, _ = snapshot_archive
        with make_service(path) as service:
            assert service.handle_preview("a", "T", fraction=fraction).status == 200


class TestErrorMapping:
    def test_unknown_archive_404(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            for response in (
                service.handle_manifest("nope"),
                service.handle_region("nope", "T"),
                service.handle_refresh("nope"),
            ):
                assert response.status == 404
                assert "nope" in body_json(response)["detail"]

    def test_unknown_field_404(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_region("a", "MISSING")
            assert response.status == 404
            assert "MISSING" in body_json(response)["detail"]

    def test_out_of_bounds_int_416(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            response = service.handle_region("a", "T", region="99")
            assert response.status == 416

    def test_empty_region_416(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            assert service.handle_region("a", "T", region="5:5").status == 416

    def test_malformed_region_syntax_422(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            assert service.handle_region("a", "T", region="banana").status == 422

    def test_unknown_format_422(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            assert service.handle_region("a", "T", fmt="xml").status == 422

    def test_missing_timestep_404(self, series_archive):
        path, _ = series_archive
        with make_service(path) as service:
            response = service.handle_timestep("a", 99)
            assert response.status == 404
            assert "99" in body_json(response)["detail"]

    def test_non_integer_step_422(self, series_archive):
        path, _ = series_archive
        with make_service(path) as service:
            assert service.handle_timestep("a", "first").status == 422

    def test_corrupt_archive_500(self, snapshot_archive, tmp_path):
        path, _ = snapshot_archive
        raw = bytearray(path.read_bytes())
        # flip a byte inside the first chunk payload, far from the manifest
        raw[64] ^= 0xFF
        bad = tmp_path / "bad.xfa"
        bad.write_bytes(bytes(raw))
        with ArchiveService({"bad": bad}, cache=SharedChunkCache()) as service:
            response = service.handle_region("bad", "T")
            assert response.status == 500

    def test_service_error_carries_status(self):
        error = ServiceError(418, "teapot")
        response = error.to_response()
        assert response.status == 418
        assert body_json(response)["detail"] == "teapot"


class TestTimesteps:
    def test_index_and_single_step(self, series_archive):
        path, base = series_archive
        with make_service(path) as service:
            index = body_json(service.handle_timesteps("a"))
            assert [entry["step"] for entry in index["steps"]] == [0, 1]
            document = body_json(service.handle_timestep("a", 1))
            assert document["step"] == 1
            array = np.asarray(document["fields"]["T"]["data"], dtype=np.float32)
            assert np.allclose(array, base + 0.1, atol=1e-2)

    def test_npz_format(self, series_archive):
        path, _ = series_archive
        with make_service(path) as service:
            response = service.handle_timestep("a", 0, fmt="npz")
            assert response.status == 200
            npz = np.load(io.BytesIO(response.body))
            assert npz.files == ["T"]

    def test_timerange_stats_and_data(self, series_archive):
        path, _ = series_archive
        with make_service(path) as service:
            stats = body_json(service.handle_timerange("a", start=0, stop=2))
            assert len(stats["steps"]) == 2
            assert "mean" in stats["steps"][0]["fields"]["T"]
            assert "data" not in stats["steps"][0]["fields"]["T"]
            full = body_json(service.handle_timerange("a", start=1, include="data"))
            assert len(full["steps"]) == 1
            assert "data" in full["steps"][0]["fields"]["T"]

    @pytest.mark.parametrize(
        "path", ["/archives/a/timesteps/1", "/archives/a/timerange"], ids=["timestep", "timerange"]
    )
    def test_step_reads_honour_if_none_match(self, series_archive, path):
        archive, base = series_archive
        with make_service(archive, refresh="manual") as service:
            etag = service.dispatch("GET", path, {}, {}).headers["ETag"]
            cached = service.dispatch("GET", path, {}, {"If-None-Match": etag})
            assert cached.status == 304
            assert cached.body == b""
            assert cached.headers["ETag"] == etag

            with ArchiveWriter(archive, mode="a") as writer:
                writer.add_timestep({"T": base + 0.2}, step=2, time=1.0)
            assert body_json(service.handle_refresh("a"))["reopened"] is True
            fresh = service.dispatch("GET", path, {}, {"If-None-Match": etag})
            assert fresh.status == 200
            assert fresh.headers["ETag"] != etag

    @pytest.mark.parametrize(
        "path, query, name",
        [
            ("/archives/a/timerange", {"include": "bogus"}, "include"),
            ("/archives/a/timesteps/0", {"format": "xml"}, "format"),
            ("/archives/a/timesteps/0_1", {}, "step"),
            ("/archives/a/timesteps/1_0", {}, "step"),
            ("/archives/a/timesteps/%201", {}, "step"),
            ("/archives/a/timesteps/1.0", {}, "step"),
            ("/archives/a/timerange", {"start": "1_0"}, "start"),
            ("/archives/a/timerange", {"stop": "0x1"}, "stop"),
        ],
    )
    def test_bad_parameter_is_422_naming_it(self, series_archive, path, query, name):
        archive, _ = series_archive
        with make_service(archive) as service:
            response = service.dispatch("GET", path, query, {})
            assert response.status == 422
            assert body_json(response)["detail"].startswith(f"{name} must be")

    def test_signed_decimal_steps_still_parse(self, series_archive):
        archive, _ = series_archive
        with make_service(archive) as service:
            response = service.dispatch("GET", "/archives/a/timesteps/+1", {}, {})
            assert body_json(response)["step"] == 1
            steps = body_json(service.handle_timerange("a", start="-5", stop="+1"))["steps"]
            assert [entry["step"] for entry in steps] == [0]


class TestAppendWhileServing:
    def test_manual_mode_pins_generation_until_refresh(self, series_archive):
        path, base = series_archive
        with make_service(path, refresh="manual") as service:
            etag = service.handle_manifest("a").headers["ETag"]
            # timestep fields are stored under {name}@{step}
            before = body_array(service.handle_region("a", "T@0"))

            with ArchiveWriter(path, mode="a") as writer:
                writer.add_timestep({"T": base + 0.2}, step=2, time=1.0)

            # the pinned client keeps its consistent snapshot: same ETag
            # 304s, same bytes, same timestep index
            assert service.handle_manifest("a", if_none_match=etag).status == 304
            unchanged = body_array(service.handle_region("a", "T@0"))
            assert np.array_equal(before, unchanged)
            steps = body_json(service.handle_timesteps("a"))["steps"]
            assert [entry["step"] for entry in steps] == [0, 1]

            # explicit refresh reopens onto G+1: new ETag, new timestep
            report = body_json(service.handle_refresh("a"))
            assert report["reopened"] is True
            fresh = service.handle_manifest("a", if_none_match=etag)
            assert fresh.status == 200
            assert fresh.headers["ETag"] != etag
            steps = body_json(service.handle_timesteps("a"))["steps"]
            assert [entry["step"] for entry in steps] == [0, 1, 2]

    def test_auto_mode_sees_append_on_next_request(self, series_archive):
        path, base = series_archive
        with make_service(path, refresh="auto") as service:
            generation = service.handle("a").generation
            with ArchiveWriter(path, mode="a") as writer:
                writer.add_timestep({"T": base + 0.3}, step=2, time=1.0)
            steps = body_json(service.handle_timesteps("a"))["steps"]
            assert [entry["step"] for entry in steps] == [0, 1, 2]
            assert service.handle("a").generation > generation

    def test_same_size_repack_is_a_new_snapshot(self, tmp_path):
        """A re-pack renamed over the served path is noticed even at the same size.

        ``repro pack`` writes a temp file and renames it into place, so the
        served path gets a new inode; the generation (the file size) alone
        cannot tell the two archives apart.
        """

        def pack(path, seed):
            data = np.random.default_rng(seed).normal(size=(32, 32)).astype(np.float32)
            with ArchiveWriter(path, chunk_shape=(16, 16)) as writer:
                writer.add_field("T", data, codec="lossless", backend="raw")
            return data

        served = tmp_path / "t.xfa"
        pack(served, 1)
        with make_service(served) as auto, make_service(served, refresh="manual") as manual:
            etag = auto.handle_region("a", "T").headers["ETag"]
            repacked = pack(tmp_path / "repack.xfa", 20)
            assert (tmp_path / "repack.xfa").stat().st_size == served.stat().st_size
            os.replace(tmp_path / "repack.xfa", served)

            response = auto.handle_region("a", "T", if_none_match=etag)
            assert response.status == 200
            assert response.headers["ETag"] != etag
            assert np.array_equal(body_array(response), repacked)
            assert body_json(manual.handle_refresh("a"))["reopened"] is True
            assert np.array_equal(body_array(manual.handle_region("a", "T")), repacked)

    def test_refresh_without_append_is_a_noop(self, series_archive):
        path, _ = series_archive
        with make_service(path, refresh="manual") as service:
            report = body_json(service.handle_refresh("a"))
            assert report["reopened"] is False

    def test_inflight_lease_survives_refresh(self, series_archive):
        """A reader borrowed before a refresh stays usable until released."""
        path, base = series_archive
        with make_service(path, refresh="manual") as service:
            handle = service.handle("a")
            with handle.reader() as pinned:
                with ArchiveWriter(path, mode="a") as writer:
                    writer.add_timestep({"T": base + 0.4}, step=2)
                assert handle.refresh() is True
                # the retired reader still serves its old snapshot
                assert pinned.steps == [0, 1]
                data = pinned.read_region("T@0", (slice(0, 4), slice(0, 4)))
                assert data.shape == (4, 4)
            with handle.reader() as fresh:
                assert fresh.steps == [0, 1, 2]


class TestSharedCacheDedup:
    @pytest.mark.parametrize(
        "endpoint, counter",
        [("region", "chunks_decoded"), ("preview", "previews_decoded")],
        ids=["region", "preview"],
    )
    def test_concurrent_requests_decode_each_chunk_once(self, snapshot_archive, endpoint, counter):
        path, _ = snapshot_archive
        with make_service(path) as service:
            request = getattr(service, f"handle_{endpoint}")
            n_threads, per_thread = 8, 4
            barrier = threading.Barrier(n_threads)
            failures = []

            def client() -> None:
                barrier.wait()
                for _ in range(per_thread):
                    response = request("a", "T", region="0:32,0:64")
                    if response.status != 200:
                        failures.append(response.status)

            threads = [threading.Thread(target=client) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not failures
            with service.handle("a").reader() as reader:
                stats = reader.cache_stats()
                total_chunks = len(reader.field("T").chunks)
            # 32 requests x 4 chunks each, but the single-flight cache decodes
            # each chunk exactly once, full or preview (LRU miss counts are
            # racy — several threads can observe the gap before the leader
            # lands the value — so the decode counter is the authoritative
            # assertion)
            assert stats[counter] == total_chunks
            assert stats["chunks_decoded"] + stats["previews_decoded"] == total_chunks
            assert stats["hits"] + stats["coalesced"] > 0

    def test_distinct_archives_do_not_collide(self, snapshot_archive, tmp_path):
        path, data = snapshot_archive
        other = tmp_path / "other.xfa"
        with ArchiveWriter(other, chunk_shape=(16, 32)) as writer:
            writer.add_field("T", data + 5, codec="zfp")
        cache = SharedChunkCache()
        with ArchiveService({"a": path, "b": other}, cache=cache) as service:
            first = body_array(service.handle_region("a", "T", region="0:16,0:32"))
            second = body_array(service.handle_region("b", "T", region="0:16,0:32"))
            assert not np.allclose(first, second)


class TestDispatchAndStats:
    def test_dispatch_routes_and_405(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            assert service.dispatch("GET", "/healthz", {}, {}).status == 200
            assert service.dispatch("GET", "/archives", {}, {}).status == 200
            assert service.dispatch("GET", "/archives/a/manifest", {}, {}).status == 200
            assert service.dispatch("GET", "/nonsense", {}, {}).status == 404
            assert service.dispatch("DELETE", "/archives/a/manifest", {}, {}).status == 405
            assert service.dispatch("GET", "/archives/a/refresh", {}, {}).status == 405
            # RFC 9110 §15.5.6: a 405 lists the methods the path does accept
            assert service.dispatch("DELETE", "/archives/a/manifest", {}, {}).headers == {
                "Allow": "GET"
            }
            assert service.dispatch("GET", "/archives/a/refresh", {}, {}).headers == {
                "Allow": "POST"
            }
            assert "Allow" not in service.dispatch("GET", "/nonsense", {}, {}).headers

    def test_docs_endpoint_table_matches_routes(self):
        """``docs/service.md``'s Endpoints table lists exactly the routes served."""
        text = (Path(__file__).resolve().parents[1] / "docs" / "service.md").read_text()
        table = text.split("## Endpoints", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        documented = [
            (method, re.sub(r"\{\w+\}", "{}", path))
            for row in rows
            for method, path in re.findall(r"`(GET|POST|PUT|DELETE|PATCH) ([^`?\s]+)", row)
        ]
        served = [(route.method, re.sub(r"\{\w+\}", "{}", route.path)) for route in ROUTES]
        assert sorted(documented) == sorted(served)

    def test_dispatch_passes_query_and_headers(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            etag = service.dispatch("GET", "/archives/a/manifest", {}, {}).headers["ETag"]
            response = service.dispatch(
                "GET", "/archives/a/manifest", {}, {"If-None-Match": etag}
            )
            assert response.status == 304
            response = service.dispatch(
                "GET",
                "/archives/a/fields/T/region",
                {"region": "0:4,0:4", "format": "json"},
                {},
            )
            assert body_json(response)["shape"] == [4, 4]

    def test_request_stats_accumulate(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            service.handle_region("a", "T", region="0:8,0:8")
            service.handle_region("a", "MISSING")
            stats = service.request_stats()
            assert stats["http.request.count"] == 2
            assert stats["http.request.status.200"] == 1
            assert stats["http.request.status.404"] == 1
            assert stats["http.request.p99_seconds"] > 0

    def test_stats_endpoint_reports_cache(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            service.handle_region("a", "T")
            document = body_json(service.handle_stats("a"))
            assert document["archive"]["id"] == "a"
            assert document["archive"]["cache"]["chunks_decoded"] > 0
            assert "hits" in document["shared_cache"]

    def test_http_telemetry_reaches_global_recorder(self, snapshot_archive):
        path, _ = snapshot_archive
        from repro import obs

        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
        try:
            with make_service(path) as service:
                service.handle_region("a", "T", region="0:8,0:8")
                assert service.dispatch("GET", "/nonsense", {}, {}).status == 404
            snapshot = recorder.snapshot()
            assert snapshot.counters["http.request.count"] == 2
            assert snapshot.counters["http.request.status.404"] == 1  # unrouted ones too
            assert snapshot.histograms["http.request.seconds"].count == 2
            assert any(span.name == "http.region" for span in snapshot.spans)
        finally:
            obs.set_recorder(previous)


class TestServiceLifecycle:
    def test_id_spec_parsing(self, snapshot_archive, tmp_path):
        path, _ = snapshot_archive
        with ArchiveService([f"named={path}"], cache=SharedChunkCache()) as service:
            assert service.archive_ids == ["named"]
        with ArchiveService([str(path)], cache=SharedChunkCache()) as service:
            assert service.archive_ids == ["snap"]

    def test_duplicate_id_rejected(self, snapshot_archive):
        path, _ = snapshot_archive
        with make_service(path) as service:
            with pytest.raises(ValueError, match="already"):
                service.add_archive(path, archive_id="a")

    def test_invalid_refresh_mode_rejected(self, snapshot_archive):
        path, _ = snapshot_archive
        with pytest.raises(ValueError, match="refresh"):
            ArchiveService({"a": path}, refresh="sometimes")

    def test_close_is_idempotent(self, snapshot_archive):
        path, _ = snapshot_archive
        service = make_service(path)
        service.handle_manifest("a")
        service.close()
        service.close()
        assert service.handle_manifest("a").status == 404
