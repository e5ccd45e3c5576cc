"""Tests for the serve transports: the stdlib HTTP server, the ``repro
serve`` CLI verb, and (when the optional ``[serve]`` extra is installed) the
FastAPI app.

The stdlib-server tests run real sockets through ``urllib`` — including
append-while-serving over HTTP and concurrent-client shared-cache dedup,
mirroring the in-process versions in ``test_serve_service.py`` at the
transport level.  FastAPI tests are ``importorskip``-gated: they skip
cleanly in the dependency-free tier-1 environment and run in the CI
serve-smoke job.
"""

import http.client
import io
import json
import statistics
import sys
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.serve.http import serve_in_thread
from repro.serve.service import ROUTES, ArchiveService
from repro.store.cli import main
from repro.store.shared_cache import SharedChunkCache
from repro.store.writer import ArchiveWriter


@pytest.fixture()
def snapshot_archive(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(32, 64)).astype(np.float32)
    path = tmp_path / "snap.xfa"
    with ArchiveWriter(path, chunk_shape=(16, 32)) as writer:
        writer.add_field("T", data, codec="zfp")
    return path, data


@pytest.fixture()
def served(snapshot_archive):
    """A live stdlib server over the snapshot archive; yields (url, service)."""
    path, _ = snapshot_archive
    service = ArchiveService({"a": path}, cache=SharedChunkCache())
    server, thread = serve_in_thread(service)
    try:
        yield server.url, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def http_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


class TestStdlibServer:
    def test_health_and_manifest(self, served):
        url, _ = served
        status, body, _ = http_get(url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body, headers = http_get(url + "/archives/a/manifest")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert "ETag" in headers

    def test_region_npy_over_http(self, served, snapshot_archive):
        url, _ = served
        _, data = snapshot_archive
        status, body, headers = http_get(
            url + "/archives/a/fields/T/region?region=0:8,0:16"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-npy"
        window = np.load(io.BytesIO(body))
        assert window.shape == (8, 16)
        assert np.allclose(window, data[0:8, 0:16], atol=1e-2)

    def test_small_keep_alive_responses_do_not_stall(self, served):
        """Headers and body leave in two writes; with Nagle's algorithm on, a
        small body waits for the client's delayed ACK (~40 ms per response)."""
        url, _ = served
        parts = urllib.parse.urlsplit(url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        seconds = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/archives/a/manifest")
                response = connection.getresponse()
                body = response.read()
                seconds.append(time.perf_counter() - start)
                assert response.status == 200 and len(body) < 64 * 1024
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.010

    def test_etag_304_over_http(self, served):
        url, _ = served
        _, _, headers = http_get(url + "/archives/a/manifest")
        status, body, _ = http_get(
            url + "/archives/a/manifest", {"If-None-Match": headers["ETag"]}
        )
        assert status == 304
        assert body == b""

    def test_error_statuses_over_http(self, served):
        url, _ = served
        assert http_get(url + "/archives/a/fields/NOPE/region")[0] == 404
        assert http_get(url + "/archives/a/fields/T/region?region=999")[0] == 416
        assert http_get(url + "/archives/a/fields/T/preview?fraction=7")[0] == 422
        assert http_get(url + "/bogus")[0] == 404

    def test_preview_fallback_header(self, served):
        url, _ = served
        status, _, headers = http_get(
            url + "/archives/a/fields/T/preview?fraction=0.25"
        )
        assert status == 200
        assert headers["X-Repro-Preview-Fallback"] == "false"

    def test_concurrent_clients_share_one_decode_per_chunk(self, served):
        url, service = served
        n_clients, per_client = 6, 3
        barrier = threading.Barrier(n_clients)
        statuses = []
        lock = threading.Lock()

        def client():
            barrier.wait()
            for _ in range(per_client):
                status, _, _ = http_get(url + "/archives/a/fields/T/region")
                with lock:
                    statuses.append(status)

        threads = [threading.Thread(target=client) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert statuses == [200] * (n_clients * per_client)
        with service.handle("a").reader() as reader:
            stats = reader.cache_stats()
            total_chunks = len(reader.field("T").chunks)
        assert stats["chunks_decoded"] == total_chunks

    def test_append_while_serving_over_http(self, tmp_path):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(16, 32)).astype(np.float32)
        path = tmp_path / "series.xfa"
        with ArchiveWriter(path, chunk_shape=(8, 16)) as writer:
            writer.add_timestep({"T": base}, step=0, time=0.0)

        service = ArchiveService({"s": path}, cache=SharedChunkCache(), refresh="manual")
        server, thread = serve_in_thread(service)
        url = server.url
        try:
            _, _, headers = http_get(url + "/archives/s/manifest")
            etag = headers["ETag"]
            _, before, _ = http_get(url + "/archives/s/fields/T@0/region")

            with ArchiveWriter(path, mode="a") as writer:
                writer.add_timestep({"T": base + 0.5}, step=1, time=1.0)

            # pinned generation: 304 on the old ETag, identical bytes
            assert http_get(url + "/archives/s/manifest", {"If-None-Match": etag})[0] == 304
            _, after, _ = http_get(url + "/archives/s/fields/T@0/region")
            assert after == before

            request = urllib.request.Request(
                url + "/archives/s/refresh", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                report = json.loads(response.read())
            assert report["reopened"] is True

            status, body, headers = http_get(
                url + "/archives/s/manifest", {"If-None-Match": etag}
            )
            assert status == 200
            assert headers["ETag"] != etag
            status, body, _ = http_get(url + "/archives/s/timesteps")
            assert [entry["step"] for entry in json.loads(body)["steps"]] == [0, 1]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_max_requests_stops_server(self, snapshot_archive):
        path, _ = snapshot_archive
        service = ArchiveService({"a": path}, cache=SharedChunkCache())
        server, thread = serve_in_thread(service, max_requests=2)
        try:
            http_get(server.url + "/healthz")
            http_get(server.url + "/healthz")
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert server.requests_handled == 2
        finally:
            server.server_close()
            service.close()


class TestServeCLI:
    def test_serve_verb_end_to_end(self, snapshot_archive, tmp_path, capsys):
        path, _ = snapshot_archive
        ready = tmp_path / "ready.txt"
        exit_codes = []

        def run():
            exit_codes.append(
                main(
                    [
                        "serve",
                        f"demo={path}",
                        "--port",
                        "0",
                        "--ready-file",
                        str(ready),
                        "--max-requests",
                        "2",
                    ]
                )
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ready.exists(), "server never wrote its ready file"
        url = ready.read_text().strip()

        status, body, _ = http_get(url + "/archives/demo/manifest")
        assert status == 200
        assert json.loads(body)["id"] == "demo"
        status, _, _ = http_get(url + "/archives/demo/fields/T/region?region=0:4,0:4")
        assert status == 200

        thread.join(timeout=10)
        assert not thread.is_alive()
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "serving 1 archive(s)" in out
        assert "served 2 request(s)" in out

    def test_serve_missing_archive_errors(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.xfa")]) == 2
        assert "error:" in capsys.readouterr().err


class TestFastAPIFrontendOnStub:
    """``create_app`` against a stand-in ``fastapi`` module, so tier-1 covers it."""

    class _Response:
        def __init__(self, content, status_code, media_type, headers):
            self.body, self.status, self.media_type = content, status_code, media_type
            self.headers = dict(headers)

    class _FastAPI:
        def __init__(self, **metadata):
            self.state = types.SimpleNamespace()
            self.registered = []

        def add_api_route(self, path, endpoint, *, methods, **options):
            self.registered.append((tuple(methods), path, endpoint))

    @pytest.fixture()
    def app(self, snapshot_archive, monkeypatch):
        stub = types.ModuleType("fastapi")
        stub.FastAPI, stub.Response, stub.Request = self._FastAPI, self._Response, object
        monkeypatch.setitem(sys.modules, "fastapi", stub)
        monkeypatch.delitem(sys.modules, "repro.serve.app", raising=False)
        from repro.serve.app import create_app

        path, _ = snapshot_archive
        service = ArchiveService({"a": path}, cache=SharedChunkCache())
        try:
            yield create_app(service), service
        finally:
            sys.modules.pop("repro.serve.app", None)  # the next import sees real fastapi
            service.close()

    def test_every_route_registered_once(self, app):
        fastapi_app, service = app
        assert fastapi_app.state.service is service
        registered = sorted((methods, path) for methods, path, _ in fastapi_app.registered)
        assert registered == sorted(((route.method,), route.path) for route in ROUTES)

    @pytest.mark.parametrize(
        "path, query, conditional",
        [
            ("/archives/a/fields/T/region", {"region": "0:4,0:8", "format": "json"}, False),
            ("/archives/a/fields/T/region", {"region": "0:4,0:8"}, True),
            ("/archives/a/fields/T/preview", {"fraction": "7"}, False),
            ("/archives/missing/manifest", {}, False),
        ],
        ids=["json", "304", "422", "404"],
    )
    def test_endpoint_answers_like_dispatch(self, app, path, query, conditional):
        fastapi_app, service = app
        headers = {}
        if conditional:
            headers["if-none-match"] = service.handle_manifest("a").headers["ETag"]
        expected = service.dispatch("GET", path, query, headers)
        route = next(r for r in ROUTES if r.method == "GET" and r.pattern.match(path))
        (endpoint,) = [
            endpoint
            for methods, template, endpoint in fastapi_app.registered
            if (methods, template) == (("GET",), route.path)
        ]
        request = types.SimpleNamespace(
            path_params=route.pattern.match(path).groupdict(), query_params=query, headers=headers
        )
        response = endpoint(request)
        assert response.status == expected.status
        assert response.headers == expected.headers
        assert response.media_type == expected.media_type
        assert response.body == expected.body


class TestFastAPIApp:
    """Runs only where the optional [serve] extra is installed (CI serve-smoke)."""

    @pytest.fixture()
    def client(self, snapshot_archive):
        pytest.importorskip("fastapi")
        testclient = pytest.importorskip("fastapi.testclient")
        from repro.serve.app import create_app

        path, _ = snapshot_archive
        service = ArchiveService({"a": path}, cache=SharedChunkCache())
        with testclient.TestClient(create_app(service)) as client:
            yield client
        service.close()

    def test_manifest_and_etag(self, client):
        response = client.get("/archives/a/manifest")
        assert response.status_code == 200
        etag = response.headers["ETag"]
        again = client.get("/archives/a/manifest", headers={"If-None-Match": etag})
        assert again.status_code == 304

    def test_region_npy(self, client):
        response = client.get("/archives/a/fields/T/region", params={"region": "0:8,0:8"})
        assert response.status_code == 200
        assert response.headers["content-type"].startswith("application/x-npy")
        window = np.load(io.BytesIO(response.content))
        assert window.shape == (8, 8)

    def test_error_mapping_matches_core(self, client):
        assert client.get("/archives/a/fields/NOPE/region").status_code == 404
        assert client.get("/archives/a/fields/T/region", params={"region": "999"}).status_code == 416
        assert client.get(
            "/archives/a/fields/T/preview", params={"fraction": "0"}
        ).status_code == 422

    def test_preview_headers(self, client):
        response = client.get("/archives/a/fields/T/preview", params={"fraction": "0.25"})
        assert response.status_code == 200
        assert response.headers["X-Repro-Preview-Fallback"] == "false"
