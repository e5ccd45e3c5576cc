"""Tests for the serve transport: the stdlib HTTP server and the ``repro
serve`` CLI verb.

The server tests run real sockets through ``urllib`` — including
append-while-serving over HTTP and concurrent-client shared-cache dedup,
mirroring the in-process versions in ``test_serve_service.py`` at the
transport level — and raw sockets where the framing itself is under test
(request bodies on a keep-alive connection).
"""

import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.serve.http import MAX_BODY_BYTES, serve_in_thread
from repro.serve.service import ArchiveService
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


def http_get(url, headers=None, method="GET"):
    request = urllib.request.Request(url, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def raw_connection(url):
    """A socket to the server at ``url`` with a 5 s timeout, and its read stream."""
    parts = urllib.parse.urlsplit(url)
    sock = socket.create_connection((parts.hostname, parts.port), timeout=5)
    return sock, sock.makefile("rb")


def read_response(stream):
    """One ``(status, headers, body)`` off ``stream``; header names lower-cased."""
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers.get("content-length", 0)))


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

    def test_request_body_is_drained_before_the_next_request(self, served):
        """A body no route reads must not be parsed as the next request line."""
        url, _ = served
        sock, stream = raw_connection(url)
        with sock, stream:
            sock.sendall(
                b"POST /archives/a/refresh HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\nContent-Length: 8\r\n\r\n"
                b'{"x": 1}'
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            refresh, health = read_response(stream), read_response(stream)
        assert [refresh[0], health[0]] == [200, 200]
        assert json.loads(refresh[2])["id"] == "a"
        assert json.loads(health[2])["status"] == "ok"

    def test_oversized_body_is_refused_unread(self, served):
        """A huge declared body is answered at once: nothing of it is awaited."""
        url, _ = served
        sock, stream = raw_connection(url)
        with sock, stream:
            sock.sendall(
                b"POST /archives/a/refresh HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 1000000000000\r\n\r\n"
            )
            status, headers, body = read_response(stream)  # the socket timeout is 5 s
            assert stream.read() == b""  # and the server closed the connection
        assert status == 413
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert str(MAX_BODY_BYTES) in json.loads(body)["detail"]

    @pytest.mark.parametrize(
        "header, status",
        [
            (b"Transfer-Encoding: chunked", 501),
            (b"Content-Length: -1", 400),
            (b"Content-Length: 1_0", 400),
            (b"Content-Length: 8\r\nContent-Length: 8", 400),
        ],
        ids=["chunked", "negative", "underscore", "repeated"],
    )
    def test_unreadable_body_is_refused(self, served, header, status):
        url, _ = served
        sock, stream = raw_connection(url)
        with sock, stream:
            request = b"POST /archives/a/refresh HTTP/1.1\r\nHost: test\r\n" + header
            sock.sendall(request + b"\r\n\r\n")
            answer = read_response(stream)
            assert stream.read() == b""
        assert answer[0] == status
        assert answer[1]["connection"] == "close"
        assert "detail" in json.loads(answer[2])

    @pytest.mark.parametrize(
        "path",
        [
            "/archives/a/manifest",
            "/archives/a/fields/T/region?region=0:8,0:16",
            "/archives/a/fields/T/preview?fraction=0.25",
        ],
        ids=["manifest", "region", "preview"],
    )
    def test_head_mirrors_get(self, served, path):
        url, _ = served
        get_status, get_body, get_headers = http_get(url + path)
        status, body, headers = http_get(url + path, method="HEAD")
        assert status == get_status == 200
        assert body == b""
        for name in ("ETag", "Content-Type", "Content-Length"):
            assert headers[name] == get_headers[name]
        assert headers["Content-Length"] == str(len(get_body))
        status, body, _ = http_get(
            url + path, {"If-None-Match": headers["ETag"]}, method="HEAD"
        )
        assert (status, body) == (304, b"")

    def test_head_errors_are_json(self, served):
        url, _ = served
        status, body, headers = http_get(url + "/archives/a/fields/NOPE/region", method="HEAD")
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) > 0 and body == b""
        status, _, headers = http_get(url + "/archives/a/refresh", method="HEAD")
        assert (status, headers["Allow"]) == (405, "POST")

    def test_head_keeps_the_connection_alive(self, served):
        url, _ = served
        parts = urllib.parse.urlsplit(url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            statuses = []
            for method in ("HEAD", "GET"):
                connection.request(method, "/archives/a/fields/T/region?region=0:4,0:4")
                response = connection.getresponse()
                body = response.read()
                statuses.append(response.status)
                if method == "HEAD":
                    sock = connection.sock
                    assert body == b""
            assert connection.sock is sock
            assert statuses == [200, 200]
            assert np.load(io.BytesIO(body)).shape == (4, 4)
        finally:
            connection.close()

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
