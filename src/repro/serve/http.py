"""Dependency-free HTTP frontend for :class:`~repro.serve.service.ArchiveService`.

A ``ThreadingHTTPServer`` whose request handler parses the URL and headers,
calls :meth:`ArchiveService.dispatch`, and writes the
:class:`~repro.serve.service.ServiceResponse` back — nothing more.  Because
the service core owns routing, ETags, error mapping and telemetry, this
frontend stays ~100 lines and needs only the stdlib, which keeps ``repro
serve`` runnable (and the serve tests + the spine's ``serve-http`` workload
meaningful) in environments without the optional FastAPI/uvicorn extra.

Concurrency model: one thread per connection (``ThreadingHTTPServer``), with
all decoded-chunk reuse delegated to the service's
:class:`~repro.store.shared_cache.SharedChunkCache` — concurrent requests for
the same chunk coalesce onto a single decode regardless of which thread runs
them.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.serve.service import ArchiveService, ServiceResponse

__all__ = ["ArchiveHTTPServer", "serve", "serve_in_thread"]


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Translate one HTTP exchange to a ``service.dispatch`` call."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a small body sent after the headers must not wait ~40 ms for their ACK
    disable_nagle_algorithm = True
    server: "ArchiveHTTPServer"

    def _respond(self, response: ServiceResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.media_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)

    def _handle(self, method: str) -> None:
        parts = urlsplit(self.path)
        query = dict(parse_qsl(parts.query, keep_blank_values=True))
        try:
            response = self.server.service.dispatch(
                method, parts.path, query=query, headers=dict(self.headers.items())
            )
        except Exception as exc:  # dispatch maps expected errors; this is a bug
            response = ServiceResponse.error(500, f"internal error: {exc}")
        try:
            self._respond(response)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        self.server.note_request()

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def log_message(self, format: str, *args) -> None:
        # request logging flows through the service's http.* telemetry instead
        pass


class ArchiveHTTPServer(ThreadingHTTPServer):
    """Threaded stdlib HTTP server bound to one :class:`ArchiveService`.

    ``max_requests`` (``None`` = unlimited) shuts the server down after that
    many requests have been answered — the hook tests and ``repro serve
    --max-requests`` use to run a bounded, deterministic serving session.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: ArchiveService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__((host, port), _ServiceRequestHandler)
        self.service = service
        self.max_requests = max_requests
        self._handled = 0
        self._count_lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def requests_handled(self) -> int:
        with self._count_lock:
            return self._handled

    def note_request(self) -> None:
        with self._count_lock:
            self._handled += 1
            done = self.max_requests is not None and self._handled >= self.max_requests
        if done:
            # shutdown() blocks until serve_forever exits; never call it from
            # the serving thread itself
            threading.Thread(target=self.shutdown, daemon=True).start()


def serve(
    service: ArchiveService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: Optional[int] = None,
    ready_callback=None,
) -> ArchiveHTTPServer:
    """Serve ``service`` until shutdown; returns the (closed) server.

    ``ready_callback(server)``, when given, fires after the socket is bound
    and before the accept loop starts — the CLI uses it to print (and
    ``--ready-file`` to persist) the actual bound URL when ``port=0`` picked
    an ephemeral port.
    """
    server = ArchiveHTTPServer(service, host=host, port=port, max_requests=max_requests)
    try:
        if ready_callback is not None:
            ready_callback(server)
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return server


def serve_in_thread(
    service: ArchiveService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: Optional[int] = None,
) -> Tuple[ArchiveHTTPServer, threading.Thread]:
    """Start the server on a daemon thread; returns ``(server, thread)``.

    The server is bound (``server.url`` valid) before this returns.  Callers
    stop it with ``server.shutdown(); server.server_close(); thread.join()``.
    """
    server = ArchiveHTTPServer(service, host=host, port=port, max_requests=max_requests)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server, thread
