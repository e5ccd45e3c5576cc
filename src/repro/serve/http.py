"""The HTTP transport of :class:`~repro.serve.service.ArchiveService`.

A ``ThreadingHTTPServer`` whose request handler parses the URL and headers,
calls :meth:`ArchiveService.dispatch`, and writes the
:class:`~repro.serve.service.ServiceResponse` back.  The service core owns
routing, ETags, error mapping and telemetry, so this module needs only the
stdlib; it is what ``repro serve``, the serve tests and the benchmark spine's
``serve-http`` workload run.

Every method goes through ``dispatch``: ``HEAD`` answers the ``GET`` it
mirrors (status and headers without the body), and a method no route serves
(``PUT``, ``DELETE``, ``PATCH``, ``OPTIONS``) gets its JSON ``405`` with
``Allow`` on a known path, or ``404``.  No route takes a request body: a
declared ``Content-Length`` body of up to :data:`MAX_BODY_BYTES` is read and
discarded, so the next request on a keep-alive connection starts where it
should.  A larger body, any ``Transfer-Encoding`` or a malformed length is
refused (413, 501, 400) without reading it, and the connection closes.  A
connection that sends nothing for :data:`SOCKET_TIMEOUT_S` seconds (mid
headers, mid body or idle between requests) is closed.

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

__all__ = ["MAX_BODY_BYTES", "SOCKET_TIMEOUT_S", "ArchiveHTTPServer", "serve", "serve_in_thread"]

#: Largest request body the server reads (and discards) before answering.
MAX_BODY_BYTES = 64 * 1024
#: Seconds a connection may block one read or write before it is closed.
SOCKET_TIMEOUT_S = 30.0


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Translate one HTTP exchange to a ``service.dispatch`` call."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a small body sent after the headers must not wait ~40 ms for their ACK
    disable_nagle_algorithm = True
    server: "ArchiveHTTPServer"

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup()
        return SOCKET_TIMEOUT_S

    def _respond(self, response: ServiceResponse, send_body: bool) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.media_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if send_body and response.body:
            self.wfile.write(response.body)

    def _discard_body(self) -> Optional[ServiceResponse]:
        """Read and drop the declared request body; the refusal when it is not read.

        Request input is never read without a bound: a body over
        :data:`MAX_BODY_BYTES`, a transfer-coded one or a length that is not
        one non-negative decimal is answered at once, and its bytes are left
        unread on a connection that then closes.
        """
        if "Transfer-Encoding" in self.headers:
            return ServiceResponse.error(
                501, "request bodies with a Transfer-Encoding are not supported"
            )
        lengths = self.headers.get_all("Content-Length", [])
        if not lengths:
            return None
        text = lengths[0].strip()
        if len(lengths) > 1 or not (text.isascii() and text.isdigit()):
            return ServiceResponse.error(
                400, f"Content-Length must be one non-negative decimal integer, got {lengths}"
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            return ServiceResponse.error(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        self.rfile.read(length)
        return None

    def _handle(self, method: str, send_body: bool = True) -> None:
        response = self._discard_body()
        if response is not None:
            # the unread body would be parsed as the next request
            response.headers["Connection"] = "close"
            self.close_connection = True
        else:
            parts = urlsplit(self.path)
            query = dict(parse_qsl(parts.query, keep_blank_values=True))
            try:
                response = self.server.service.dispatch(
                    method, parts.path, query=query, headers=dict(self.headers.items())
                )
            except Exception as exc:  # dispatch maps expected errors; this is a bug
                response = ServiceResponse.error(500, f"internal error: {exc}")
        try:
            self._respond(response, send_body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        self.server.note_request()

    def _handle_command(self) -> None:
        self._handle(self.command)

    # dispatch answers a method no route serves with its JSON 405 or 404
    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_OPTIONS = _handle_command

    def do_HEAD(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler naming
        self._handle("GET", send_body=False)

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
