"""Socket-free core of the ``repro serve`` archive service.

:class:`ArchiveService` exposes the read stack of one or more ``XFA1``
archives as HTTP-shaped request handlers: manifest listings, binary/JSON
region reads, progressive previews, timestep and time-range reads.  The class
itself speaks no socket protocol — every handler returns a
:class:`ServiceResponse` (status, headers, body) that the stdlib threaded
server in :mod:`repro.serve.http` transmits.  :meth:`ArchiveService.dispatch`
routes a request through the one route table :data:`ROUTES`; in-process
callers (scenario smoke traffic) use it too, so they see the same routing,
query defaults, error mapping and telemetry as HTTP clients.

**Shared decode cache.**  Every served archive is opened with
``ArchiveReader(shared_cache=...)`` on one
:class:`~repro.store.shared_cache.SharedChunkCache` (the process-wide
singleton by default), so N concurrent clients requesting the same region
trigger exactly one decode per chunk — concurrent misses coalesce onto a
single in-flight decode and every request receives the same frozen array.

**Generations and ETags.**  An archive's *generation* is the published end
offset of the footer its manifest came from (monotonic across append
flushes).  Every data response carries a strong ETag built on it and on the
file's inode (a re-pack renamed over the path may have the same size); a
request whose ``If-None-Match`` still names the served snapshot gets a
``304`` with no body.  While an appender publishes generation G+1, requests
keep reading the consistent G snapshot — chunk payloads are immutable and
appends only add bytes — until the handle *reopens*: automatically on the
next request once the file's stat signature changes (``refresh="auto"``, the
default) or explicitly via ``POST /archives/{id}/refresh``
(``refresh="manual"``).  Reopening swaps in a new reader atomically; requests
still inside the old one finish on the retired reader, which is closed when
its last lease drops.

**Error mapping.**  Typed reader errors become HTTP statuses instead of
leaking 500s: unknown archive/field/timestep → 404, out-of-bounds or
malformed regions (:class:`~repro.store.manifest.ArchiveError`) → 416,
invalid parameters (bad ``fraction``, bad slice syntax — ``ValueError``) →
422, CRC/framing corruption and CRC-valid chunks their codec cannot decode
→ 500 with the corruption detail.

Telemetry (``http.*``): ``http.request.count`` / ``http.request.seconds`` /
``http.request.bytes_out`` plus per-status ``http.request.status.<code>``,
with one ``http.<endpoint>`` trace span per request (its same-named
histogram is the per-endpoint latency).  An always-on per-service recorder
backs :meth:`ArchiveService.request_stats` even when global telemetry is
disabled.
"""

from __future__ import annotations

import io
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import unquote

import numpy as np

from repro.obs import recorder as _obs
from repro.store.manifest import ArchiveCorruptionError, ArchiveError, parse_region
from repro.store.reader import ArchiveReader
from repro.store.shared_cache import SharedChunkCache, process_chunk_cache

__all__ = [
    "ServiceError",
    "ServiceResponse",
    "ArchiveHandle",
    "ArchiveService",
    "Route",
    "ROUTES",
]

PathLike = Union[str, os.PathLike]

#: Media type of binary array responses (``np.save`` output).
NPY_MEDIA_TYPE = "application/x-npy"
NPZ_MEDIA_TYPE = "application/x-npz"
JSON_MEDIA_TYPE = "application/json"


@dataclass
class ServiceResponse:
    """One HTTP-shaped handler result, transport-agnostic."""

    status: int
    body: bytes = b""
    media_type: str = JSON_MEDIA_TYPE
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload, status: int = 200, headers: Optional[Dict[str, str]] = None):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return cls(status=status, body=body, media_type=JSON_MEDIA_TYPE, headers=dict(headers or {}))

    @classmethod
    def error(cls, status: int, detail: str):
        return cls.json({"detail": str(detail)}, status=status)


class ServiceError(Exception):
    """A handler-raised error with an explicit HTTP status."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = int(status)
        self.detail = str(detail)

    def to_response(self) -> ServiceResponse:
        return ServiceResponse.error(self.status, self.detail)


def _etag_for(archive_id: str, reader: ArchiveReader) -> str:
    """Strong ETag for one archive snapshot: its file's inode and manifest generation.

    The inode tells a re-pack renamed over the served path from the file it
    replaced, even when both are the same size (so the same generation).
    """
    _, inode, generation = reader.identity
    return f'"{archive_id}:i{inode}g{generation}"'


def _etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` comparison (weak validators accepted)."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


# --------------------------------------------------------------------------- #
# query parsing and array rendering shared by the endpoints
# --------------------------------------------------------------------------- #
_DECIMAL = re.compile(r"[+-]?[0-9]+")
_REAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _choice(name: str, value: Optional[str], allowed: Tuple[str, ...]) -> str:
    """``value`` lower-cased when it is one of ``allowed`` (blank picks the first)."""
    choice = (value or allowed[0]).lower()
    if choice not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)}, got {choice!r}")
    return choice


def _integer(name: str, value: Union[None, str, int]) -> Optional[int]:
    """A decimal integer (``int()`` alone also takes ``"1_0"`` and padding)."""
    if value is None:
        return None
    if _DECIMAL.fullmatch(str(value)) is None:
        raise ValueError(f"{name} must be a decimal integer, got {value!r}")
    return int(value)


def _fraction(name: str, value: Union[str, float]) -> float:
    """A plain decimal number (``float()`` alone also takes ``"0.2_5"`` and padding)."""
    if _REAL.fullmatch(str(value)) is None:
        raise ValueError(f"{name} must be a decimal number, got {value!r}")
    return float(value)


def _split_fields(fields: Optional[str]) -> Optional[List[str]]:
    """Parse a ``fields=a,b`` query value (``None``/empty selects everything)."""
    if fields is None:
        return None
    names = [token.strip() for token in str(fields).split(",") if token.strip()]
    return names or None


def _array_document(data: np.ndarray, include: str = "data") -> Dict:
    """One array as JSON: shape, dtype, and its values or a min/max/mean summary."""
    document: Dict = {"shape": list(data.shape), "dtype": str(data.dtype)}
    if include == "data":
        document["data"] = data.tolist()
    else:
        document.update(min=float(data.min()), max=float(data.max()), mean=float(data.mean()))
    return document


def _step_document(entry, fieldset, include: str = "data") -> Dict:
    """One decoded timestep as JSON: its step, time tag and every field."""
    return {
        "step": entry.step,
        "time": entry.time,
        "fields": {name: _array_document(fieldset[name].data, include) for name in fieldset.names},
    }


def _array_response(
    data: np.ndarray,
    fmt: str,
    generation: int,
    headers: Optional[Dict[str, str]] = None,
    payload: Optional[Dict] = None,
) -> ServiceResponse:
    """One array as an ``.npy`` body (``fmt="npy"``) or a JSON document."""
    headers = {
        "X-Repro-Shape": ",".join(map(str, data.shape)),
        "X-Repro-Dtype": str(data.dtype),
        **(headers or {}),
    }
    if fmt == "npy":
        buffer = io.BytesIO()
        np.save(buffer, data, allow_pickle=False)
        return ServiceResponse(200, buffer.getvalue(), NPY_MEDIA_TYPE, headers)
    document = {**_array_document(data), "generation": int(generation), **(payload or {})}
    return ServiceResponse.json(document, headers=headers)


class _ReaderLease:
    """One reader plus its in-flight request count; closed when retired and idle."""

    __slots__ = ("reader", "refs", "retired")

    def __init__(self, reader: ArchiveReader) -> None:
        self.reader = reader
        self.refs = 0
        self.retired = False


class ArchiveHandle:
    """One served archive: a leased :class:`ArchiveReader` with reopen-on-append.

    Requests borrow the current reader through :meth:`reader` (a context
    manager that refcounts the lease).  :meth:`refresh` opens the file again
    and atomically swaps the new reader in when it publishes a newer
    generation; the retired reader keeps serving its in-flight requests and
    is closed when the last one releases it.  :meth:`maybe_refresh` is the
    cheap per-request probe: one ``stat`` call, a full reopen only when the
    file's size/mtime/inode signature changed since the last look.
    """

    def __init__(
        self,
        archive_id: str,
        path: PathLike,
        cache: SharedChunkCache,
        jobs: Optional[int] = None,
        auto_refresh: bool = True,
    ) -> None:
        self.id = str(archive_id)
        self.path = Path(path)
        self.auto_refresh = bool(auto_refresh)
        self._cache = cache
        self._jobs = jobs
        self._lock = threading.Lock()
        self._lease = _ReaderLease(self._open_reader())
        self._stat_sig = self._stat_signature()

    def _open_reader(self) -> ArchiveReader:
        return ArchiveReader(self.path, shared_cache=self._cache, jobs=self._jobs)

    def _stat_signature(self) -> Tuple[int, int, int]:
        st = os.stat(self.path)
        return (int(st.st_size), int(st.st_mtime_ns), int(st.st_ino))

    @property
    def generation(self) -> int:
        """Manifest generation of the currently served snapshot."""
        with self._lock:
            return self._lease.reader.generation

    @contextmanager
    def reader(self) -> Iterator[ArchiveReader]:
        """Borrow the current reader for one request (refcounted lease)."""
        if self.auto_refresh:
            self.maybe_refresh()
        with self._lock:
            lease = self._lease
            lease.refs += 1
        try:
            yield lease.reader
        finally:
            with self._lock:
                lease.refs -= 1
                close_now = lease.retired and lease.refs == 0
            if close_now:
                lease.reader.close()

    def maybe_refresh(self) -> bool:
        """Reopen only if the file changed on disk since the last probe."""
        try:
            sig = self._stat_signature()
        except OSError:
            # the file vanished under us: keep serving the open snapshot
            return False
        with self._lock:
            if sig == self._stat_sig:
                return False
        return self.refresh()

    def refresh(self) -> bool:
        """Reopen the archive; swap readers when the file's snapshot changed.

        A snapshot is the reader's ``identity`` — device, inode and
        generation — so both an append (a newer generation) and a re-pack
        renamed over the path (a new inode, whatever its size) swap readers.
        Returns ``True`` when the served snapshot changed.  A torn tail (an
        append session mid-flush) or a vanished file keeps the current
        snapshot — the service never degrades below the generation it already
        serves.
        """
        try:
            fresh = self._open_reader()
        except (OSError, ArchiveError):
            return False
        close_retired = False
        with self._lock:
            current = self._lease
            swapped = fresh.identity != current.reader.identity
            if swapped:
                self._lease = _ReaderLease(fresh)
                current.retired = True
                close_retired = current.refs == 0
            try:
                self._stat_sig = self._stat_signature()
            except OSError:
                pass
        if not swapped:
            fresh.close()
            return False
        if close_retired:
            current.reader.close()
        return True

    def close(self) -> None:
        """Retire the handle; the reader closes once its last lease drops."""
        with self._lock:
            lease = self._lease
            lease.retired = True
            close_now = lease.refs == 0
        if close_now:
            lease.reader.close()


# --------------------------------------------------------------------------- #
# the route table dispatch() iterates
# --------------------------------------------------------------------------- #
@dataclass
class Route:
    """One endpoint: ``method path`` answered by the service method ``handler``.

    Each ``{name}`` segment of ``path`` becomes the handler keyword ``name``;
    ``query`` maps query keys to handler keywords (an absent key keeps the
    handler's default), and a ``conditional`` route's handler receives the
    request's ``If-None-Match`` header as ``if_none_match``.
    """

    method: str
    path: str
    handler: str
    query: Dict[str, str] = field(default_factory=dict)
    conditional: bool = False
    pattern: "re.Pattern" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a placeholder matches one path segment; a trailing slash is optional
        self.pattern = re.compile("^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", self.path) + "/?$")


ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", "handle_health"),
    Route("GET", "/stats", "handle_stats"),
    Route("GET", "/archives", "handle_archives"),
    Route("GET", "/archives/{archive_id}/manifest", "handle_manifest", conditional=True),
    Route("GET", "/archives/{archive_id}/stats", "handle_stats"),
    Route("GET", "/archives/{archive_id}/fields/{field_name}/region", "handle_region",
          {"region": "region", "format": "fmt"}, conditional=True),
    Route("GET", "/archives/{archive_id}/fields/{field_name}/preview", "handle_preview",
          {"fraction": "fraction", "region": "region", "format": "fmt"}, conditional=True),
    Route("GET", "/archives/{archive_id}/timesteps", "handle_timesteps", conditional=True),
    Route("GET", "/archives/{archive_id}/timesteps/{step}", "handle_timestep",
          {"fields": "fields", "format": "fmt"}, conditional=True),
    Route("GET", "/archives/{archive_id}/timerange", "handle_timerange",
          {"start": "start", "stop": "stop", "fields": "fields", "include": "include"},
          conditional=True),
    Route("POST", "/archives/{archive_id}/refresh", "handle_refresh"),
)


# --------------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------------- #
class ArchiveService:
    """HTTP-shaped read service over one or more XFA1 archives.

    Parameters
    ----------
    archives:
        Archives to serve: a mapping of ``id -> path``, or an iterable of
        paths (ids default to the file stem) / ``"id=path"`` specs.
    cache:
        The :class:`~repro.store.shared_cache.SharedChunkCache` every served
        reader plugs into; ``None`` (default) uses the process-wide singleton
        so the service shares decodes with in-process readers too.
    refresh:
        ``"auto"`` (default) probes the file's stat signature on each request
        and reopens when an appender published a new generation; ``"manual"``
        only reopens on an explicit :meth:`handle_refresh` / ``POST
        /archives/{id}/refresh``.
    jobs:
        Forwarded to every :class:`~repro.store.reader.ArchiveReader`.
    """

    def __init__(
        self,
        archives: Union[None, Dict[str, PathLike], List] = None,
        cache: Optional[SharedChunkCache] = None,
        refresh: str = "auto",
        jobs: Optional[int] = None,
    ) -> None:
        if refresh not in ("auto", "manual"):
            raise ValueError(f"refresh must be 'auto' or 'manual', got {refresh!r}")
        self.cache = cache if cache is not None else process_chunk_cache()
        self.refresh_mode = refresh
        self._jobs = jobs
        self._handles: Dict[str, ArchiveHandle] = {}
        self._handles_lock = threading.Lock()
        self._closed = False
        # Always-on per-service recorder: request counts/latencies are
        # available for stats and load tests even when global telemetry is
        # disabled.
        self.telemetry = _obs.Recorder()
        if archives:
            items = archives.items() if isinstance(archives, dict) else [
                self._parse_spec(spec) for spec in archives
            ]
            for archive_id, path in items:
                self.add_archive(path, archive_id=archive_id)

    @staticmethod
    def _parse_spec(spec: PathLike) -> Tuple[Optional[str], PathLike]:
        """Split an ``"id=path"`` CLI spec; a bare path gets a stem-derived id."""
        text = os.fspath(spec)
        archive_id, sep, path = text.partition("=")
        if sep and archive_id.strip() and not os.sep in archive_id:
            return archive_id.strip(), path
        return None, text

    def add_archive(self, path: PathLike, archive_id: Optional[str] = None) -> ArchiveHandle:
        """Open an archive and serve it under ``archive_id`` (default: file stem)."""
        if archive_id is None:
            archive_id = Path(path).stem
        archive_id = str(archive_id)
        with self._handles_lock:
            if archive_id in self._handles:
                raise ValueError(f"archive id {archive_id!r} is already being served")
        handle = ArchiveHandle(
            archive_id,
            path,
            cache=self.cache,
            jobs=self._jobs,
            auto_refresh=self.refresh_mode == "auto",
        )
        with self._handles_lock:
            if archive_id in self._handles:  # pragma: no cover - racing add_archive
                handle.close()
                raise ValueError(f"archive id {archive_id!r} is already being served")
            self._handles[archive_id] = handle
        return handle

    @property
    def archive_ids(self) -> List[str]:
        with self._handles_lock:
            return sorted(self._handles)

    def handle(self, archive_id: str) -> ArchiveHandle:
        """The handle serving ``archive_id`` (``KeyError`` → 404)."""
        with self._handles_lock:
            if archive_id not in self._handles:
                raise KeyError(
                    f"no archive {archive_id!r} is being served; "
                    f"available: {sorted(self._handles)}"
                )
            return self._handles[archive_id]

    def close(self) -> None:
        """Retire every handle (idempotent); in-flight readers close on release."""
        if self._closed:
            return
        with self._handles_lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.close()
        self._closed = True

    def __enter__(self) -> "ArchiveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # request execution: metrics + error mapping shared by every endpoint
    # ------------------------------------------------------------------ #
    def _execute(
        self, endpoint: str, fn: Callable[[], ServiceResponse], **span_args
    ) -> ServiceResponse:
        started = time.perf_counter()
        try:
            with _obs.get_recorder().span(f"http.{endpoint}", **span_args):
                response = fn()
        except ServiceError as exc:
            response = exc.to_response()
        except KeyError as exc:
            # KeyError.__str__ wraps the message in spurious quotes
            detail = exc.args[0] if exc.args else str(exc)
            response = ServiceResponse.error(404, detail)
        except ArchiveCorruptionError as exc:
            response = ServiceResponse.error(500, str(exc))
        except ArchiveError as exc:
            # out-of-bounds / malformed regions: Range Not Satisfiable
            response = ServiceResponse.error(416, str(exc))
        except ValueError as exc:
            # bad fraction, bad slice syntax, bad query parameters
            response = ServiceResponse.error(422, str(exc))
        except OSError as exc:
            response = ServiceResponse.error(500, str(exc))
        return self._record(response, time.perf_counter() - started)

    def _record(self, response: ServiceResponse, elapsed: float) -> ServiceResponse:
        """Count one answered request on the service recorder and the global one."""
        for recorder in (self.telemetry, _obs.get_recorder()):
            if recorder.enabled:
                recorder.count("http.request.count")
                recorder.count(f"http.request.status.{response.status}")
                recorder.count("http.request.bytes_out", len(response.body))
                recorder.observe("http.request.seconds", elapsed)
        return response

    def _conditional(
        self,
        endpoint: str,
        archive_id: str,
        if_none_match: Optional[str],
        prepare: Callable[[], Callable[[ArchiveReader], ServiceResponse]],
        **span_args,
    ) -> ServiceResponse:
        """One conditional GET on the current snapshot of ``archive_id``.

        ``prepare()`` parses the request and returns ``render(reader)``, so a
        bad parameter (422) is reported before an unknown archive (404) and
        before a ``304``.  A client whose ``If-None-Match`` names the snapshot
        gets a body-less ``304``, anyone else ``render``'s response; either
        carries the snapshot's ``ETag`` and ``X-Repro-Generation``.
        """
        def run() -> ServiceResponse:
            render = prepare()
            handle = self.handle(archive_id)
            with handle.reader() as reader:
                etag = _etag_for(handle.id, reader)
                stamp = {"ETag": etag, "X-Repro-Generation": str(reader.generation)}
                cached = _etag_matches(if_none_match, etag)
                response = ServiceResponse(304) if cached else render(reader)
            response.headers = {**stamp, **response.headers}
            return response

        return self._execute(endpoint, run, archive=archive_id, **span_args)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def handle_health(self) -> ServiceResponse:
        """``GET /healthz`` — liveness plus the served archive count."""
        def run() -> ServiceResponse:
            with self._handles_lock:
                count = len(self._handles)
            return ServiceResponse.json({"status": "ok", "archives": count})

        return self._execute("health", run)

    def handle_archives(self) -> ServiceResponse:
        """``GET /archives`` — id, path, generation and sizes of every archive."""
        def run() -> ServiceResponse:
            with self._handles_lock:
                handles = sorted(self._handles.values(), key=lambda h: h.id)
            listing = []
            for handle in handles:
                with handle.reader() as reader:
                    listing.append(
                        {
                            "id": handle.id,
                            "path": str(handle.path),
                            "generation": reader.generation,
                            "fields": len(reader.names),
                            "steps": len(reader.steps),
                        }
                    )
            return ServiceResponse.json({"archives": listing})

        return self._execute("archives", run)

    def handle_manifest(
        self, archive_id: str, if_none_match: Optional[str] = None
    ) -> ServiceResponse:
        """``GET /archives/{id}/manifest`` — fields, codec params, timestep index."""
        def render(reader: ArchiveReader) -> ServiceResponse:
            fields = []
            for entry in reader.fields():
                payload = entry.to_dict()
                payload.pop("chunks")  # offsets are server-internal noise
                payload["chunk_count"] = len(entry.chunks)
                payload["compressed_nbytes"] = entry.compressed_nbytes
                payload["grid_counts"] = list(entry.grid_counts)
                fields.append(payload)
            return ServiceResponse.json(
                {
                    "id": archive_id,
                    "format": "XFA1",
                    "generation": reader.generation,
                    "attrs": reader.attrs,
                    "fields": fields,
                    "timesteps": [ts.to_dict() for ts in reader.timesteps],
                }
            )

        return self._conditional("manifest", archive_id, if_none_match, lambda: render)

    def handle_region(
        self,
        archive_id: str,
        field_name: str,
        region: Optional[str] = None,
        fmt: str = "npy",
        if_none_match: Optional[str] = None,
    ) -> ServiceResponse:
        """``GET /archives/{id}/fields/{name}/region`` — binary npy or JSON slice.

        ``region`` is the CLI slice syntax (``"0:10,20:40"``; absent reads the
        whole field).  Unknown fields map to 404, out-of-bounds regions to
        416, malformed slice strings to 422.
        """
        def prepare():
            response_format = _choice("format", fmt, ("npy", "json"))
            sls = parse_region(region) if region else None
            return lambda reader: _array_response(
                reader.read_region(field_name, sls),
                response_format,
                reader.generation,
                payload={"field": field_name, "region": region},
            )

        return self._conditional("region", archive_id, if_none_match, prepare, field=field_name)

    def handle_preview(
        self,
        archive_id: str,
        field_name: str,
        fraction: Union[str, float] = 0.25,
        region: Optional[str] = None,
        fmt: str = "npy",
        if_none_match: Optional[str] = None,
    ) -> ServiceResponse:
        """``GET /archives/{id}/fields/{name}/preview?fraction=`` — coarse read.

        Rides the grouped progressive layout where the field's codec supports
        it; other codecs serve a full decode with ``fallback: true`` in the
        report (and the ``X-Repro-Preview-Fallback`` header) so clients can
        tell a real prefix decode from a full-price one.  An out-of-range
        ``fraction`` maps to 422.
        """
        def prepare():
            response_format = _choice("format", fmt, ("npy", "json"))
            budget = _fraction("fraction", fraction)  # ValueError -> 422
            sls = parse_region(region) if region else None

            def render(reader: ArchiveReader) -> ServiceResponse:
                data, info = reader.read_region_preview(field_name, sls, fraction=budget)
                headers = {
                    "X-Repro-Preview-Fraction": f"{info['fraction']:g}",
                    "X-Repro-Preview-Bytes": str(info["bytes_decoded"]),
                    "X-Repro-Preview-Bytes-Total": str(info["bytes_total"]),
                    "X-Repro-Preview-Groups": str(info["groups_decoded"]),
                    "X-Repro-Preview-Groups-Total": str(info["groups_total"]),
                    "X-Repro-Preview-RMS-Estimate": f"{info['rms_error_estimate']:g}",
                    "X-Repro-Preview-Fallback": "true" if info["fallback"] else "false",
                }
                return _array_response(
                    data,
                    response_format,
                    reader.generation,
                    headers,
                    {"field": field_name, "region": region, "preview": info},
                )

            return render

        return self._conditional("preview", archive_id, if_none_match, prepare, field=field_name)

    def handle_timesteps(self, archive_id: str, if_none_match: Optional[str] = None) -> ServiceResponse:
        """``GET /archives/{id}/timesteps`` — the timestep index with sizes."""
        def render(reader: ArchiveReader) -> ServiceResponse:
            steps = []
            for ts in reader.timesteps:
                entry = ts.to_dict()
                entry["compressed_nbytes"] = sum(
                    reader.field(stored).compressed_nbytes for stored in ts.fields.values()
                )
                steps.append(entry)
            return ServiceResponse.json(
                {"id": archive_id, "generation": reader.generation, "steps": steps}
            )

        return self._conditional("timesteps", archive_id, if_none_match, lambda: render)

    def handle_timestep(
        self,
        archive_id: str,
        step: Union[str, int],
        fields: Optional[str] = None,
        fmt: str = "json",
        if_none_match: Optional[str] = None,
    ) -> ServiceResponse:
        """``GET /archives/{id}/timesteps/{step}`` — one decoded timestep.

        ``fmt="npz"`` streams the fields as one ``np.savez`` container;
        ``fmt="json"`` nests them as lists.  Unknown steps and unknown field
        selections map to 404.
        """
        def prepare():
            response_format = _choice("format", fmt, ("json", "npz"))
            step_id = _integer("step", step)
            names = _split_fields(fields)

            def render(reader: ArchiveReader) -> ServiceResponse:
                try:
                    entry = reader.manifest.timestep(step_id)
                    fieldset = reader.read_timestep(step_id, fields=names)
                except ArchiveError as exc:
                    # a missing step / missing field selection is Not Found,
                    # not an unsatisfiable range
                    raise ServiceError(404, str(exc))
                if response_format == "npz":
                    buffer = io.BytesIO()
                    np.savez(buffer, **{name: fieldset[name].data for name in fieldset.names})
                    headers = {"X-Repro-Step": str(entry.step)}
                    return ServiceResponse(200, buffer.getvalue(), NPZ_MEDIA_TYPE, headers)
                document = _step_document(entry, fieldset)
                document.update(id=archive_id, generation=reader.generation)
                return ServiceResponse.json(document)

            return render

        return self._conditional("timestep", archive_id, if_none_match, prepare, step=str(step))

    def handle_timerange(
        self,
        archive_id: str,
        start: Union[None, str, int] = None,
        stop: Union[None, str, int] = None,
        fields: Optional[str] = None,
        include: str = "stats",
        if_none_match: Optional[str] = None,
    ) -> ServiceResponse:
        """``GET /archives/{id}/timerange?start=&stop=`` — a decoded step range.

        ``include="stats"`` (default) summarises each field (shape, min, max,
        mean) so long ranges stay cheap to transfer; ``include="data"`` nests
        the full arrays.
        """
        def prepare():
            mode = _choice("include", include, ("stats", "data"))
            lo, hi = _integer("start", start), _integer("stop", stop)
            names = _split_fields(fields)

            def render(reader: ArchiveReader) -> ServiceResponse:
                try:
                    selected = reader.read_time_range(lo, hi, fields=names)
                except ArchiveError as exc:
                    raise ServiceError(404, str(exc))
                steps = [_step_document(entry, fieldset, mode) for entry, fieldset in selected]
                return ServiceResponse.json(
                    {"id": archive_id, "generation": reader.generation, "steps": steps}
                )

            return render

        return self._conditional("timerange", archive_id, if_none_match, prepare)

    def handle_refresh(self, archive_id: str) -> ServiceResponse:
        """``POST /archives/{id}/refresh`` — explicit reopen-on-new-generation."""
        def run() -> ServiceResponse:
            handle = self.handle(archive_id)
            reopened = handle.refresh()
            return ServiceResponse.json(
                {"id": handle.id, "generation": handle.generation, "reopened": reopened}
            )

        return self._execute("refresh", run, archive=archive_id)

    def handle_stats(self, archive_id: Optional[str] = None) -> ServiceResponse:
        """``GET /stats`` / ``GET /archives/{id}/stats`` — cache + request stats."""
        def run() -> ServiceResponse:
            document: Dict = {"requests": self.request_stats()}
            document["shared_cache"] = {
                key: int(value) for key, value in self.cache.stats.items()
            }
            if archive_id is not None:
                handle = self.handle(archive_id)
                with handle.reader() as reader:
                    document["archive"] = {
                        "id": handle.id,
                        "generation": reader.generation,
                        "cache": reader.cache_stats(),
                    }
            return ServiceResponse.json(document)

        return self._execute("stats", run, archive=archive_id or "-")

    def request_stats(self) -> Dict[str, float]:
        """Aggregate request counters from the always-on service recorder."""
        snapshot = self.telemetry.snapshot()
        stats = {
            name: value
            for name, value in snapshot.counters.items()
            if name.startswith("http.")
        }
        histogram = snapshot.histograms.get("http.request.seconds")
        if histogram is not None and histogram.count:
            stats["http.request.p50_seconds"] = histogram.quantile(0.5)
            stats["http.request.p99_seconds"] = histogram.quantile(0.99)
        return stats

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def dispatch(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        """Route one request through :data:`ROUTES` to its handler.

        ``query`` values are plain strings (last value wins for repeats), and
        ``headers`` keys are matched case-insensitively.  The decoded
        ``{name}`` path segments and the route's query keys become handler
        keywords; the handler is looked up by name on every call, so a method
        replaced on the class is the one that runs.  A path served under other
        methods answers ``405`` with an ``Allow`` header; an unknown path
        answers ``404``.  Used by the stdlib HTTP server and by in-process
        callers (scenario smoke traffic).
        """
        started = time.perf_counter()
        allowed = []
        for route in ROUTES:
            match = route.pattern.match(path)
            if match is None:
                continue
            if method.upper() == route.method:
                kwargs = {key: unquote(value) for key, value in match.groupdict().items()}
                query = query or {}
                kwargs.update(
                    (word, query[key]) for key, word in route.query.items() if key in query
                )
                if route.conditional:
                    lowered = {str(k).lower(): v for k, v in (headers or {}).items()}
                    kwargs["if_none_match"] = lowered.get("if-none-match")
                return getattr(self, route.handler)(**kwargs)
            allowed.append(route.method)
        if allowed:
            response = ServiceResponse.error(405, f"method {method} not allowed for {path}")
            response.headers["Allow"] = ", ".join(allowed)
        else:
            response = ServiceResponse.error(404, f"no route for {method} {path}")
        return self._record(response, time.perf_counter() - started)
