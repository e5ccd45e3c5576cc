"""Random-access reads from ``XFA1`` archives.

:class:`ArchiveReader` opens an archive footer-first, keeps the JSON manifest
in memory, and serves :meth:`~ArchiveReader.read_region` requests by touching
only the chunks that intersect the requested slices — each chunk is one
``seek`` + ``read`` + CRC check + decode, with decoded chunks kept in an LRU
cache so repeated reads of nearby regions are served hot.  A coarse *preview*
read is the same path with a byte-budget ``fraction`` set.

Multi-chunk reads and :meth:`~ArchiveReader.verify` fan chunks out through the
shared :class:`~repro.parallel.engine.ChunkScheduler` (the same engine the
writer compresses through): payload I/O goes through a
:class:`~repro.store.bytestore.ByteStore` backend — lock-free zero-copy slices
on the default mmap backend, one seek/read mutex on the file backend — codec
decodes run outside every lock, and decoded chunks are assembled into a
preallocated output array as they arrive, in completion order.  ``jobs=1``
restores the serial reference loop.

The chunk-fetch engine lives in :class:`ChunkFetcher`, shared with
:class:`~repro.store.writer.ArchiveWriter`: the writer uses the same code to
reconstruct anchor chunks for cross-field fields, guaranteeing that encode and
decode see bit-identical anchor data.  Every fetcher talks to one
:class:`~repro.store.shared_cache.SharedChunkCache`; readers handed the same
instance (``shared_cache=True`` for the process-wide one) decode every hot
chunk exactly once between them.
"""

from __future__ import annotations

import math
import os
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import recorder as _obs
from repro.parallel.engine import ChunkScheduler
from repro.store.bytestore import ByteStore, open_bytestore
from repro.store.cache import DEFAULT_CACHE_BYTES, freeze_chunk
from repro.store.codecs import Codec, get_codec
from repro.store.shared_cache import SharedChunkCache, process_chunk_cache
from repro.store.manifest import (
    ArchiveCorruptionError,
    ArchiveError,
    ArchiveManifest,
    ChunkEntry,
    FieldEntry,
    TimestepEntry,
    chunks_intersecting_region,
    normalize_region,
    read_manifest,
    recover_manifest,
)

__all__ = ["ArchiveReader", "ChunkFetcher"]

PathLike = Union[str, os.PathLike]


def _validate_preview_fraction(fraction) -> float:
    """Check a preview byte-budget at the reader boundary.

    Returns the value as ``float``.  Anything outside the finite ``(0, 1]``
    interval raises :class:`ValueError` *before* it can reach the codec or
    pollute the fraction-keyed preview cache — values ``> 1`` used to clamp
    silently (while caching under the unclamped key) and values ``<= 0`` /
    non-finite failed deep inside the codec or not at all.
    """
    value = float(fraction)
    if not math.isfinite(value) or not 0.0 < value <= 1.0:
        raise ValueError(f"preview fraction must be in (0, 1], got {fraction!r}")
    return value


class ChunkFetcher:
    """Reads, CRC-verifies, decodes and caches chunks of one archive.

    ``store`` is a :class:`~repro.store.bytestore.ByteStore`; it must stay
    open for the fetcher's lifetime.  ``lookup`` maps a field name to its
    :class:`FieldEntry`.  Anchor chunks of cross-field fields are fetched
    recursively through the same cache, so decoding one cross-field chunk
    warms the cache for its anchors too.

    ``cache`` holds every decoded chunk, full or preview, under keys prefixed
    with ``archive_id`` (the reader's ``(st_dev, st_ino, generation)``
    identity), and concurrent misses on one key coalesce onto a single
    decode — across every fetcher handed the same cache instance.
    """

    def __init__(
        self,
        store: ByteStore,
        lookup: Callable[[str], FieldEntry],
        cache: SharedChunkCache,
        archive_id: Tuple = (),
    ) -> None:
        self.store = store
        self._lookup = lookup
        self.cache = cache
        self._archive_id = tuple(archive_id)
        self._codecs: Dict[str, Codec] = {}
        # The file backend serialises seek+read on its own lock; codec decodes
        # run outside every lock so concurrent fetchers (the writer's
        # compression workers reconstructing anchors) only serialise on the
        # cheap I/O and cache bookkeeping.  ``io_lock`` is the store's lock
        # where it has one (the file backend) so the writer can take it around
        # its own appends to the handle; the mmap/memory backends read
        # lock-free and the attribute is a dummy.
        self.io_lock = getattr(store, "lock", None) or threading.Lock()
        # guards the codec table and the counters below
        self._lock = threading.Lock()
        #: Always-on accounting of this fetcher's own work (cache hits
        #: excluded): full codec decodes, preview decodes, payload bytes read.
        #: Stage timings and cache traffic go to the global recorder instead,
        #: and only when telemetry is enabled.
        self.chunks_decoded = 0
        self.previews_decoded = 0
        self.bytes_read = 0

    def codec_for(self, entry: FieldEntry) -> Codec:
        """Instantiate (once) the codec recorded in a field entry."""
        with self._lock:
            if entry.name not in self._codecs:
                self._codecs[entry.name] = get_codec(entry.codec, **entry.codec_params)
            return self._codecs[entry.name]

    def read_payload(self, entry: FieldEntry, chunk: ChunkEntry):
        """Read one chunk's raw payload and verify its CRC.

        Returns ``bytes`` on copying backends and a zero-copy ``memoryview``
        on the mmap/memory backends; the CRC runs directly over either.
        Callers receiving a ``memoryview`` must release it when done (the
        decode path does; an mmap store cannot unmap while views are alive).
        """
        recorder = _obs.get_recorder()
        io_start = time.perf_counter()
        payload = self.store.view(chunk.offset, chunk.length)
        recorder.observe("store.read.io_seconds", time.perf_counter() - io_start)
        with self._lock:
            self.bytes_read += len(payload)
        recorder.count("store.read.bytes_in", len(payload))
        if len(payload) != chunk.length:
            problem = (
                f"archive truncated (wanted {chunk.length} bytes at offset "
                f"{chunk.offset}, got {len(payload)})"
            )
        else:
            crc_start = time.perf_counter()
            crc_ok = (zlib.crc32(payload) & 0xFFFFFFFF) == chunk.crc32
            recorder.observe("store.read.crc_seconds", time.perf_counter() - crc_start)
            if crc_ok:
                return payload
            problem = "CRC mismatch, chunk is corrupted"
        if isinstance(payload, memoryview):
            payload.release()
        raise ArchiveCorruptionError(f"field {entry.name!r} chunk {chunk.index}: {problem}")

    def _fetch(
        self,
        name: str,
        index: int,
        fraction: Optional[float],
        refresh: bool = False,
        _fresh: Optional[set] = None,
    ):
        """The one chunk path: cache lookup, then read, CRC-check and decode.

        ``fraction=None`` decodes in full and yields the chunk; a fraction
        decodes a progressive prefix and yields ``(chunk, report)``, cached
        as one value under a key extended with the fraction so it never
        aliases the full-precision entry.  Returned arrays are always
        read-only (:func:`~repro.store.cache.freeze_chunk`).
        """
        index = int(index)
        key = self._archive_id + (name, index)
        if fraction is not None:
            key += ("preview", fraction)

        def decode():
            entry = self._lookup(name)
            if not 0 <= index < len(entry.chunks):
                raise ArchiveCorruptionError(
                    f"field {name!r}: manifest lists {len(entry.chunks)} chunks but the "
                    f"chunk grid {entry.grid_counts} implies chunk {index} should exist"
                )
            chunk = entry.chunks[index]
            if chunk.index != index:  # pragma: no cover - manifest is written in order
                raise ArchiveCorruptionError(
                    f"field {name!r}: chunk list out of order ({chunk.index} at position {index})"
                )
            codec = self.codec_for(entry)
            payload = self.read_payload(entry, chunk)
            payload_len = len(payload)
            try:
                # refresh propagates: a deep verify must not decode the target
                # against stale cached anchors (the memo keeps that one-decode-
                # per-chunk within a single pass)
                anchors = [
                    self._fetch(anchor, index, None, refresh, _fresh)
                    for anchor in entry.anchors
                ] or None
                if isinstance(payload, memoryview) and not getattr(
                    codec, "decode_accepts_buffer", False
                ):
                    # codec insists on real bytes: materialise the view once
                    buf = payload.tobytes()
                    payload.release()
                    payload = buf
                decode_start = time.perf_counter()
                if fraction is None:
                    decoded, report = codec.decode(payload, anchors=anchors), None
                else:
                    decoded, report = codec.decode_preview(payload, fraction)
                decode_seconds = time.perf_counter() - decode_start
            finally:
                if isinstance(payload, memoryview):
                    payload.release()
            if decoded.shape != chunk.shape:
                raise ArchiveCorruptionError(
                    f"field {name!r} chunk {index}: decoded shape {decoded.shape} "
                    f"does not match manifest shape {chunk.shape}"
                )
            if decoded.dtype != np.dtype(entry.dtype):
                decoded = decoded.astype(entry.dtype)
            # cached chunks are shared; freeze before anyone can alias the buffer
            decoded = freeze_chunk(decoded)
            recorder = _obs.get_recorder()
            if report is None:
                with self._lock:
                    self.chunks_decoded += 1
                if recorder.enabled:
                    recorder.observe("store.read.decode_seconds", decode_seconds)
                    recorder.observe(f"store.codec.{entry.codec}.decode_seconds", decode_seconds)
                    recorder.count(f"store.codec.{entry.codec}.bytes_in", payload_len)
                    recorder.count(f"store.codec.{entry.codec}.bytes_out", int(decoded.nbytes))
                    recorder.count("store.read.chunks_decoded")
                    recorder.count("store.read.bytes_out", int(decoded.nbytes))
                return decoded
            with self._lock:
                self.previews_decoded += 1
            if recorder.enabled:
                recorder.observe("store.preview.decode_seconds", decode_seconds)
                recorder.count("store.preview.chunks")
                recorder.count("store.preview.bytes_decoded", int(report["bytes_decoded"]))
                recorder.count("store.preview.bytes_total", int(report["bytes_total"]))
            # progressive codecs predate the fallback flag; normalise it here
            # so every preview report carries an explicit verdict
            return decoded, {"fallback": False, **report}

        if not refresh or (_fresh is not None and key in _fresh):
            # single-flight: concurrent misses on this key (across every
            # reader sharing the cache) coalesce onto one decode; a chunk deep
            # verification re-decoded earlier in its pass is as good as cached
            return self.cache.get_or_compute(key, decode)
        value = decode()
        self.cache.put(key, value)
        if _fresh is not None:
            _fresh.add(key)
        return value

    def get_chunk(
        self,
        name: str,
        index: int,
        refresh: bool = False,
        _fresh: Optional[set] = None,
    ) -> np.ndarray:
        """Return the decompressed chunk ``index`` of field ``name`` (cached).

        ``refresh=True`` bypasses the cache lookup and forces a fresh disk
        read + CRC check + decode (used by deep verification); the result
        still replaces the cache entry.  ``_fresh`` is deep
        verification's per-pass memo: chunks it already re-decoded in this
        pass may be served from cache again (each chunk is verified exactly
        once per pass even when several cross-field targets share it as an
        anchor).
        """
        return self._fetch(name, index, None, refresh, _fresh)

    def get_chunk_preview(self, name: str, index: int, fraction: float) -> Tuple[np.ndarray, Dict]:
        """Decode a coarse preview of one chunk within a byte-budget fraction.

        Returns ``(array, info)`` — ``info`` is the codec's preview report
        (``groups_decoded`` / ``bytes_decoded`` / ``rms_error_estimate`` ...).
        Fields whose codec has no progressive layout fall back to a plain
        :meth:`get_chunk` billed at the full payload size, reported with
        ``fallback: True`` (progressive decodes report ``fallback: False``).
        ``fraction`` must be a finite value in ``(0, 1]``; anything else
        raises :class:`ValueError` here, at the reader boundary, instead of
        flowing into the codec and the preview cache key.  A preview is
        cached with its report, so a hit — from this fetcher or any other
        sharing the cache — returns the report of the decode that filled it.
        """
        fraction = _validate_preview_fraction(fraction)
        entry = self._lookup(name)
        if getattr(self.codec_for(entry), "supports_preview", False):
            chunk, info = self._fetch(name, index, fraction)
            return chunk, dict(info)
        # the full fetch bounds-checks ``index`` before it is used below
        chunk = self._fetch(name, index, None)
        nbytes = int(entry.chunks[index].length)
        _obs.count("store.preview.fallback_chunks")
        return chunk, {
            "groups_decoded": 1,
            "groups_total": 1,
            "bytes_decoded": nbytes,
            "bytes_total": nbytes,
            "rms_error_estimate": 0.0,
            "fallback": True,
        }


class ArchiveReader:
    """Random-access reader for one ``XFA1`` archive file.

    Parameters
    ----------
    path:
        The archive file.
    cache_bytes / cache_entries:
        Budget of this reader's own decoded-chunk cache (see
        :class:`~repro.store.cache.LRUChunkCache`); ignored when
        ``shared_cache`` names a cache to use instead.
    jobs:
        Worker count for multi-chunk reads and verification: ``None`` sizes
        the pool to the machine, ``1`` decodes serially in the calling thread.
    recover:
        When the newest footer is torn (an append session crashed mid-write,
        or the file was truncated), scan backwards for the last fully flushed
        manifest instead of raising — the reader then serves everything the
        archive had durably published at that point.  The file itself is not
        modified.
    backend:
        I/O backend: ``"auto"`` (default — mmap where possible, file
        otherwise), ``"mmap"`` (lock-free zero-copy reads), or ``"file"``
        (classic seek/read under one lock).  See
        :mod:`repro.store.bytestore`.
    shared_cache:
        ``None``/``False`` gives the reader a cache of its own.  ``True``
        plugs into the lazily created process-wide
        :class:`~repro.store.shared_cache.SharedChunkCache`; a
        ``SharedChunkCache`` instance uses that cache.  Entries are keyed by
        archive identity *and* manifest generation (the published footer's
        end offset), so readers opened before and after an append never see
        each other's chunks.

    The reader is safe to share between threads: the byte store and the
    chunk cache are internally synchronised, and decodes run outside every
    lock.

    Examples
    --------
    >>> from repro.store import ArchiveReader  # doctest: +SKIP
    >>> with ArchiveReader("snapshot.xfa") as reader:  # doctest: +SKIP
    ...     window = reader.read_region("T", (slice(0, 10), slice(40, 80)))
    """

    def __init__(
        self,
        path: PathLike,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cache_entries: Optional[int] = None,
        jobs: Optional[int] = None,
        recover: bool = False,
        backend: str = "auto",
        shared_cache: Union[None, bool, SharedChunkCache] = None,
    ) -> None:
        if shared_cache is True:
            cache = process_chunk_cache()
        elif isinstance(shared_cache, SharedChunkCache):
            cache = shared_cache
        elif shared_cache in (None, False):
            # a private cache is simply an instance nobody else holds
            cache = SharedChunkCache(max_bytes=cache_bytes, max_entries=cache_entries)
        else:
            raise ValueError(
                "shared_cache must be None, a bool, or a SharedChunkCache instance"
            )
        # reuse_pool: region reads are many-small-batches; per-call pool
        # construction would rival the decode cost of a few-chunk read
        self._scheduler = ChunkScheduler(jobs=jobs, reuse_pool=True)
        self.path = Path(path)
        self._closed = False
        self._store: Optional[ByteStore] = open_bytestore(self.path, backend)
        try:
            try:
                self.manifest, _, published_end = read_manifest(self._store)
            except ArchiveError:
                if not recover:
                    raise
                self.manifest, published_end = recover_manifest(self._store)
        except Exception:
            self._scheduler.close()
            self._store.close()
            self._store = None
            self._closed = True
            raise
        #: Manifest generation: the published end offset of the footer this
        #: reader's manifest came from.  Monotonic per archive — every append
        #: flush publishes a footer at a strictly larger offset — so it doubles
        #: as the shared-cache generation token.
        self.generation = int(published_end)
        stat = os.stat(self.path)
        archive_id = (stat.st_dev, stat.st_ino, self.generation)
        self._fetcher = ChunkFetcher(self._store, self.manifest.__getitem__, cache, archive_id)

    @property
    def backend(self) -> str:
        """Name of the resolved I/O backend (``"mmap"`` / ``"file"``)."""
        store = self._store
        return store.name if store is not None else "closed"

    def close(self) -> None:
        """Release the byte store and the worker pool (idempotent).

        The mmap backend unmaps deterministically here — not at GC time — and
        raises ``BufferError`` if zero-copy payload views are still alive
        (always a caller-side leak; the read path releases its views).
        """
        if self._closed:
            return
        self._scheduler.close()
        if self._store is not None:
            self._store.close()  # BufferError on leaked views propagates
            self._store = None
        self._closed = True

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed or self._store is None:
            raise ArchiveError("archive reader is closed")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> List[str]:
        """Stored field names in write order."""
        return self.manifest.names

    @property
    def attrs(self) -> Dict:
        """Archive-level attributes recorded at write time."""
        return self.manifest.attrs

    def field(self, name: str) -> FieldEntry:
        """Manifest entry of one field."""
        return self.manifest[name]

    def fields(self) -> List[FieldEntry]:
        """All manifest entries in write order."""
        return [self.manifest[name] for name in self.names]

    def cache_stats(self) -> Dict[str, int]:
        """Chunk-cache statistics plus decode/IO counters.

        The cache numbers (``hits`` / ``misses`` / ``evictions`` /
        ``coalesced`` / occupancy) describe the cache this reader uses — all
        of its traffic when it is shared with other readers.
        ``chunks_decoded`` / ``previews_decoded`` / ``bytes_read`` are always
        this reader's own work.
        """
        stats = self._fetcher.cache.stats
        stats["chunks_decoded"] = self._fetcher.chunks_decoded
        stats["previews_decoded"] = self._fetcher.previews_decoded
        stats["bytes_read"] = self._fetcher.bytes_read
        return stats

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def read_field(self, name: str, preview_fraction: Optional[float] = None) -> np.ndarray:
        """Decompress and return one whole field.

        ``preview_fraction`` requests a coarse progressive preview instead of
        the full-precision decode — see :meth:`read_region`.
        """
        return self.read_region(name, None, preview_fraction=preview_fraction)

    def read_region(
        self, name: str, region=None, preview_fraction: Optional[float] = None
    ) -> np.ndarray:
        """Return the sub-array of ``name`` selected by ``region``.

        ``region`` is a tuple of slices/ints (trailing axes default to full
        extent; ``None`` reads the whole field).  Only chunks intersecting the
        region are read from disk and decompressed; multi-chunk regions are
        fetched and decoded in parallel through the reader's scheduler and
        assembled into one preallocated output array as they complete.

        ``preview_fraction`` (0 < f) asks each chunk's codec for a coarse
        preview decoded from roughly that fraction of its entropy payload —
        supported by ``zfp`` fields with the grouped progressive layout;
        other fields silently fall back to a full decode.  Use
        :meth:`read_region_preview` to also get the decode report (bytes
        touched, error estimate).
        """
        return self._read(name, region, preview_fraction)[0]

    def read_region_preview(
        self, name: str, region=None, fraction: float = 0.25
    ) -> Tuple[np.ndarray, Dict]:
        """Coarse progressive read of a region, with its decode report.

        Like :meth:`read_region`, but each intersecting chunk is decoded from
        (roughly) the first ``fraction`` of its entropy payload via the
        codec's progressive layout.  Returns ``(array, info)`` where ``info``
        aggregates over the touched chunks: ``chunks``, ``groups_decoded`` /
        ``groups_total``, ``bytes_decoded`` / ``bytes_total``, and
        ``rms_error_estimate`` (point-count-weighted RMS over the chunks —
        an upper-level view of the energy left in the dropped coefficient
        groups; 0.0 when everything decoded in full).  ``fallback`` is True
        when the field's codec has no progressive layout and the "preview"
        was served as a full decode billed at full payload size; clients
        (the CLI and the HTTP service surface it) should not mistake it for
        a cheap prefix read.  ``fraction`` must be finite and in ``(0, 1]``
        (``ValueError`` otherwise).
        """
        return self._read(name, region, fraction)

    def _read(self, name: str, region, fraction: Optional[float]):
        """The one region loop; ``fraction=None`` is a full-precision read."""
        if fraction is not None:
            fraction = _validate_preview_fraction(fraction)
        self._require_open()
        entry = self.manifest[name]
        sls = normalize_region(entry.shape, region)
        out_shape = tuple(sl.stop - sl.start for sl in sls)
        out = np.empty(out_shape, dtype=np.dtype(entry.dtype))
        indices = chunks_intersecting_region(entry.shape, entry.chunk_shape, sls)

        # the fetcher bounds-checks each index against the (possibly
        # malformed) manifest chunk list before the loop indexes into it
        if fraction is None:
            span = "store.read.region_seconds"

            def fetch(index: int):
                return self._fetcher.get_chunk(name, index), None
        else:
            span = "store.preview.region_seconds"

            def fetch(index: int):
                return self._fetcher.get_chunk_preview(name, index, fraction)

        reports: List[Tuple[int, Dict]] = []  # (points, report) per preview chunk
        # Unordered collection: each worker does one seek+read under io_lock
        # and decodes outside every lock; the main thread writes each decoded
        # chunk into its slot as soon as it arrives (slots are disjoint).
        with _obs.span(span, field=name, chunks=len(indices)):
            for position, (chunk, info) in self._scheduler.imap_unordered(fetch, indices):
                chunk_entry = entry.chunks[indices[position]]
                dest, src = _overlap(sls, chunk_entry.start, chunk_entry.stop)
                out[dest] = chunk[src]
                if info is not None:
                    reports.append((chunk.size, info))
        return out, _preview_totals(fraction, reports) if fraction is not None else None

    # ------------------------------------------------------------------ #
    # time-stepped reads
    # ------------------------------------------------------------------ #
    @property
    def timesteps(self) -> List[TimestepEntry]:
        """The manifest's timestep index, in append order (empty when absent)."""
        return list(self.manifest.timesteps)

    @property
    def steps(self) -> List[int]:
        """Recorded timestep ids, in append order."""
        return self.manifest.steps

    def read_timestep(self, step: int, fields: Optional[List[str]] = None):
        """Decode one timestep into a :class:`~repro.data.fields.FieldSet`.

        The returned fields carry their *base* names (``"FLNT"``, not the
        stored ``"FLNT@3"``).  ``fields`` selects a subset of the step's base
        names.  Chunk decodes fan out through the reader's scheduler exactly
        like :meth:`read_field`; ``temporal-delta`` fields transparently
        resolve their residual chain back to the nearest anchor step.
        """
        from repro.data.fields import Field, FieldSet

        self._require_open()
        entry = self.manifest.timestep(step)
        names = list(fields) if fields is not None else list(entry.fields)
        for name in names:
            if name not in entry.fields:
                raise ArchiveError(
                    f"timestep {entry.step} has no field {name!r}; "
                    f"available: {sorted(entry.fields)}"
                )
        return FieldSet(
            [Field(name, self.read_field(entry.fields[name])) for name in names],
            name=f"step-{entry.step}",
        )

    def read_time_range(
        self,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        fields: Optional[List[str]] = None,
    ):
        """Decode every timestep with ``start <= step < stop``.

        Returns a list of ``(TimestepEntry, FieldSet)`` pairs in step order;
        ``None`` bounds are open.  Selecting a contiguous range that begins
        mid-chain is still O(range + anchor distance): the chunk cache keeps
        each intermediate delta decode from repeating per step.
        """
        self._require_open()
        selected = [
            entry
            for entry in self.manifest.timesteps
            if (start is None or entry.step >= int(start))
            and (stop is None or entry.step < int(stop))
        ]
        return [(entry, self.read_timestep(entry.step, fields=fields)) for entry in selected]

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def verify(self, deep: bool = False) -> Dict:
        """Check every chunk of every field.

        Shallow verification re-reads each payload and checks its CRC; with
        ``deep=True`` each chunk is instead read, CRC-checked, decompressed
        and validated against the manifest in one pass.  Both modes always
        read from disk — chunks cached by earlier reads are not trusted.
        Returns a report ``{"ok": bool, "fields": {name: {...}}, "errors": [...]}``.
        """
        self._require_open()
        report: Dict = {"ok": True, "fields": {}, "errors": []}
        fresh: set = set()  # chunks already re-decoded in this pass
        for entry in self.fields():
            field_report = {"chunks": len(entry.chunks), "ok": True}
            expected_chunks = int(np.prod(entry.grid_counts))
            if len(entry.chunks) != expected_chunks:
                # the read path would reject this field; verify must agree
                field_report["ok"] = False
                report["ok"] = False
                report["errors"].append(
                    f"field {entry.name!r}: manifest lists {len(entry.chunks)} chunks "
                    f"but the chunk grid {entry.grid_counts} requires {expected_chunks}"
                )

            def check(chunk: ChunkEntry, entry: FieldEntry = entry) -> Optional[str]:
                try:
                    if deep:
                        self._fetcher.get_chunk(entry.name, chunk.index, refresh=True, _fresh=fresh)
                    else:
                        self._fetcher.read_payload(entry, chunk)
                # verify is a diagnostic: a CRC-consistent but malformed
                # payload makes the codec raise backend-specific errors
                # (zlib.error, struct.error, ...) that must become report
                # entries, not tracebacks
                except Exception as exc:
                    return _chunk_error_message(entry.name, chunk.index, exc)
                return None

            # Fields are verified one after another (write order, so anchors
            # are re-decoded before the cross-field targets that consume
            # them), but the chunks *within* a field check in parallel: with
            # aligned grids, chunk i of a target only touches chunk i of its
            # anchors, so concurrent tasks never race on the same chunk.
            # Ordered collection keeps the error list deterministic.
            with _obs.span("store.verify.field_seconds", field=entry.name, deep=deep):
                errors = [
                    e for e in self._scheduler.map(check, entry.chunks) if e is not None
                ]
            if errors:
                field_report["ok"] = False
                report["ok"] = False
                report["errors"].extend(errors)
            report["fields"][entry.name] = field_report
        return report


def _chunk_error_message(name: str, index: int, exc: Exception) -> str:
    """A verify-report entry that always names the field and chunk.

    :class:`ArchiveCorruptionError` messages already carry their own
    ``field ... chunk ...`` context; bare codec-backend errors (``zlib.error``,
    ``struct.error``, ...) do not, and a bare ``str(exc)`` is useless in a
    multi-field report — prefix those with the failing chunk's coordinates.
    """
    prefix = f"field {name!r} chunk {index}"
    message = str(exc)
    if prefix in message:
        return message
    return f"{prefix}: {message}"


def _preview_totals(fraction: float, reports: List[Tuple[int, Dict]]) -> Dict:
    """Fold per-chunk preview reports (with their point counts) into a region's."""
    totals: Dict = {"chunks": len(reports)}
    for key in ("groups_decoded", "groups_total", "bytes_decoded", "bytes_total"):
        totals[key] = sum(int(info[key]) for _, info in reports)
    energy = sum(float(info["rms_error_estimate"]) ** 2 * points for points, info in reports)
    totals["fraction"] = fraction
    totals["rms_error_estimate"] = float(np.sqrt(energy / sum(n for n, _ in reports)))
    # one codec per field: either every chunk fell back or none did
    totals["fallback"] = any(info["fallback"] for _, info in reports)
    return totals


def _overlap(
    region: Tuple[slice, ...], start: Tuple[int, ...], stop: Tuple[int, ...]
) -> Tuple[Tuple[slice, ...], Tuple[slice, ...]]:
    """Destination (region-relative) and source (chunk-relative) overlap slices."""
    dest: List[slice] = []
    src: List[slice] = []
    for sl, c0, c1 in zip(region, start, stop):
        lo = max(sl.start, c0)
        hi = min(sl.stop, c1)
        dest.append(slice(lo - sl.start, hi - sl.start))
        src.append(slice(lo - c0, hi - c0))
    return tuple(dest), tuple(src)
