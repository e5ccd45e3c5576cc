"""Streaming-append writer for ``XFA1`` archives.

:class:`ArchiveWriter` compresses each added field chunk-by-chunk (the chunk
grid comes from :func:`repro.data.slicing.iter_blocks`, the worker pool from
the shared :class:`~repro.parallel.engine.ChunkScheduler`) and appends the
payloads to the archive file as soon as they are ready — the scheduler's
windowed, in-order streaming is what keeps the full compressed archive out of
memory.  The JSON manifest and footer are written on :meth:`close`.

Two lifecycle modes:

- ``mode="w"`` (default): all writes go to a temp file that is atomically
  renamed over the destination on :meth:`close` — a failed pack never
  destroys an existing archive.
- ``mode="a"``: reopen an existing archive for appending.  The manifest is
  loaded and validated up front, new chunk payloads are appended *after* the
  current footer (the superseded manifest stays in place as a recovery
  point), and every :meth:`flush` publishes a fresh manifest + footer at the
  new end of file.  A crash between flushes leaves all previously flushed
  state recoverable (``recover=True`` here, or
  ``ArchiveReader(path, recover=True)``).

Time-stepped streaming sits on top of append mode: :meth:`add_timestep` adds
one fieldset as a timestep (stored names ``{field}@{step}``), records it in
the manifest's timestep index, and — per the
:class:`~repro.store.temporal.TemporalSpec` policy — stores each field either
independently or as a ``temporal-delta`` residual against its decoded previous
step, with an independent anchor step every ``anchor_every`` occurrences.

Error bounds are the same as a single-shot compression: a relative bound is
resolved once against the *full* field, and every chunk is compressed with the
resulting absolute bound, so the stored field satisfies exactly the same
per-point guarantee as compressing the whole field in one piece.

Cross-field fields name previously written fields as anchors.  The writer
*reconstructs* each anchor chunk by decoding it from the archive (through the
shared :class:`~repro.store.reader.ChunkFetcher`), so compression sees the
exact arrays a reader will supply at decompression time.
"""

from __future__ import annotations

import json
import os
import time as _time
import zlib
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.slicing import iter_blocks
from repro.obs import recorder as _obs
from repro.parallel.engine import ChunkScheduler, ChunkTaskError
from repro.store.bytestore import FileByteStore
from repro.store.codecs import Codec, codec_class, get_codec
from repro.store.manifest import (
    FOOTER_SIZE,
    ArchiveError,
    ArchiveManifest,
    ChunkEntry,
    FieldEntry,
    TimestepEntry,
    pack_footer,
    pack_header,
    read_manifest,
    recover_manifest,
)
from repro.store.reader import ChunkFetcher
from repro.store.shared_cache import SharedChunkCache
from repro.store.temporal import TemporalSpec
from repro.sz.errors import ErrorBound

__all__ = ["ArchiveWriter", "stored_field_name"]


def stored_field_name(name: str, step: int) -> str:
    """Manifest field-table name of base field ``name`` at timestep ``step``."""
    return f"{name}@{int(step)}"

PathLike = Union[str, os.PathLike]

#: Default chunk edge length along every axis (clamped to the field size).
DEFAULT_CHUNK_EDGE = 64

#: Points per writer task: a field's consecutive chunks go to
#: :meth:`~repro.store.codecs.Codec.encode_many` in batches of about this
#: many points (at least one chunk, and a multiple of ``jobs`` batches per
#: field).  A codec that keeps the base ``encode_many`` gets one chunk a task.
#: SZ's batched encode is on its plateau from ~16 chunks of 64², and a batch
#: holds ~86 B of transient memory per point (see docs/architecture.md).
WRITE_BATCH_POINTS = 1 << 16



class ArchiveWriter:
    """Write many named fields into one chunked archive file.

    Parameters
    ----------
    path:
        Destination file.  Created (parents included) on the first write.
    codec:
        Default codec name for :meth:`add_field` (``"sz"``, ``"zfp"``,
        ``"cross-field"``, ``"lossless"``, or anything registered via
        :func:`repro.store.register_codec`).
    error_bound:
        Default error bound for lossy codecs.
    chunk_shape:
        Default chunk tile; ``None`` uses 64 along every axis (clamped).

        In :meth:`add_timestep` these three defaults apply only to fields new
        to the stream: a field the archive already records continues its
        latest step's codec, bound and chunk grid unless a per-field rule
        restates them.
    max_workers:
        Worker count for per-chunk compression, passed to the shared
        :class:`~repro.parallel.engine.ChunkScheduler` as ``jobs``: ``None``
        sizes the pool to the machine, ``1`` compresses serially.
    executor_kind:
        Legacy alias: ``"serial"`` means ``max_workers=1`` and ``"thread"``
        (default) changes nothing; any other value is rejected.  Its last
        caller is the benchmark spine's writer, and it goes away together
        with ``max_workers`` when that call site moves to ``jobs``.
    attrs:
        Free-form JSON-serialisable archive attributes (provenance, units, …).
        In append mode they are merged into the existing attributes.
    mode:
        ``"w"`` writes a fresh archive (atomic temp + rename on close);
        ``"a"`` reopens an existing archive and appends — see the module
        docstring for the durability contract.
    recover:
        Append mode only: when the archive's newest footer is invalid (a
        previous append session crashed mid-write), scan backwards for the
        last fully flushed manifest and resume from there, truncating the
        torn tail.  Without it such archives are rejected with a clean
        :class:`ArchiveError`.

    Examples
    --------
    >>> from repro.store import ArchiveWriter, ArchiveReader  # doctest: +SKIP
    >>> with ArchiveWriter("snapshot.xfa") as writer:  # doctest: +SKIP
    ...     writer.add_field("T", temperature)
    ...     writer.add_field("RH", humidity, codec="cross-field", anchors=("T",))
    """

    def __init__(
        self,
        path: PathLike,
        codec: str = "sz",
        error_bound: ErrorBound = ErrorBound.relative(1e-3),
        chunk_shape: Optional[Sequence[int]] = None,
        max_workers: Optional[int] = None,
        executor_kind: str = "thread",
        attrs: Optional[Dict] = None,
        mode: str = "w",
        recover: bool = False,
    ) -> None:
        if not isinstance(error_bound, ErrorBound):
            raise TypeError("error_bound must be an ErrorBound instance")
        if mode not in ("w", "a"):
            raise ArchiveError(f"archive writer mode must be 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.default_codec = codec
        self.default_error_bound = error_bound
        self.default_chunk_shape = tuple(int(c) for c in chunk_shape) if chunk_shape else None
        if executor_kind not in ("thread", "serial"):
            raise ValueError(
                f"executor_kind must be 'thread' or 'serial', got {executor_kind!r}"
            )
        # validates jobs eagerly, before any file is created
        self._scheduler = ChunkScheduler(jobs=1 if executor_kind == "serial" else max_workers)
        attrs = dict(attrs or {})
        try:
            # sort_keys matches the manifest serialization in flush(), so
            # non-string keys fail here too, before any compression work
            json.dumps(attrs, sort_keys=True)
        except TypeError as exc:
            raise TypeError(f"attrs must be JSON-serialisable: {exc}") from exc
        self.manifest = ArchiveManifest(attrs=attrs)
        self._fh = None
        self._offset = 0
        self._closed = False
        self._aborted = False
        # Offset one past the last durably published footer (append mode) —
        # the rollback point when an append session aborts.  None until the
        # first flush of a fresh archive.
        self._published_end: Optional[int] = None
        # Whether manifest state has changed since the last flush.
        self._dirty = False
        # All writes in "w" mode go to a uniquely named sibling temp file
        # (created in _ensure_open) that is atomically renamed over `path` on
        # close(): a failed or killed pack never destroys a previously valid
        # archive at the destination, and concurrent packs cannot clobber
        # each other's in-progress files (last close wins the rename).
        self._tmp_path: Optional[Path] = None
        # Anchor reconstruction decodes chunks we just wrote; a small cache
        # keeps repeated anchor use (several cross-field targets sharing
        # anchors, temporal-delta chains) from re-decoding the same chunks.
        self._fetcher: Optional[ChunkFetcher] = None
        # Lazy {base field: (latest stored name, occurrences, recorded spec)}
        # map; see _stream_history.
        self._history: Optional[Dict[str, Tuple[str, int, Optional[TemporalSpec]]]] = None
        if mode == "a":
            # Open eagerly: "reopen and validate the manifest" should fail at
            # construction, not at the first add.
            self._open_append(attrs, recover)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _open_append(self, attrs: Dict, recover: bool) -> None:
        if not self.path.exists():
            raise ArchiveError(
                f"append mode needs an existing archive at {self.path} "
                "(use mode='w' to create one)"
            )
        fh = open(self.path, "r+b")
        try:
            store = FileByteStore(fh=fh)
            try:
                self.manifest, _, published_end = read_manifest(store)
            except ArchiveError:
                if not recover:
                    raise
                # torn tail from a crashed append: resume from the newest
                # fully flushed manifest and drop the garbage after it
                self.manifest, published_end = recover_manifest(store)
                fh.truncate(published_end)
            fh.seek(0, os.SEEK_END)
            file_size = fh.tell()
            for entry in self.manifest.fields.values():
                for chunk in entry.chunks:
                    if chunk.offset + chunk.length > file_size:
                        raise ArchiveError(
                            f"field {entry.name!r} chunk {chunk.index} extends past "
                            "the end of the file; archive is truncated"
                        )
        except BaseException:
            fh.close()
            raise
        self._adopt(fh)
        self._offset = file_size
        self._published_end = published_end
        if attrs:
            self.manifest.attrs.update(attrs)
            self._dirty = True

    def _adopt(self, fh) -> None:
        """Make ``fh`` the archive handle and read anchor chunks back through it.

        A borrowed store: the fetcher reads through the writer's own handle
        (its lock serialises anchor reads against payload writes) and close()
        leaves the handle to the writer.
        """
        self._fh = fh
        self._fetcher = ChunkFetcher(
            FileByteStore(fh=fh),
            self.manifest.__getitem__,
            SharedChunkCache(max_bytes=32 * 1024 * 1024),
        )

    def _ensure_open(self) -> None:
        if self._closed:
            raise ArchiveError("archive writer is closed")
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # O_EXCL gives each writer a unique temp file (concurrent packs to
            # one destination cannot clobber each other), and mode 0666 lets
            # the kernel apply the process umask atomically — no mkstemp-style
            # private 0600 and no global-umask read needed.
            for attempt in range(1000):
                candidate = self.path.with_name(f"{self.path.name}.{os.getpid()}.{attempt}.tmp")
                try:
                    fd = os.open(candidate, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o666)
                    break
                except FileExistsError:
                    continue
            else:  # pragma: no cover - 1000 stale temp files
                raise ArchiveError(f"could not create a temp file next to {self.path}")
            self._tmp_path = candidate
            self._adopt(os.fdopen(fd, "w+b"))
            header = pack_header()
            self._fh.write(header)
            self._offset = len(header)

    def flush(self) -> Path:
        """Write the current manifest + footer at the end of the file.

        In append mode this is the durability point: everything added so far
        becomes reachable by a plain footer-first open, and survives any later
        crash (the flushed manifest is a recovery point for
        :func:`~repro.store.manifest.recover_manifest`).  In write mode it
        checkpoints the temp file; publication still happens via the atomic
        rename in :meth:`close`.  A no-op when nothing changed since the last
        flush.
        """
        self._ensure_open()
        if not self._dirty and self._published_end is not None:
            return self.path
        manifest_bytes, crc = self.manifest.checked_json()
        lock = self._fetcher.io_lock
        with _obs.timer("store.write.flush_seconds"):
            with lock:
                self._fh.seek(self._offset)
                self._fh.write(manifest_bytes)
                self._fh.write(pack_footer(self._offset, len(manifest_bytes), crc))
                self._fh.flush()
                if self.mode == "a":
                    os.fsync(self._fh.fileno())
        _obs.count("store.write.manifest_publications")
        _obs.count("store.write.manifest_bytes", len(manifest_bytes))
        # later appends go *after* the footer we just wrote, so the published
        # manifest is never overwritten by in-flight payload bytes
        self._published_end = self._offset + len(manifest_bytes) + FOOTER_SIZE
        self._offset = self._published_end
        self._dirty = False
        return self.path

    def close(self) -> Path:
        """Finalize the archive and (in write mode) move it into place atomically.

        Raises :class:`ArchiveError` if the writer was aborted (an exception
        inside the ``with`` block or a failed finalize): in write mode nothing
        was published; in append mode the archive was rolled back to its last
        flushed state.
        """
        if self._closed:
            if self._aborted:
                raise ArchiveError(
                    f"archive writer for {self.path} was aborted; "
                    + (
                        "the archive was rolled back to its last flushed state"
                        if self.mode == "a"
                        else "no archive was published"
                    )
                )
            return self.path
        self._ensure_open()
        try:
            self.flush()
            self._fh.close()
            self._fh = None
            if self.mode == "w":
                os.replace(self._tmp_path, self.path)
        except BaseException:
            self._aborted = True
            self._rollback()
            raise
        finally:
            self._fetcher = None  # release the anchor-chunk cache with the handle
            self._scheduler.close()
            self._closed = True
        return self.path

    def _rollback(self) -> None:
        """Abandon unpublished work: drop the temp file (w) or truncate (a)."""
        if self._fh is not None:
            try:
                if self.mode == "a" and self._published_end is not None:
                    # restore the archive to its last durably flushed state so
                    # a plain footer-first open keeps working
                    self._fh.truncate(self._published_end)
            finally:
                self._fh.close()
                self._fh = None
        if self.mode == "w" and self._tmp_path is not None:
            # nothing is published on a failed pack: drop the temp file
            # (any pre-existing archive at the destination is untouched)
            self._tmp_path.unlink(missing_ok=True)

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            # Mark the writer closed so a later close() cannot publish the
            # incomplete state, then roll back to the last durable point.
            self._closed = True
            self._aborted = True
            self._scheduler.close()
            self._rollback()
            self._fetcher = None

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def _resolve_chunk_shape(
        self, shape: Tuple[int, ...], chunk_shape: Optional[Sequence[int]]
    ) -> Tuple[int, ...]:
        resolved = (
            tuple(int(c) for c in chunk_shape)
            if chunk_shape is not None
            else self.default_chunk_shape
        )
        if resolved is None:
            return tuple(min(DEFAULT_CHUNK_EDGE, s) for s in shape)
        if len(resolved) != len(shape):
            raise ArchiveError(
                f"chunk_shape rank {len(resolved)} does not match field rank {len(shape)}"
            )
        if any(c <= 0 for c in resolved):
            raise ArchiveError("chunk_shape entries must be positive")
        return tuple(min(c, s) for c, s in zip(resolved, shape))

    def _validate_anchors(
        self, anchors: Sequence[str], shape: Tuple[int, ...], chunk_shape: Tuple[int, ...]
    ) -> Tuple[str, ...]:
        anchors = tuple(anchors)
        for anchor in anchors:
            if anchor not in self.manifest:
                raise ArchiveError(
                    f"anchor field {anchor!r} must be added to the archive before its target"
                )
            entry = self.manifest[anchor]
            if entry.shape != shape:
                raise ArchiveError(
                    f"anchor {anchor!r} shape {entry.shape} does not match target shape {shape}"
                )
            if entry.chunk_shape != chunk_shape:
                raise ArchiveError(
                    f"anchor {anchor!r} chunk grid {entry.chunk_shape} does not match "
                    f"target chunk grid {chunk_shape} (aligned chunks are required)"
                )
        return anchors

    def add_field(
        self,
        name: str,
        data: np.ndarray,
        codec: Optional[str] = None,
        error_bound: Optional[ErrorBound] = None,
        chunk_shape: Optional[Sequence[int]] = None,
        anchors: Sequence[str] = (),
        **codec_params,
    ) -> FieldEntry:
        """Compress ``data`` chunk-by-chunk and append it under ``name``.

        ``anchors`` names previously added fields (same shape and chunk grid)
        whose reconstructed chunks feed codecs with ``requires_anchors`` (the
        cross-field codec).  Extra keyword arguments are forwarded to the codec
        constructor and recorded in the manifest.
        """
        self._ensure_open()
        if name in self.manifest:
            raise ArchiveError(f"duplicate field name {name!r}")
        data = np.asarray(data)
        if data.dtype == object:
            raise TypeError(f"field {name!r} must be numeric, got object dtype")
        if data.ndim == 0:
            raise ArchiveError(
                f"field {name!r} must be at least 1-dimensional, got a scalar"
            )
        if data.size == 0:
            raise ArchiveError(f"field {name!r} must not be empty")
        data = np.ascontiguousarray(data)

        codec_name = codec if codec is not None else self.default_codec
        cls = codec_class(codec_name)
        resolved_chunk_shape = self._resolve_chunk_shape(data.shape, chunk_shape)
        if cls.requires_anchors and not anchors:
            raise ArchiveError(f"codec {codec_name!r} requires at least one anchor field")
        if anchors and not cls.requires_anchors:
            raise ArchiveError(f"codec {codec_name!r} does not accept anchor fields")
        anchors = self._validate_anchors(anchors, data.shape, resolved_chunk_shape)

        eb = error_bound if error_bound is not None else self.default_error_bound
        if not isinstance(eb, ErrorBound):
            raise TypeError("error_bound must be an ErrorBound instance")
        abs_eb: Optional[float] = None
        if not cls.is_lossless:
            # Resolve relative bounds on the FULL field so every chunk uses the
            # identical absolute bound (single-shot semantics).
            abs_eb = eb.resolve(data)
            codec_params = dict(codec_params, error_bound=ErrorBound.absolute(abs_eb))
        instance = get_codec(codec_name, **codec_params)

        blocks = list(enumerate(iter_blocks(data.shape, resolved_chunk_shape)))
        per_batch = 1  # a codec that loops over encode gains nothing from batches
        if type(instance).encode_many is not Codec.encode_many:
            # ~WRITE_BATCH_POINTS per batch, and a multiple of `jobs` batches
            # so the workers finish together
            jobs = self._scheduler.effective_jobs
            n = -(-len(blocks) // max(1, WRITE_BATCH_POINTS // int(np.prod(resolved_chunk_shape))))
            n = -(-max(n, jobs) // jobs) * jobs
            per_batch = max(1, -(-len(blocks) // n))
        batches = [blocks[i : i + per_batch] for i in range(0, len(blocks), per_batch)]
        recorder = _obs.get_recorder()

        # Anchor chunks are reconstructed per target chunk, on demand — the
        # fetcher serialises only its file reads and cache bookkeeping
        # internally, so anchor decodes and target encodes both run in
        # parallel while memory stays bounded by the in-flight batches plus
        # the fetcher's cache budget, not the whole anchor fields.
        def encode(batch):
            chunks = [np.ascontiguousarray(data[slices]) for _, slices in batch]
            anchor_arrays = (
                [[self._fetcher.get_chunk(a, index) for a in anchors] for index, _ in batch]
                if anchors
                else None
            )
            encode_start = _time.perf_counter()
            try:
                payloads = instance.encode_many(chunks, anchor_arrays)
            except Exception:
                if len(batch) > 1:
                    # a batch error names no chunk: encoding one at a time finds it
                    for k, (index, _) in enumerate(batch):
                        try:
                            instance.encode(chunks[k], anchors=anchor_arrays[k] if anchors else None)
                        except Exception as exc:
                            raise ChunkTaskError(f"field {name!r} chunk {index}", exc) from exc
                raise
            if len(payloads) != len(batch):
                raise ValueError(
                    f"codec {cls.name!r} returned {len(payloads)} payloads for {len(batch)} chunks"
                )
            if recorder.enabled:
                recorder.observe(
                    f"store.codec.{cls.name}.encode_seconds", _time.perf_counter() - encode_start
                )
                recorder.count(
                    f"store.codec.{cls.name}.bytes_in", sum(int(c.nbytes) for c in chunks)
                )
                recorder.count(f"store.codec.{cls.name}.bytes_out", sum(map(len, payloads)))
            return payloads

        entry = FieldEntry(
            name=name,
            dtype=str(data.dtype),
            shape=tuple(data.shape),
            chunk_shape=resolved_chunk_shape,
            codec=cls.name,
            codec_params=instance.params(),
            anchors=anchors,
            abs_error_bound=abs_eb,
            error_bound=None if cls.is_lossless else eb.to_dict(),
            original_nbytes=int(data.nbytes),
        )
        # Stream each batch's payloads to disk as they are produced (in chunk
        # order), one write per batch: memory holds only batches completed
        # ahead of the write position, never the field's whole compressed
        # output.  Appends share the file handle with the fetcher's anchor
        # reads, hence the io_lock.
        with _obs.span(
            "store.write.field_seconds", field=name, codec=cls.name, chunks=len(blocks)
        ):
            results = self._scheduler.imap(
                encode,
                batches,
                context=lambda i, batch: f"field {name!r} chunk"
                + (f" {batch[0][0]}" if len(batch) == 1 else f"s {batch[0][0]}-{batch[-1][0]}"),
            )
            for batch, payloads in zip(batches, results):
                offset = self._offset
                for (index, slices), payload in zip(batch, payloads):
                    entry.chunks.append(
                        ChunkEntry(
                            index=index,
                            start=tuple(s.start for s in slices),
                            stop=tuple(s.stop for s in slices),
                            offset=offset,
                            length=len(payload),
                            crc32=zlib.crc32(payload) & 0xFFFFFFFF,
                        )
                    )
                    offset += len(payload)
                io_start = _time.perf_counter()
                with self._fetcher.io_lock:
                    self._fh.seek(self._offset)
                    self._fh.write(b"".join(payloads))
                recorder.observe("store.write.io_seconds", _time.perf_counter() - io_start)
                self._offset = offset
        self.manifest.add(entry)
        self._dirty = True
        return entry

    # ------------------------------------------------------------------ #
    # time-stepped streaming
    # ------------------------------------------------------------------ #
    def _stream_history(self) -> Dict[str, Tuple[str, int, Optional[TemporalSpec]]]:
        """``{base field: (latest stored name, occurrences, recorded spec)}``.

        Built lazily from the manifest's timestep index and updated when a
        timestep commits, so long streaming sessions do not rescan the index
        per field per step.  The spec is the *latest* step's: a step stored
        without one (``temporal={}``) breaks the chain, so a later append does
        not resurrect delta coding the caller switched off.
        """
        if self._history is None:
            self._history = {}
            for ts in self.manifest.timesteps:
                self._record_history(ts)
        return self._history

    def _record_history(self, ts: TimestepEntry) -> None:
        for base, stored in ts.fields.items():
            count = self._history[base][1] if base in self._history else 0
            spec = ts.temporal.get(base)
            self._history[base] = (
                stored, count + 1, None if spec is None else TemporalSpec.from_dict(spec)
            )

    def _resolve_temporal(self, temporal, names) -> Dict[str, TemporalSpec]:
        """Normalise the ``temporal`` argument into a per-field spec map."""
        if temporal is None:
            history = self._stream_history()
            return {
                name: history[name][2]
                for name in names
                if name in history and history[name][2] is not None
            }
        if isinstance(temporal, TemporalSpec):
            return {name: temporal for name in names}
        if isinstance(temporal, Mapping):
            for key, value in temporal.items():
                if key not in names:
                    raise ArchiveError(
                        f"temporal spec names unknown field {key!r}; "
                        f"timestep fields: {sorted(names)}"
                    )
                if not isinstance(value, TemporalSpec):
                    raise ArchiveError(
                        f"field {key!r} temporal must be a TemporalSpec, "
                        f"got {type(value).__name__}"
                    )
            return dict(temporal)
        raise ArchiveError(
            "temporal must be None, a TemporalSpec or a {field: TemporalSpec} "
            f"mapping, got {type(temporal).__name__}"
        )

    def _continue_field(
        self, rule: Mapping, recorded: Optional[FieldEntry], spec: Optional[TemporalSpec]
    ) -> Tuple[str, Optional[ErrorBound], Optional[Sequence[int]], Dict]:
        """Codec, bound, chunk grid and codec params of one field's next step.

        Each comes from the caller's ``rule`` if it has it, else from the
        field's latest stored step ``recorded``, else from the writer's
        defaults (``None`` here defers to :meth:`add_field`).  Keeping the
        recorded chunk grid is also what lets a delta step use its previous
        step as anchor.  A delta spec's ``base`` names the codec ahead of all
        three.  A ``temporal-delta`` step records its codec as ``base`` /
        ``base_params``.  Recorded params carry over only while the codec
        stays the same, and only those that differ from the codec's defaults,
        so a stream started on defaults keeps recording empty params; the
        rule's params go on top.
        """
        codec = rule.get("codec")
        if spec is not None and spec.mode == "delta" and spec.base is not None:
            codec = spec.base
        error_bound = rule.get("error_bound")
        chunk_shape = rule.get("chunk_shape")
        params: Dict = {}
        if recorded is not None:
            if recorded.codec == "temporal-delta":
                recorded_codec = recorded.codec_params["base"]
                recorded_params = recorded.codec_params.get("base_params", {})
            else:
                recorded_codec, recorded_params = recorded.codec, recorded.codec_params
            codec = codec or recorded_codec
            if codec_class(codec).name == recorded_codec:
                defaults = get_codec(recorded_codec).params()
                params = {
                    key: value
                    for key, value in recorded_params.items()
                    if key != "error_bound" and defaults.get(key) != value
                }
            if error_bound is None and recorded.error_bound is not None:
                error_bound = ErrorBound.from_dict(recorded.error_bound)
            if chunk_shape is None:
                chunk_shape = recorded.chunk_shape
        params.update(rule.get("codec_params", {}))
        return codec or self.default_codec, error_bound, chunk_shape, params

    def add_timestep(
        self,
        fields,
        step: Optional[int] = None,
        time: Optional[float] = None,
        temporal=None,
        field_rules: Optional[Mapping[str, Mapping]] = None,
    ) -> TimestepEntry:
        """Add one fieldset as timestep ``step`` and record it in the time index.

        ``fields`` is a :class:`~repro.data.fields.FieldSet` or a mapping of
        field name to array; every field is stored under ``{name}@{step}``.
        ``step`` defaults to one past the last recorded step (ids must be
        strictly increasing); ``time`` is a free-form wall-time tag.

        Each field continues its recorded stream: its codec, error bound,
        codec params and chunk grid each come from the first of (1) its
        ``field_rules`` entry (keys ``codec`` / ``error_bound`` /
        ``chunk_shape`` / ``codec_params``), (2) its latest stored step,
        (3) the writer's defaults — which therefore apply only to fields new
        to the stream.  Recorded codec params carry over only while the codec
        stays the same; the rule's params are merged over them key by key.

        ``temporal`` selects the time coding: ``None`` (the default)
        continues each field's recorded spec, so append sessions keep the
        cadence the stream was started with; a
        :class:`~repro.store.temporal.TemporalSpec` applies to every field, a
        ``{field: TemporalSpec}`` mapping to the fields it names (the others
        are stored independently), and ``{}`` stores every field
        independently.  With ``mode="delta"``, occurrence ``0, K, 2K, ...``
        of a field is an independent *anchor* step and everything in between
        is stored with the ``temporal-delta`` codec against the field's
        decoded previous step.

        In append mode the manifest is flushed after the step, so each
        appended step is durable on its own; in write mode publication
        happens on :meth:`close`.
        """
        self._ensure_open()
        if hasattr(fields, "names") and hasattr(fields, "__getitem__"):
            items = [(field.name, field.data) for field in fields]
        elif isinstance(fields, Mapping):
            items = [(str(name), data) for name, data in fields.items()]
        else:
            raise ArchiveError(
                "add_timestep expects a FieldSet or a {name: array} mapping, "
                f"got {type(fields).__name__}"
            )
        if not items:
            raise ArchiveError("a timestep must contain at least one field")
        for name, _ in items:
            if "@" in name:
                raise ArchiveError(
                    f"timestep field name {name!r} must not contain '@' "
                    "(reserved for stored step names)"
                )
        last = self.manifest.timesteps[-1].step if self.manifest.timesteps else None
        if step is None:
            step = 0 if last is None else last + 1
        step = int(step)
        if last is not None and step <= last:
            raise ArchiveError(
                f"timestep ids must be strictly increasing: {step} follows {last}"
            )

        names = {name for name, _ in items}
        specs = self._resolve_temporal(temporal, names)
        field_rules = dict(field_rules or {})
        for rule_name in field_rules:
            if rule_name not in names:
                raise ArchiveError(
                    f"field_rules names unknown field {rule_name!r}; "
                    f"timestep fields: {sorted(names)}"
                )

        stored: Dict[str, str] = {}
        temporal_meta: Dict[str, Dict] = {}
        try:
            with _obs.span("store.write.timestep_seconds", step=step, fields=len(items)):
                self._add_timestep_fields(items, step, specs, field_rules, stored, temporal_meta)
        except BaseException:
            # A timestep is all-or-nothing: without this, a mid-step failure
            # would leave orphan `{name}@{step}` entries in the manifest with
            # no timestep index entry, and every later add_timestep would
            # re-derive the same step id and die on the duplicate name — the
            # stream could never be appended again.  The already-written
            # payload bytes become dead space (harmless; recovery and reads
            # only follow manifest offsets).
            for stored_name in stored.values():
                self.manifest.fields.pop(stored_name, None)
            raise
        entry = TimestepEntry(
            step=step,
            time=None if time is None else float(time),
            fields=stored,
            temporal=temporal_meta,
        )
        self.manifest.add_timestep(entry)
        self._record_history(entry)
        self._dirty = True
        if self.mode == "a":
            self.flush()
        return entry

    def _add_timestep_fields(self, items, step, specs, field_rules, stored, temporal_meta) -> None:
        """Compress and register every field of one timestep (see add_timestep)."""
        history = self._stream_history()
        for name, data in items:
            previous, occurrences, _ = history.get(name, (None, 0, None))
            spec = specs.get(name)
            codec, error_bound, chunk_shape, params = self._continue_field(
                field_rules.get(name, {}),
                None if previous is None else self.manifest[previous],
                spec,
            )
            stored_name = stored_field_name(name, step)
            if (
                spec is not None
                and spec.mode == "delta"
                and previous is not None
                and occurrences % spec.anchor_every != 0
            ):
                # between anchors: the residual against the decoded previous step
                self.add_field(
                    stored_name,
                    data,
                    codec="temporal-delta",
                    error_bound=error_bound,
                    chunk_shape=chunk_shape,
                    anchors=(previous,),
                    base=codec,
                    base_params=params,
                )
            else:
                self.add_field(
                    stored_name,
                    data,
                    codec=codec,
                    error_bound=error_bound,
                    chunk_shape=chunk_shape,
                    **params,
                )
            if spec is not None:
                temporal_meta[name] = spec.to_dict()
            stored[name] = stored_name
