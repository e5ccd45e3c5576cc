"""The chunk cache: thread-safe LRU with single-flight decode deduplication.

Every chunk fetch — full or preview, reader, writer or service — goes through
one :class:`SharedChunkCache`.  Handing the same instance to many readers
(``ArchiveReader(shared_cache=...)``, the HTTP service) makes N concurrent
readers of one archive decode each hot chunk once instead of N times; a
*private* cache is simply an instance nobody else holds.  Keys carry the
archive *generation* so entries can never leak across archives or across
append publications:

``key = (st_dev, st_ino, generation, field_name, chunk_index)``

(preview entries append ``"preview", fraction``, so they never alias the full
decode of their chunk) where ``generation`` is the archive's published end
offset — the byte just past the footer the reader's manifest came from.
Appends only ever publish *new* footers at larger offsets, so a new
generation means new keys; entries cached for generation G stay byte-correct
for every reader still holding G and simply age out of the LRU once those
readers are gone.  No cross-thread invalidation race exists because stale
entries are never *wrong*, only old.  :meth:`invalidate` exists for callers
that want eager eviction anyway.

**Single-flight:** concurrent misses on one key do not decode redundantly.
The first caller (the *leader*) runs the decode; every other caller blocks on
the leader's in-flight entry and receives the same value.  If the decode
raises, the exception propagates to the leader *and* every waiter, and the
in-flight entry is removed so a later call retries cleanly.

Telemetry (``store.cache.*``, recorded here and nowhere else): ``hits`` /
``misses`` count resolved lookups, ``evictions`` entries pushed out by an
insert, ``coalesced`` callers that piggybacked on another thread's in-flight
decode, and ``wait_seconds`` how long they blocked.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.store.cache import LRUChunkCache, freeze_chunk

__all__ = ["SharedChunkCache", "process_chunk_cache", "DEFAULT_SHARED_CACHE_BYTES"]

#: Default budget for the process-wide cache: 256 MiB of decoded chunks.
DEFAULT_SHARED_CACHE_BYTES = 256 * 1024 * 1024


class _InFlight:
    """One in-progress decode: waiters block on ``event``, then read the result."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None

    def wait(self) -> np.ndarray:
        self.event.wait()
        if self.error is not None:
            raise self.error
        return self.value


class SharedChunkCache:
    """Thread-safe LRU of decoded chunks with single-flight miss coalescing.

    All stored arrays are read-only (see
    :func:`~repro.store.cache.freeze_chunk`); callers needing a writable
    chunk copy it.
    """

    def __init__(self, max_bytes: int = DEFAULT_SHARED_CACHE_BYTES) -> None:
        self._lock = threading.Lock()
        self._lru = LRUChunkCache(max_bytes=max_bytes)
        self._inflight: Dict[Hashable, _InFlight] = {}
        self.coalesced = 0

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """A cached chunk (read-only) or ``None``; counts a hit or miss."""
        with self._lock:
            chunk = self._lru.get(key)
        recorder = _obs.get_recorder()
        if recorder.enabled:
            recorder.count("store.cache.hits" if chunk is not None else "store.cache.misses")
        return chunk

    def get_hits(self, keys: List[Hashable]) -> List[Optional[np.ndarray]]:
        """Cached values for many keys (``None`` where absent) under one lock;
        the hits count as one batch, a miss only once :meth:`get_or_compute` runs."""
        with self._lock:
            before = self._lru.hits
            values = self._lru.get_hits(keys)
            hits = self._lru.hits - before
        if hits:
            _obs.count("store.cache.hits", hits)
        return values

    def put(self, key: Hashable, chunk: np.ndarray) -> None:
        """Insert a chunk (frozen read-only) outside any single-flight path."""
        chunk = freeze_chunk(chunk)
        with self._lock:
            self._insert(key, chunk)

    def _insert(self, key: Hashable, chunk: np.ndarray) -> None:
        """Store under the held lock, counting what the insert pushed out."""
        before = self._lru.evictions
        self._lru.put(key, chunk)
        evicted = self._lru.evictions - before
        if evicted:
            _obs.count("store.cache.evictions", evicted)

    def get_or_compute(
        self, key: Hashable, factory: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The cached chunk for ``key``, decoding via ``factory`` at most once.

        Concurrent callers with the same key block on one in-flight decode
        instead of each running ``factory``.  A factory exception propagates
        to every blocked caller and removes the in-flight entry, so the next
        call after a failure retries.
        """
        recorder = _obs.get_recorder()
        with self._lock:
            chunk = self._lru.get(key)
            if chunk is not None:
                if recorder.enabled:
                    recorder.count("store.cache.hits")
                return chunk
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _InFlight()
            else:
                self.coalesced += 1

        if not leader:
            if recorder.enabled:
                recorder.count("store.cache.coalesced")
                started = time.perf_counter()
                try:
                    return flight.wait()
                finally:
                    recorder.observe("store.cache.wait_seconds", time.perf_counter() - started)
            return flight.wait()

        if recorder.enabled:
            recorder.count("store.cache.misses")
        try:
            value = freeze_chunk(factory())
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        with self._lock:
            self._insert(key, value)
            self._inflight.pop(key, None)
        flight.value = value
        flight.event.set()
        return value

    # ------------------------------------------------------------------ #
    def invalidate(self, archive_id: Optional[Tuple] = None) -> int:
        """Drop cached entries; returns how many were removed.

        ``archive_id`` is the key prefix readers use — ``(st_dev, st_ino)``
        drops every generation of one archive, ``(st_dev, st_ino, generation)``
        just one.  ``None`` clears everything.  In-flight decodes are left to
        finish (their result lands under its original key and ages out).
        """
        with self._lock:
            if archive_id is None:
                dropped = len(self._lru)
                self._lru.clear()
                return dropped
            prefix = tuple(archive_id)
            victims = [
                key
                for key in self._lru.keys()
                if isinstance(key, tuple) and key[: len(prefix)] == prefix
            ]
            for key in victims:
                self._lru.discard(key)
            return len(victims)

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        self.invalidate(None)

    @property
    def stats(self) -> Dict[str, int]:
        """LRU counters plus the single-flight ``coalesced`` count."""
        with self._lock:
            payload = dict(self._lru.stats)
            payload["coalesced"] = self.coalesced
            payload["inflight"] = len(self._inflight)
        return payload

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._lru.nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)


_process_cache: Optional[SharedChunkCache] = None
_process_cache_lock = threading.Lock()


def process_chunk_cache() -> SharedChunkCache:
    """The lazily created process-wide cache (the archive service's default)."""
    global _process_cache
    with _process_cache_lock:
        if _process_cache is None:
            _process_cache = SharedChunkCache()
        return _process_cache
