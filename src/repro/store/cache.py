"""Byte-budgeted LRU cache for decompressed chunks.

Region reads hit the same chunks over and over (a user panning across a field,
a dashboard refreshing a zoom window), and decompression dominates read
latency.  Caching decompressed chunks keyed by ``(field, chunk_index)`` turns
repeated reads into memcpy-speed operations.  The cache is bounded by total
ndarray bytes and evicts least-recently-used chunks first.

A cache value is a decoded chunk, or a ``(chunk, report)`` pair: a preview
decode travels with its codec's decode report as one value, budgeted by the
chunk's bytes.  :class:`LRUChunkCache` is the unsynchronised storage;
readers reach it through the thread-safe, single-flight
:class:`~repro.store.shared_cache.SharedChunkCache` that wraps it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List, Optional

import numpy as np

__all__ = ["LRUChunkCache", "freeze_chunk"]

#: Default cache budget: 128 MiB of decompressed chunk data.
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024


def freeze_chunk(chunk):
    """Return a read-only array (or ``(array, report)`` pair) safe to cache.

    Cached chunks are shared across callers (and, through the shared cache,
    across readers), so a caller mutating a returned chunk must never corrupt
    later hits — and the cache must never keep a view into a buffer it does
    not own (an mmap page, a codec scratch array).  Arrays that borrow their
    memory are copied; the result is then marked non-writeable.  Arrays that
    already own their data are frozen in place without a copy, which is the
    common case: codec decodes end in a fresh ``.copy()``.  A pair is frozen
    by its array; the report rides along untouched.
    """
    if isinstance(chunk, tuple):
        return (freeze_chunk(chunk[0]),) + chunk[1:]
    arr = np.asarray(chunk)
    if arr.base is not None or not arr.flags.owndata:
        arr = arr.copy()
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr


def _nbytes(value) -> int:
    """Budgeted size of a cache value: its array's bytes."""
    return int((value[0] if isinstance(value, tuple) else value).nbytes)


class LRUChunkCache:
    """LRU mapping of hashable keys to decoded chunks with a byte budget.

    Parameters
    ----------
    max_bytes:
        Total decompressed bytes the cache may hold.  ``0`` disables caching
        entirely (every :meth:`get` misses, :meth:`put` is a no-op).
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def nbytes(self) -> int:
        """Total bytes of all cached chunks."""
        return self._nbytes

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Return the cached chunk (marking it most recently used) or ``None``."""
        [chunk] = self.get_hits([key])
        self.misses += chunk is None
        return chunk

    def get_hits(self, keys: List[Hashable]) -> List[Optional[np.ndarray]]:
        """Each key's cached value (made most recently used) or ``None``; counts only hits."""
        values = [self._entries.get(key) for key in keys]
        for key in (key for key, value in zip(keys, values) if value is not None):
            self._entries.move_to_end(key)
            self.hits += 1
        return values

    def put(self, key: Hashable, chunk: np.ndarray) -> None:
        """Insert a chunk, evicting LRU entries until the budget is respected.

        The stored array is frozen via :func:`freeze_chunk`: read-only, and
        copied first if it did not own its memory.
        """
        if self.max_bytes == 0:
            return
        chunk = freeze_chunk(chunk)
        if key in self._entries:
            self._nbytes -= _nbytes(self._entries.pop(key))
        nbytes = _nbytes(chunk)
        if nbytes > self.max_bytes:
            # a chunk larger than the whole budget is never cached (any stale
            # entry under this key was already dropped above)
            return
        self._entries[key] = chunk
        self._nbytes += nbytes
        while self._nbytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= _nbytes(evicted)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached chunk (statistics are kept)."""
        self._entries.clear()
        self._nbytes = 0

    def keys(self) -> List[Hashable]:
        """A snapshot list of the current keys, LRU first."""
        return list(self._entries)

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (no-op otherwise; not counted as eviction)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._nbytes -= _nbytes(entry)

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "nbytes": self._nbytes,
        }
