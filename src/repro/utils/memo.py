"""A bounded, thread-safe memo: the one cache of the codecs' per-shape index tables."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["Memo"]


class Memo:
    """Least-recently-used memo of ``build(key)``, bounded by total ``cost``.

    ``cost(value)`` defaults to one per entry, so ``max_cost`` is then an
    entry count.  A hit is one lock and one dict lookup, and refreshes the
    entry's recency.  A miss builds outside the lock, so builds of different
    keys never serialise; when two threads miss on one key, both build and
    both return the first value stored.  Eviction drops the oldest entries
    first but always keeps the newest, even when it alone exceeds
    ``max_cost``.  :meth:`info` reports the total cost under the name ``unit``.
    """

    def __init__(
        self,
        build: Callable[[Hashable], Any],
        max_cost: int,
        cost: Optional[Callable[[Any], int]] = None,
        unit: str = "cost",
    ) -> None:
        self.max_cost = max_cost
        self.unit = unit
        self._build = build
        self._cost = cost or (lambda value: 1)
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()  # key -> (value, cost)
        self._lock = threading.Lock()
        self._total = self._hits = self._misses = 0

    def get(self, key: Hashable) -> Any:
        """The value for ``key``, built on its first request."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0]
            self._misses += 1
        value = self._build(key)
        cost = self._cost(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # another thread stored it while we built
                return entry[0]
            self._entries[key] = (value, cost)
            self._total += cost
            while self._total > self.max_cost and len(self._entries) > 1:
                self._total -= self._entries.popitem(last=False)[1][1]
        return value

    def info(self) -> Dict[str, int]:
        """Entry count, total cost, hits and misses."""
        with self._lock:
            return {
                "entries": len(self._entries),
                self.unit: self._total,
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        """Drop every entry and reset the hit and miss counters."""
        with self._lock:
            self._entries.clear()
            self._total = self._hits = self._misses = 0
