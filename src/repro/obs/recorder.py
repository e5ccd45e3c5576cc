"""Thread-safe telemetry recorder: counters, histograms, trace spans.

One :class:`Recorder` accumulates every metric the stack emits; a module-level
registry (:func:`get_recorder` / :func:`set_recorder`) decides whether that
recorder is a real one or the :class:`NullRecorder` — a true no-op whose
methods do nothing, so instrumented hot paths cost a couple of attribute
lookups when telemetry is off.  Telemetry is enabled by installing a
:class:`Recorder` with :func:`set_recorder`, the ``REPRO_TELEMETRY``
environment variable (checked at import), or the ``repro`` CLI's global
``--profile`` flag.

Metric kinds
------------
- **Counters** (:meth:`Recorder.count`): monotonically growing totals — bytes
  read, chunks decoded, cache hits.  Exact under concurrency.
- **Histograms** (:meth:`Recorder.observe`): log2-bucketed latency/size
  distributions with exact ``count``/``sum``/``min``/``max``; buckets make
  p50/p95 estimation cheap without storing samples.
- **Spans** (:meth:`Recorder.span`): nestable wall-clock intervals, recorded
  with thread/process ids for Chrome-trace timeline export and *also* folded
  into the histogram of the same name, so every span shows up in the stage
  table.  :meth:`Recorder.timer` is the histogram-only variant for hot paths
  that do not need a timeline entry.

Snapshots (:meth:`Recorder.snapshot`) are plain-dataclass, picklable
:class:`TelemetrySnapshot` objects with a JSON form
(:meth:`TelemetrySnapshot.to_dict`).
Scheduler workers are threads of this process, so they record straight into
the one global recorder; nothing is merged after the fact.

Span timestamps come from ``time.perf_counter()``.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "Histogram",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TelemetrySnapshot",
    "count",
    "enabled",
    "get_recorder",
    "observe",
    "set_recorder",
    "span",
    "timer",
]

#: Finest histogram bucket boundary (seconds / units).  Values at or below it
#: land in bucket 0; bucket ``i`` covers ``(RESOLUTION * 2**(i-1), RESOLUTION * 2**i]``.
BUCKET_RESOLUTION = 1e-6

#: Spans kept per recorder; beyond this they are dropped (and counted under
#: the ``obs.spans_dropped`` counter) so a long soak cannot grow memory
#: without bound.
MAX_SPANS = 100_000


def bucket_index(value: float) -> int:
    """Log2 bucket index of ``value`` (0 for values <= :data:`BUCKET_RESOLUTION`)."""
    if value <= BUCKET_RESOLUTION:
        return 0
    return max(0, math.ceil(math.log2(value / BUCKET_RESOLUTION)))


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of bucket ``index``."""
    return BUCKET_RESOLUTION * (2.0 ** index)


@dataclass
class Histogram:
    """Log2-bucketed distribution with exact count/sum/min/max.

    ``buckets`` maps bucket index to observation count; quantiles are
    estimated from bucket upper bounds (an over-estimate by at most 2x, which
    is what log-bucketing trades for O(1) memory).
    """

    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = 0.0
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (bucket upper bound; exact min/max at 0/1)."""
        if not self.count:
            return 0.0
        if q <= 0:
            return self.min
        if q >= 1:
            return self.max
        target = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return min(bucket_upper_bound(index), self.max)
        return self.max  # pragma: no cover - float edge

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
        }


@dataclass
class SpanRecord:
    """One completed trace span (Chrome-trace ``"X"`` event shape)."""

    name: str
    start: float  #: perf_counter seconds at entry
    duration: float  #: seconds
    pid: int
    tid: int
    depth: int = 0  #: nesting depth within its thread at entry
    args: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "args": self.args,
        }


#: JSON schema tag for serialized snapshots (``--profile-json``, bench files).
SNAPSHOT_SCHEMA = "repro-telemetry/2"


@dataclass
class TelemetrySnapshot:
    """Immutable-by-convention copy of a recorder's state.

    Plain dicts and dataclasses throughout: picklable and JSON-serialisable
    via :meth:`to_dict`.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)

    def counter(self, name: str) -> float:
        """Value of one counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.histograms or self.spans)

    def to_dict(self) -> Dict:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict() for name, hist in sorted(self.histograms.items())
            },
            "spans": [span.to_dict() for span in self.spans],
        }


class _SpanContext:
    """Context manager recording one span (and its histogram observation)."""

    __slots__ = ("_recorder", "_name", "_args", "_start", "_depth")

    def __init__(self, recorder: "Recorder", name: str, args: Dict) -> None:
        self._recorder = recorder
        self._name = name
        self._args = args

    def __enter__(self) -> "_SpanContext":
        local = self._recorder._span_local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        self._recorder._span_local.depth = self._depth
        self._recorder._record_span(
            SpanRecord(
                name=self._name,
                start=self._start,
                duration=duration,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=self._depth,
                args=self._args,
            )
        )
        self._recorder.observe(self._name, duration)


class _TimerContext:
    """Histogram-only timing context (no span record; for hot paths)."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder.observe(self._name, time.perf_counter() - self._start)


class Recorder:
    """Accumulates telemetry; every method is safe to call from any thread."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[SpanRecord] = []
        self._span_local = threading.local()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def span(self, name: str, **args) -> _SpanContext:
        """Context manager timing a nestable span named ``name``.

        The span lands in the trace export *and* in the histogram of the same
        name; ``args`` become Chrome-trace event arguments.
        """
        return _SpanContext(self, name, args)

    def timer(self, name: str) -> _TimerContext:
        """Context manager observing elapsed seconds into histogram ``name``."""
        return _TimerContext(self, name)

    def _record_span(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) >= MAX_SPANS:
                self._counters["obs.spans_dropped"] = (
                    self._counters.get("obs.spans_dropped", 0) + 1
                )
                return
            self._spans.append(record)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TelemetrySnapshot:
        """Deep-copied snapshot of the current state."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                histograms={
                    name: Histogram(
                        count=h.count, sum=h.sum, min=h.min, max=h.max,
                        buckets=dict(h.buckets),
                    )
                    for name, h in self._histograms.items()
                },
                spans=list(self._spans),
            )


class _NullContext:
    """Shared no-op context manager returned by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullRecorder:
    """The disabled recorder: every method is a no-op.

    Instrumented code may call any recording method unconditionally; with the
    null recorder installed the cost is one method call returning immediately
    (and a shared no-op context manager for :meth:`span` / :meth:`timer`).
    """

    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def span(self, name: str, **args) -> _NullContext:
        return _NULL_CONTEXT

    def timer(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot()


# --------------------------------------------------------------------------- #
# module-level registry
# --------------------------------------------------------------------------- #
def _env_enabled() -> bool:
    value = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


_recorder = Recorder() if _env_enabled() else NullRecorder()
_registry_lock = threading.Lock()


def get_recorder():
    """The currently installed recorder (the no-op one when disabled)."""
    return _recorder


def set_recorder(recorder):
    """Install ``recorder`` as the global recorder; returns the previous one."""
    global _recorder
    with _registry_lock:
        previous = _recorder
        _recorder = recorder
    return previous


def enabled() -> bool:
    """Whether the installed global recorder actually records."""
    return _recorder.enabled


# Convenience delegates: one global lookup per call.  Hot loops should grab
# ``get_recorder()`` once instead.
def count(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name`` on the global recorder."""
    _recorder.count(name, value)


def observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name`` on the global recorder."""
    _recorder.observe(name, value)


def span(name: str, **args):
    """Nestable trace span on the global recorder (no-op when disabled)."""
    return _recorder.span(name, **args)


def timer(name: str):
    """Histogram-only timing context on the global recorder."""
    return _recorder.timer(name)
