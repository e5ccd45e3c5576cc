"""repro.obs — the telemetry layer of the compression stack.

Counters, log-bucketed latency histograms and nestable trace spans behind
one module-level registry.  The default recorder is a true no-op; enable
collection by installing a :class:`Recorder` with :func:`set_recorder`, the
``REPRO_TELEMETRY`` environment variable, or the ``repro`` CLI's global
``--profile`` flag.  Scheduler workers are threads, so every task records
into the one global recorder (see
:class:`~repro.parallel.engine.ChunkScheduler`).

See ``docs/observability.md`` for the recorder API, the metric naming scheme,
and the ``--profile`` / ``--profile-json`` / ``--trace`` walkthrough.
"""

from repro.obs.recorder import (
    Histogram,
    NullRecorder,
    Recorder,
    SpanRecord,
    TelemetrySnapshot,
    count,
    enabled,
    get_recorder,
    observe,
    set_recorder,
    span,
    timer,
)
from repro.obs.render import (
    format_stage_table,
    snapshot_to_json,
    write_chrome_trace,
    write_snapshot_json,
)

__all__ = [
    "Histogram",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TelemetrySnapshot",
    "count",
    "enabled",
    "format_stage_table",
    "get_recorder",
    "observe",
    "set_recorder",
    "snapshot_to_json",
    "span",
    "timer",
    "write_chrome_trace",
    "write_snapshot_json",
]
