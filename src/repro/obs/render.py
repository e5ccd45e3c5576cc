"""Render telemetry snapshots: stage table, JSON dump, Chrome trace export.

Three consumers, three shapes:

- :func:`format_stage_table` — the human-readable table ``repro --profile``
  prints: histograms (stages) sorted by total time, then counters.
- :func:`snapshot_to_json` / :func:`write_snapshot_json` — the machine-readable
  dump behind ``--profile-json`` (schema ``repro-telemetry/2``, the same
  document the benchmark harness embeds in its ``BENCH_*.json`` files).
- :func:`write_chrome_trace` — ``--trace out.json``: Chrome-trace-format
  complete events (``ph: "X"``), one lane per (process, thread), loadable in
  ``chrome://tracing`` / Perfetto for timeline inspection of parallel reads.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Union

from repro.obs.recorder import TelemetrySnapshot

__all__ = [
    "format_stage_table",
    "snapshot_to_json",
    "write_snapshot_json",
    "write_chrome_trace",
]

PathLike = Union[str, os.PathLike]


def _human_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:7.2f} ms"
    return f"{seconds * 1e6:7.1f} us"


def _human_count(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.3f}"


def format_stage_table(snapshot: TelemetrySnapshot, title: str = "telemetry") -> str:
    """Multi-line human-readable summary of one snapshot.

    Stages (histograms) are sorted by total accumulated time, counters
    alphabetically.  Returns ``""`` for an empty snapshot so callers
    can print unconditionally.
    """
    if snapshot.empty:
        return ""
    lines: List[str] = [f"== {title} =="]
    if snapshot.histograms:
        lines.append(
            f"{'stage':<44} {'calls':>8} {'total':>10} {'mean':>10} {'p95':>10} {'max':>10}"
        )
        ordered = sorted(
            snapshot.histograms.items(), key=lambda kv: -kv[1].sum
        )
        for name, hist in ordered:
            lines.append(
                f"{name:<44} {hist.count:>8} {_human_seconds(hist.sum):>10} "
                f"{_human_seconds(hist.mean):>10} {_human_seconds(hist.quantile(0.95)):>10} "
                f"{_human_seconds(hist.max):>10}"
            )
    if snapshot.counters:
        lines.append(f"{'counter':<44} {'value':>18}")
        for name in sorted(snapshot.counters):
            lines.append(f"{name:<44} {_human_count(snapshot.counters[name]):>18}")
    if snapshot.spans:
        lines.append(f"spans recorded: {len(snapshot.spans)}")
    return "\n".join(lines)


def snapshot_to_json(snapshot: TelemetrySnapshot, indent: Optional[int] = 2) -> str:
    """The snapshot as a ``repro-telemetry/2`` JSON document."""
    return json.dumps(snapshot.to_dict(), indent=indent, sort_keys=True)


def write_snapshot_json(snapshot: TelemetrySnapshot, path: PathLike) -> None:
    """Write :func:`snapshot_to_json` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot_to_json(snapshot))
        fh.write("\n")


def chrome_trace_events(snapshot: TelemetrySnapshot) -> List[Dict]:
    """The snapshot's spans as Chrome-trace complete (``"X"``) events.

    Timestamps are microseconds relative to the earliest span, so the trace
    viewer opens at t=0 regardless of process uptime.
    """
    if not snapshot.spans:
        return []
    epoch = min(span.start for span in snapshot.spans)
    events: List[Dict] = []
    for span in snapshot.spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ts": (span.start - epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": span.args,
            }
        )
    return events


def write_chrome_trace(snapshot: TelemetrySnapshot, path: PathLike) -> None:
    """Write the spans as a Chrome-trace JSON file (open in Perfetto)."""
    document = {
        "traceEvents": chrome_trace_events(snapshot),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
