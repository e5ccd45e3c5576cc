#!/usr/bin/env python3
"""Compare two sets of spine runs against the bounds of ``BENCHMARK.json``.

    python benchmarks/spine/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --json`` (each holds a
list of runs; run the spine several times, with different ``--seed`` values,
into the same file).  For every (end-to-end metric, workload) pair this prints
the median over A's runs, the median over B's, the change of B against A as a
share of A (positive = worse), the metric's bound, and a verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``unresolved``  the run-to-run spread (interquartile range over median, the
                  larger of the two sides) exceeds the bound, so a difference
                  this size cannot be told from noise;
- ``ok``          otherwise.

Exits 1 when any row is ``worse``.  Two sets of runs of one commit must come
out without a ``worse`` row (the benchmark's own agreement criterion); a
change is compared to its parent the same way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per untraced run`` of a ``--json`` file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(a_path: Path, b_path: Path) -> int:
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    print(
        f"{'workload':16} {'metric':16} {'A':>12} {'B':>12} {'change':>8} "
        f"{'spread':>7} {'bound':>6}  verdict"
    )
    worse = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a, b = statistics.median(a_runs[key]), statistics.median(b_runs[key])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (b - a) / abs(a)
            noise = max(spread(a_runs[key]), spread(b_runs[key]))
            if change > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif noise > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:16} {metric['name']:16} {a:12.5g} {b:12.5g} {change:+8.1%} "
                f"{noise:7.1%} {metric['bound']:6.1%}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
