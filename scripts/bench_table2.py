#!/usr/bin/env python
"""Append one Table II row set to ``BENCH_table2.json`` and compare it with the last.

Runs ``run_table2(scale="default")``, which decodes both payloads of every
cell and raises if one breaks its error bound, and appends
``{label, mean_gain_percent, negative_cells, wall_s, rows}`` to the file's
``runs`` list; each row is one cell's dataset, field, bound, baseline and
ours ratios, gain and bound margin.  It then prints the mean, the count of
negative cells and the largest per-cell move against the previous row set.
Pin BLAS so row sets compare::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bench_table2.py --label NAME
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import run_table2  # noqa: E402

ROW_KEYS = ("dataset", "field", "error_bound", "baseline_ratio", "ours_ratio")


def row_set(label: str) -> dict:
    """One ``run_table2(scale="default")`` as a ``BENCH_table2.json`` row set."""
    start = time.perf_counter()
    result = run_table2(scale="default")
    wall = time.perf_counter() - start
    rows = [
        {
            **{key: row[key] for key in ROW_KEYS},
            "gain_percent": row["improvement_percent"],
            "bound_margin": row["bound_margin"],
        }
        for row in result.rows
    ]
    return {
        "label": label,
        "mean_gain_percent": result.mean_improvement(),
        "negative_cells": sum(row["gain_percent"] < 0 for row in rows),
        "wall_s": wall,
        "rows": rows,
    }


def _cell(row: dict) -> str:
    return f"{row['dataset']}:{row['field']}@{row['error_bound']:g}"


def largest_move(before: dict, after: dict) -> tuple:
    """``(points, cell)`` of the largest gain change between two row sets."""
    old = {_cell(row): row["gain_percent"] for row in before["rows"]}
    return max((abs(row["gain_percent"] - old[_cell(row)]), _cell(row)) for row in after["rows"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this row set")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_table2.json")
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    current = row_set(args.label)
    record["runs"].append(current)
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"{current['label']}: mean gain {current['mean_gain_percent']:+.3f} %, "
        f"{current['negative_cells']} negative cells, largest bound margin "
        f"{max(row['bound_margin'] for row in current['rows']):.4f}, {current['wall_s']:.1f} s"
    )
    if len(record["runs"]) > 1:
        previous = record["runs"][-2]
        points, cell = largest_move(previous, current)
        print(
            f"against {previous['label']}: mean "
            f"{current['mean_gain_percent'] - previous['mean_gain_percent']:+.3f} points, "
            f"largest per-cell move {points:.3f} points ({cell})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
