"""Benchmark-suite configuration.

Every benchmark runs an experiment runner exactly once (``rounds=1``) because a
single run already involves CFNN training and full compression sweeps; the
interesting output is the table/figure the runner prints, not a timing
distribution.  Set ``REPRO_BENCH_SCALE`` to ``smoke`` / ``default`` / ``paper``
to control the dataset sizes (default: ``default``).
"""

import json
import os
import platform
import sys
import zlib
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Master seed for the whole benchmark suite.  Every benchmark that generates
#: data derives its seed from this one value (via :func:`bench_seed`), so the
#: suite's numbers are reproducible run-to-run and benchmark-order-independent,
#: and bumping one constant reseeds everything at once.
BENCH_MASTER_SEED = 727


def bench_seed(name: str) -> int:
    """Deterministic per-benchmark seed derived from the shared master seed.

    ``name`` labels the benchmark (or a sub-case within it); distinct names
    get decorrelated seeds, the same name always gets the same seed.
    """
    return (zlib.crc32(f"{BENCH_MASTER_SEED}:{name}".encode()) & 0x7FFFFFFF) or 1


@pytest.fixture(scope="session")
def bench_scale():
    """Scale at which the benchmark experiments run."""
    from repro.experiments.config import resolve_scale

    return resolve_scale(None)


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def bench_report(name: str, headline: dict, telemetry=None) -> Path:
    """Write a machine-readable ``BENCH_<name>.json`` benchmark report.

    ``headline`` carries the benchmark's summary numbers (timings, ratios,
    chunk counts); ``telemetry`` is an optional
    :class:`repro.obs.TelemetrySnapshot` embedded under ``"telemetry"`` in its
    ``repro-telemetry/2`` JSON form.  Reports land in ``benchmarks/reports/``
    (override with ``REPRO_BENCH_REPORT_DIR``); CI uploads them as artifacts.
    """
    out_dir = Path(
        os.environ.get("REPRO_BENCH_REPORT_DIR", Path(__file__).resolve().parent / "reports")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": "repro-bench/1",
        "name": name,
        "scale": os.environ.get("REPRO_BENCH_SCALE", "default"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "headline": headline,
    }
    if telemetry is not None:
        document["telemetry"] = telemetry.to_dict()
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
