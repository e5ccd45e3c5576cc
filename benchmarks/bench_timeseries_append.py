"""Benchmark: appendable time-stepped archives and temporal delta coding.

Builds a smooth synthetic climate time series (gentle Fourier advection plus
small fresh noise, :func:`repro.data.synthetic.make_timeseries`) and measures

- **append throughput**: writing the series step by step through
  ``ArchiveWriter(mode="a")`` — one reopen + flush per step, the streaming
  ingest path — in raw MB/s of field data, and
- **compression ratio**: ``temporal-delta`` coding (anchor every K steps,
  residuals against the decoded previous step) versus independent per-step
  compression, both at the *same absolute error bound*.

Asserts the acceptance criteria: delta coding beats independent coding by at
least 1.3x on this workload, and the appended archive's ``read_timestep``
output is bit-identical to a single-shot write of the same series.

Runs standalone (``python benchmarks/bench_timeseries_append.py [--quick]``)
or under pytest-benchmark; ``REPRO_BENCH_SCALE=smoke`` matches ``--quick``.
Either way a machine-readable ``BENCH_timeseries_append.json`` report
(headline numbers plus a telemetry snapshot from one instrumented append) is
written via :func:`conftest.bench_report`.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone: make conftest + repro importable
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import bench_report, bench_seed

#: (grid shape, number of steps) per REPRO_BENCH_SCALE.
_SCALES = {
    "smoke": ((64, 128), 6),
    "default": ((192, 384), 8),
    "paper": ((512, 1024), 12),
}

#: Nightly-cadence-like evolution: a tenth of a cell of advection per step
#: plus 0.2% fresh noise — successive snapshots are strongly correlated, the
#: regime temporal-difference coding is built for (and the anchor cadence is
#: long enough that anchor steps do not dominate the window).
_DRIFT = 0.1
_NOISE = 0.002
_ANCHOR_EVERY = 8
_REL_BOUND = 1e-3

#: Acceptance floor: delta must beat independent coding by this factor.
_MIN_DELTA_ADVANTAGE = 1.3


def _build_series():
    from repro.data.synthetic import make_timeseries

    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    shape, steps = _SCALES.get(scale, _SCALES["default"])
    return make_timeseries(
        "cesm",
        shape=shape,
        steps=steps,
        seed=bench_seed("timeseries-append"),
        fields=("FLNT", "FLNTC", "LWCF"),
        drift=_DRIFT,
        noise_level=_NOISE,
    ), shape, steps


def _write_series(path, series, temporal, chunk_shape, bounds):
    """Single-shot write of the whole series (reference archive)."""
    from repro.store import ArchiveWriter

    with ArchiveWriter(path, chunk_shape=chunk_shape) as writer:
        for t, snapshot in enumerate(series):
            writer.add_timestep(
                snapshot,
                time=float(t),
                temporal=temporal,
                field_rules={
                    name: {"error_bound": bound} for name, bound in bounds.items()
                },
            )
    return path


def _append_series(path, series, temporal, chunk_shape, bounds):
    """Streaming ingest: step 0 creates the archive, each later step reopens.

    Only step 0 states the per-field bounds; later steps continue what the
    archive records, so the bit-identity check against the single-shot write
    (which restates them every step) covers that inheritance too.
    """
    from repro.store import ArchiveWriter

    elapsed = 0.0
    for t, snapshot in enumerate(series):
        start = time.perf_counter()
        with ArchiveWriter(
            path, chunk_shape=chunk_shape, mode="w" if t == 0 else "a"
        ) as writer:
            writer.add_timestep(
                snapshot,
                time=float(t),
                temporal=temporal,
                field_rules=(
                    {name: {"error_bound": bound} for name, bound in bounds.items()}
                    if t == 0
                    else None
                ),
            )
        elapsed += time.perf_counter() - start
    return elapsed


def _ratio(path):
    from repro.store import ArchiveReader

    with ArchiveReader(path) as reader:
        total_in = sum(e.original_nbytes for e in reader.fields())
        total_out = sum(e.compressed_nbytes for e in reader.fields())
    return total_in / total_out, total_in


def run(tmp_dir):
    from repro.store import ArchiveReader, TemporalSpec
    from repro.sz.errors import ErrorBound

    tmp_dir = Path(tmp_dir)
    series, shape, steps = _build_series()
    # one absolute bound per field, resolved on step 0, shared by both arms:
    # identical per-point guarantees, so the ratio comparison is apples to apples
    bounds = {
        field.name: ErrorBound.absolute(ErrorBound.relative(_REL_BOUND).resolve(field.data))
        for field in series[0]
    }
    chunk_shape = tuple(min(64, s) for s in shape)
    delta_spec = TemporalSpec(mode="delta", anchor_every=_ANCHOR_EVERY, base="sz")

    delta_path = tmp_dir / "delta.xfa"
    indep_path = tmp_dir / "independent.xfa"
    single_path = tmp_dir / "single-shot.xfa"

    append_seconds = _append_series(delta_path, series, delta_spec, chunk_shape, bounds)
    _append_series(indep_path, series, None, chunk_shape, bounds)
    _write_series(single_path, series, delta_spec, chunk_shape, bounds)

    delta_ratio, raw_bytes = _ratio(delta_path)
    indep_ratio, _ = _ratio(indep_path)

    # appended archive must decode bit-identically to the single-shot write
    with ArchiveReader(delta_path) as appended, ArchiveReader(single_path) as reference:
        assert appended.steps == reference.steps
        for step in appended.steps:
            got = appended.read_timestep(step)
            want = reference.read_timestep(step)
            for name in want.names:
                assert np.array_equal(got[name].data, want[name].data), (step, name)
        bound_ok = all(
            np.max(
                np.abs(
                    appended.read_timestep(t)[f.name].data.astype(np.float64)
                    - f.data.astype(np.float64)
                )
            )
            <= bounds[f.name].value * (1 + 1e-6)
            for t, snapshot in enumerate(series)
            for f in snapshot
        )

    # one instrumented (non-timed) append pass for the benchmark report: the
    # timing arms above ran with the no-op recorder, so append_seconds stays
    # clean while the report still documents the stage breakdown
    from repro import obs

    recorder = obs.Recorder()
    previous = obs.set_recorder(recorder)
    try:
        _append_series(tmp_dir / "telemetry.xfa", series, delta_spec, chunk_shape, bounds)
    finally:
        obs.set_recorder(previous)

    return {
        "shape": shape,
        "steps": steps,
        "raw_bytes": raw_bytes,
        "append_seconds": append_seconds,
        "delta_ratio": delta_ratio,
        "indep_ratio": indep_ratio,
        "bound_ok": bound_ok,
        "telemetry": recorder.snapshot(),
    }


def _report_and_assert(result):
    throughput = result["raw_bytes"] / max(result["append_seconds"], 1e-9) / 1e6
    print("\n=== Time-stepped archive: append throughput and temporal delta coding ===")
    print(
        f"grid {'x'.join(map(str, result['shape']))}, {result['steps']} steps, "
        f"anchor every {_ANCHOR_EVERY}, rel bound {_REL_BOUND:g}"
    )
    print(
        f"append (reopen+flush per step): {result['append_seconds'] * 1e3:9.1f} ms total "
        f"({throughput:.1f} MB/s raw)"
    )
    print(
        f"ratio  temporal-delta {result['delta_ratio']:6.2f}x   "
        f"independent {result['indep_ratio']:6.2f}x   "
        f"advantage {result['delta_ratio'] / result['indep_ratio']:.2f}x"
    )
    assert result["bound_ok"], "error bound violated"
    assert result["delta_ratio"] >= _MIN_DELTA_ADVANTAGE * result["indep_ratio"], (
        f"temporal-delta ratio {result['delta_ratio']:.2f}x must beat independent "
        f"{result['indep_ratio']:.2f}x by >= {_MIN_DELTA_ADVANTAGE}x"
    )
    headline = {
        "shape": list(result["shape"]),
        "steps": result["steps"],
        "raw_bytes": result["raw_bytes"],
        "append_seconds": result["append_seconds"],
        "append_mb_per_s": throughput,
        "delta_ratio": result["delta_ratio"],
        "indep_ratio": result["indep_ratio"],
    }
    bench_report("timeseries_append", headline, telemetry=result["telemetry"])


def test_timeseries_append(benchmark, tmp_path):
    from conftest import run_once

    result = run_once(benchmark, run, tmp_path)
    _report_and_assert(result)


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-scale run (equivalent to REPRO_BENCH_SCALE=smoke)",
    )
    cli_args = parser.parse_args()
    if cli_args.quick:
        os.environ["REPRO_BENCH_SCALE"] = "smoke"
    with tempfile.TemporaryDirectory() as tmp:
        _report_and_assert(run(tmp))
    print("ok")
