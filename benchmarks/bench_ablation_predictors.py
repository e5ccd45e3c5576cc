"""Ablation benchmarks for the prediction stage.

Two cases:

- the classic ratio ablation over the local predictor choices (Lorenzo /
  interpolation / regression / ZFP-like), and
- a decode-throughput case pitting the scalar reference decoder
  (``decode_weighted_sequential``) against the vectorised
  batch-state-machine path on a ~1M-point 2D field — mirroring how
  ``bench_ablation_entropy_backends.py`` guards the Huffman speedup.  The
  scalar wavefront decode is timed on a crop (it is minutes-slow at the full
  size) and compared on throughput (points/second); the ``>= 4x`` assertion is
  the roadmap acceptance bar and runs in CI's bench-smoke job.  The
  regression predictor's per-block reference decoder lives in
  ``tests/test_sz_parity.py``, with its gate: the batched decode must not be
  slower than the block loop.
"""

import os
import time

import numpy as np

from conftest import bench_report, bench_seed, run_once

from repro.experiments.ablations import run_predictor_ablation


def test_ablation_predictors(benchmark, bench_scale):
    result = run_once(benchmark, run_predictor_ablation, bench_scale)
    print("\n=== Ablation: local predictor choice ===")
    print(result.format())
    assert set(result.column("predictor")) == {"lorenzo", "interpolation", "regression", "zfp-like"}


#: Full-field sizes per REPRO_BENCH_SCALE; the acceptance bar is defined at the
#: ~1M-point default, which smoke keeps (the vectorised decode is fast — the
#: scalar side only ever runs on the crop below).
_FIELD_SHAPES = {
    "smoke": (1024, 1024),
    "default": (1024, 1024),
    "paper": (2048, 2048),
}
_SCALAR_CROP = (128, 128)


def _measure_sz_decode_throughput():
    from repro.sz.decode import (
        clear_wavefront_plans,
        decode_weighted_sequential,
        decode_weighted_wavefront,
        weighted_predict_full,
    )

    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    shape = _FIELD_SHAPES.get(scale, _FIELD_SHAPES["default"])
    rng = np.random.default_rng(bench_seed("sz-decode-throughput"))

    codes = rng.integers(-500, 500, size=shape).astype(np.int64)
    diffs = [rng.integers(-30, 30, size=shape).astype(np.int64) for _ in range(2)]
    weights = np.array([0.5, 0.3, 0.2])
    residuals = codes - weighted_predict_full(codes, diffs, weights)

    crop = tuple(slice(0, c) for c in _SCALAR_CROP)
    res_crop = np.ascontiguousarray(residuals[crop])
    diffs_crop = [np.ascontiguousarray(d[crop]) for d in diffs]

    def best_of(repeats, func):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - t0)
        return best, result

    clear_wavefront_plans()
    # warm the plan cache separately so the steady-state (per-chunk) cost is
    # what gets timed — planning is a once-per-shape cost in real reads
    decode_weighted_wavefront(residuals, diffs, weights)

    scalar_seconds, scalar_out = best_of(
        1, lambda: decode_weighted_sequential(res_crop, diffs_crop, weights)
    )
    vector_seconds, vector_out = best_of(
        3, lambda: decode_weighted_wavefront(residuals, diffs, weights)
    )
    assert np.array_equal(vector_out, codes)
    assert np.array_equal(scalar_out, codes[crop])

    scalar_tp = scalar_out.size / scalar_seconds
    vector_tp = vector_out.size / vector_seconds
    return {
        "points": int(codes.size),
        "scalar_crop_points": int(scalar_out.size),
        "scalar_seconds": scalar_seconds,
        "vector_seconds": vector_seconds,
        "scalar_points_per_second": scalar_tp,
        "vector_points_per_second": vector_tp,
        "wavefront_speedup": vector_tp / scalar_tp,
    }


def test_sz_decode_throughput(benchmark):
    result = run_once(benchmark, _measure_sz_decode_throughput)

    print("\n=== SZ weighted-prediction decode throughput ===")
    print(
        f"field: {result['points']} points, scalar timed on "
        f"{result['scalar_crop_points']}-point crop"
    )
    print(
        f"scalar     {result['scalar_points_per_second'] / 1e6:8.3f} Mpts/s   "
        f"({result['scalar_seconds'] * 1e3:.1f} ms on the crop)"
    )
    print(
        f"vectorised {result['vector_points_per_second'] / 1e6:8.3f} Mpts/s   "
        f"({result['vector_seconds'] * 1e3:.1f} ms full field)   "
        f"speedup {result['wavefront_speedup']:.1f}x"
    )

    bench_report("sz_decode_throughput", result)

    # the acceptance bar: batch wavefront decode >= 4x scalar throughput
    assert result["wavefront_speedup"] >= 4.0
