"""Throughput and preview benchmarks for the batched ZFP transform path.

Two cases, both asserted in CI's bench-smoke job:

- ``test_zfp_transform_throughput`` pits the per-block scalar reference
  transform (timed on a crop — it is the original implementation, slow by
  design) against the batched ``field_transform_forward`` on a ~1M-point 2D
  field, mirroring how ``bench_ablation_predictors.py`` guards the SZ
  wavefront speedup.  The ``>= 8x`` throughput bar is the roadmap acceptance
  criterion for the vectorisation PR and runs at every scale including smoke.
- ``test_zfp_preview_latency`` sweeps ``preview_fraction`` over a grouped
  payload and reports bytes decoded / decode latency / rms-error estimate per
  fraction (``BENCH_zfp_preview.json``), asserting that a coarse preview
  really decodes a proper prefix of the entropy bytes.
"""

import os
import time

import numpy as np

from conftest import bench_report, bench_seed, run_once

from repro.sz.errors import ErrorBound
from repro.zfp import (
    ZFPLikeCompressor,
    block_transform_forward,
    field_transform_forward,
    field_transform_inverse,
)
from repro.data.slicing import iter_blocks

#: Full-field sizes per REPRO_BENCH_SCALE; the ~1M-point default is where the
#: acceptance bar is defined, and smoke keeps it (the batched transform is
#: fast — the scalar side only ever runs on the crop below).
_FIELD_SHAPES = {
    "smoke": (1024, 1024),
    "default": (1024, 1024),
    "paper": (2048, 2048),
}
_SCALAR_CROP = (256, 256)
_BLOCK_SIZE = 4

_PREVIEW_SHAPE = (512, 512)
_PREVIEW_FRACTIONS = (0.1, 0.25, 0.5, 1.0)


def _best_of(repeats, func):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _scalar_field_transform(data, block_size):
    out = np.empty(data.shape, dtype=np.float64)
    block_shape = (block_size,) * data.ndim
    for slices in iter_blocks(data.shape, block_shape):
        out[slices] = block_transform_forward(data[slices])
    return out


def _measure_transform_throughput():
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    shape = _FIELD_SHAPES.get(scale, _FIELD_SHAPES["default"])
    rng = np.random.default_rng(bench_seed("zfp-transform-throughput"))
    field = np.cumsum(rng.normal(size=shape), axis=1)

    crop = tuple(slice(0, c) for c in _SCALAR_CROP)
    field_crop = np.ascontiguousarray(field[crop])

    scalar_seconds, scalar_out = _best_of(
        1, lambda: _scalar_field_transform(field_crop, _BLOCK_SIZE)
    )
    batched_seconds, batched_out = _best_of(
        3, lambda: field_transform_forward(field, _BLOCK_SIZE)
    )
    # the parity contract, spot-checked where both ran: bit-identical
    assert np.array_equal(batched_out[crop], scalar_out)

    inverse_seconds, recon = _best_of(
        3, lambda: field_transform_inverse(batched_out, _BLOCK_SIZE)
    )
    assert np.allclose(recon, field, atol=1e-6)

    scalar_tp = scalar_out.size / scalar_seconds
    batched_tp = batched_out.size / batched_seconds
    return {
        "points": int(field.size),
        "scalar_crop_points": int(scalar_out.size),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "inverse_seconds": inverse_seconds,
        "scalar_points_per_second": scalar_tp,
        "batched_points_per_second": batched_tp,
        "transform_speedup": batched_tp / scalar_tp,
    }


def test_zfp_transform_throughput(benchmark):
    result = run_once(benchmark, _measure_transform_throughput)

    print("\n=== ZFP block-transform throughput ===")
    print(
        f"field: {result['points']} points, scalar timed on "
        f"{result['scalar_crop_points']}-point crop"
    )
    print(
        f"scalar  {result['scalar_points_per_second'] / 1e6:8.3f} Mpts/s   "
        f"({result['scalar_seconds'] * 1e3:.1f} ms on the crop)"
    )
    print(
        f"batched {result['batched_points_per_second'] / 1e6:8.3f} Mpts/s   "
        f"({result['batched_seconds'] * 1e3:.1f} ms full field)   "
        f"speedup {result['transform_speedup']:.1f}x"
    )

    bench_report("zfp_transform_throughput", result)

    # the acceptance bar: batched transform >= 8x scalar throughput
    assert result["transform_speedup"] >= 8.0


def _measure_preview_latency():
    rng = np.random.default_rng(bench_seed("zfp-preview-latency"))
    field = np.cumsum(rng.normal(size=_PREVIEW_SHAPE), axis=1).astype(np.float32)
    compressor = ZFPLikeCompressor(ErrorBound.absolute(1e-2), layout="grouped")
    payload = compressor.compress(field).payload

    sweep = []
    for fraction in _PREVIEW_FRACTIONS:
        seconds, (preview, info) = _best_of(
            3, lambda f=fraction: compressor.decompress_preview(payload, f)
        )
        rms = float(
            np.sqrt(np.mean((preview.astype(np.float64) - field.astype(np.float64)) ** 2))
        )
        sweep.append(
            {
                "fraction": fraction,
                "decode_seconds": seconds,
                "groups_decoded": info["groups_decoded"],
                "groups_total": info["groups_total"],
                "bytes_decoded": info["bytes_decoded"],
                "bytes_total": info["bytes_total"],
                "rms_error_estimate": info["rms_error_estimate"],
                "rms_error_actual": rms,
            }
        )
    return {
        "points": int(field.size),
        "payload_bytes": len(payload),
        "sweep": sweep,
    }


def test_zfp_preview_latency(benchmark):
    result = run_once(benchmark, _measure_preview_latency)

    print("\n=== ZFP progressive preview: bytes decoded and latency vs fraction ===")
    print(f"{'fraction':>8} {'groups':>8} {'bytes':>12} {'ms':>8} {'rms est':>10} {'rms act':>10}")
    for row in result["sweep"]:
        print(
            f"{row['fraction']:>8.2f} "
            f"{row['groups_decoded']:>3}/{row['groups_total']:<4} "
            f"{row['bytes_decoded']:>12} "
            f"{row['decode_seconds'] * 1e3:>8.1f} "
            f"{row['rms_error_estimate']:>10.4g} "
            f"{row['rms_error_actual']:>10.4g}"
        )

    bench_report("zfp_preview", result)

    full = result["sweep"][-1]
    assert full["fraction"] == 1.0
    assert full["bytes_decoded"] == full["bytes_total"]
    for row in result["sweep"][:-1]:
        # a coarse preview decodes a real prefix: within budget, never empty
        assert 0 < row["bytes_decoded"] <= row["fraction"] * row["bytes_total"] or (
            row["groups_decoded"] == 1
        )
        assert row["bytes_decoded"] < row["bytes_total"]
        assert row["decode_seconds"] <= full["decode_seconds"] * 1.5
