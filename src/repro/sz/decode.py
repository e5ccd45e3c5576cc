"""Decoders for the weighted (hybrid) prediction recurrence.

The hybrid prediction model combines the Lorenzo prediction with the per-axis
cross-field predictions through a learned weighted sum (paper Section III-C).
During compression the prediction can be evaluated for all points at once
(dual quantization makes every prequantized value available), but during
decompression the prediction of point ``(i, j)`` needs the already-decoded
values at ``(i-1, j)``, ``(i, j-1)``, ``(i-1, j-1)`` — a recurrence.

Two exact decoders are provided:

- :func:`decode_weighted_sequential` — straightforward nested loops; the
  readable reference used for correctness tests and the anchor of the
  cross-implementation parity suite (``tests/test_sz_parity.py``).
- :func:`decode_weighted_wavefront` — the batch state machine.  Points with
  equal *dependency-relevant* coordinate sum form one wave and are
  reconstructed in a single NumPy step; the gather/scatter index tables for a
  given shape are built once and cached (:class:`_WavefrontPlan`), so decoding
  the thousands of same-shaped chunks of an archive pays the planning cost
  once.  Waves are *fat*: axes that cannot carry a dependency (zero weight
  with no Lorenzo term, or extent one) are dropped from the wave key, which
  merges many standard anti-diagonals into one batch step — in the extreme
  (no dependency-carrying axis at all) the whole array decodes in a single
  step.  Large 3D inputs run through a blocked variant that marches slab
  blocks along the leading axis and reuses one sub-plan for every slab,
  keeping the index tables small without changing a single arithmetic
  operation.

Both decoders accept arbitrary weights, so the pure-Lorenzo baseline (weights
``[1, 0, ..., 0]``) and the full hybrid model share one code path, and both
perform the identical per-point float64 accumulation (Lorenzo term first, then
the axis terms in order) so their outputs are bit-identical — the contract the
parity suite enforces.  See ``docs/architecture.md`` ("The wavefront batch
decoder") for the index-table construction and the parity-testing contract,
and ``docs/observability.md`` for the ``sz.wavefront.*`` metric names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.obs import recorder as _obs
from repro.utils.memo import Memo
from repro.utils.validation import ensure_ndim

__all__ = [
    "weighted_predict_full",
    "decode_weighted_sequential",
    "decode_weighted_wavefront",
    "wavefront_plan_info",
    "clear_wavefront_plans",
]

#: 3D inputs above this many points decode through the blocked (slab) variant
#: so the cached index tables stay bounded; shared sub-plans make the extra
#: wave steps cheap.  Tests shrink it to force the blocked path on small data.
BLOCKED_3D_THRESHOLD = 1 << 20

#: Upper bound on the total number of points whose index tables the plan cache
#: may hold (each point costs 16 bytes of tables).
_PLAN_CACHE_MAX_ELEMENTS = 1 << 22


def _check_inputs(
    residuals: np.ndarray,
    diff_codes: Sequence[np.ndarray],
    weights: Sequence[float],
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    residuals = np.asarray(residuals)
    if not np.issubdtype(residuals.dtype, np.integer):
        raise TypeError("residuals must be integer lattice codes")
    ensure_ndim(residuals, (1, 2, 3), "residuals")
    ndim = residuals.ndim
    try:
        weights = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"weights must be a flat numeric sequence: {exc}") from exc
    if weights.ndim != 1 or weights.shape != (ndim + 1,):
        raise ValueError(
            f"weights must be a flat sequence of length ndim+1 = {ndim + 1} "
            f"(one Lorenzo weight plus one per axis of the {ndim}D residuals), "
            f"got shape {tuple(weights.shape)}"
        )
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite (no NaN/inf)")
    diffs: List[np.ndarray] = []
    if len(diff_codes) != ndim:
        raise ValueError(
            f"expected {ndim} cross-field difference arrays (one per axis of the "
            f"{ndim}D residuals), got {len(diff_codes)}"
        )
    for d, diff in enumerate(diff_codes):
        diff = np.asarray(diff)
        if diff.shape != residuals.shape:
            raise ValueError(
                f"diff_codes[{d}] has shape {diff.shape}, expected {residuals.shape}"
            )
        if not np.issubdtype(diff.dtype, np.integer):
            raise TypeError("cross-field difference codes must be integers")
        diffs.append(diff.astype(np.int64))
    return residuals.astype(np.int64), diffs, weights


def _lorenzo_terms(ndim: int) -> List[Tuple[Tuple[int, ...], int]]:
    """Offsets (1 = previous index along that axis) and signs of the Lorenzo sum."""
    terms = []
    for mask in range(1, 1 << ndim):
        offsets = tuple((mask >> d) & 1 for d in range(ndim))
        sign = -1 if (sum(offsets) % 2 == 0) else 1
        terms.append((offsets, sign))
    return terms


# --------------------------------------------------------------------------- #
# full-array prediction (compression side)
# --------------------------------------------------------------------------- #
def weighted_predict_full(
    codes: np.ndarray,
    diff_codes: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Hybrid prediction of every point from the *known* prequantized array.

    ``prediction = w_0 * lorenzo + sum_d w_{d+1} * (previous-along-d + diff_d)``,
    rounded to the nearest integer.  This is the compression-side counterpart of
    the decoders below; dual quantization guarantees the decoder sees the same
    neighbour values, hence the same predictions.
    """
    codes = np.asarray(codes, dtype=np.int64)
    residual_like, diffs, weights = _check_inputs(codes, diff_codes, weights)
    shape = codes.shape
    ndim = codes.ndim
    padded = np.zeros(tuple(s + 1 for s in shape), dtype=np.int64)
    padded[tuple(slice(1, None) for _ in shape)] = codes

    def shifted(offsets):
        index = tuple(slice(1 - off, 1 - off + size) for off, size in zip(offsets, shape))
        return padded[index]

    prediction = np.zeros(shape, dtype=np.float64)
    if weights[0] != 0.0:
        lorenzo = np.zeros(shape, dtype=np.int64)
        for offsets, sign in _lorenzo_terms(ndim):
            lorenzo += sign * shifted(offsets)
        prediction += weights[0] * lorenzo
    for d in range(ndim):
        if weights[d + 1] == 0.0:
            continue
        offsets = tuple(1 if axis == d else 0 for axis in range(ndim))
        prediction += weights[d + 1] * (shifted(offsets) + diffs[d])
    return np.rint(prediction).astype(np.int64)


# --------------------------------------------------------------------------- #
# sequential reference decoder
# --------------------------------------------------------------------------- #
def decode_weighted_sequential(
    residuals: np.ndarray,
    diff_codes: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Reference decoder: reconstruct codes point by point in C order."""
    residuals, diffs, weights = _check_inputs(residuals, diff_codes, weights)
    shape = residuals.shape
    ndim = residuals.ndim
    padded = np.zeros(tuple(s + 1 for s in shape), dtype=np.int64)
    terms = _lorenzo_terms(ndim)

    for index in np.ndindex(*shape):
        pindex = tuple(i + 1 for i in index)
        prediction = 0.0
        if weights[0] != 0.0:
            lorenzo = 0
            for offsets, sign in terms:
                neighbour = tuple(p - off for p, off in zip(pindex, offsets))
                lorenzo += sign * padded[neighbour]
            prediction += weights[0] * lorenzo
        for d in range(ndim):
            if weights[d + 1] == 0.0:
                continue
            neighbour = tuple(p - (1 if axis == d else 0) for axis, p in enumerate(pindex))
            prediction += weights[d + 1] * (padded[neighbour] + diffs[d][index])
        padded[pindex] = int(np.rint(prediction)) + residuals[index]
    return padded[tuple(slice(1, None) for _ in shape)].copy()


# --------------------------------------------------------------------------- #
# wavefront (batch state machine) decoder
# --------------------------------------------------------------------------- #
@dataclass
class _WavefrontPlan:
    """Precomputed gather/scatter index tables for one (shape, stencil) pair.

    ``pidx``/``oidx`` hold the padded-array and original-array flat indices of
    every point, sorted by wave; ``bounds[w]:bounds[w+1]`` delimits wave ``w``.
    Plans are shape-relative: the blocked 3D path reuses one slab plan at many
    offsets by adding the slab's base flat index (valid because the trailing
    axes — and therefore the flat strides — are identical for every slab).
    """

    shape: Tuple[int, ...]
    active: Tuple[int, ...]
    bounds: np.ndarray
    pidx: np.ndarray
    oidx: np.ndarray

    @property
    def n_waves(self) -> int:
        return len(self.bounds) - 1

    @property
    def n_points(self) -> int:
        return int(self.pidx.size)


def _active_axes(shape: Tuple[int, ...], weights: np.ndarray) -> Tuple[int, ...]:
    """Axes that can carry a decode dependency given the weights.

    With a non-zero Lorenzo weight every axis appears in the stencil; without
    it only axes whose own cross-field weight is non-zero do.  Axes of extent
    one never have an in-array predecessor (the neighbour is always the zero
    padding), so they are dropped unconditionally — together this is what
    merges anti-diagonals into fat waves.
    """
    ndim = len(shape)
    if weights[0] != 0.0:
        return tuple(d for d in range(ndim) if shape[d] > 1)
    return tuple(d for d in range(ndim) if shape[d] > 1 and weights[d + 1] != 0.0)


def _build_plan(shape: Tuple[int, ...], active: Tuple[int, ...]) -> _WavefrontPlan:
    ndim = len(shape)
    n = int(np.prod(shape)) if shape else 0
    padded_shape = tuple(s + 1 for s in shape)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return _WavefrontPlan(shape, active, np.zeros(1, dtype=np.int64), empty, empty)
    coords = np.indices(shape).reshape(ndim, -1)
    if active:
        key = coords[list(active)].sum(axis=0)
    else:
        key = np.zeros(n, dtype=np.int64)
    # stable counting sort by wave key: C-order ties keep their relative order
    order = np.argsort(key, kind="stable").astype(np.int64)
    counts = np.bincount(key, minlength=int(key.max()) + 1)
    bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    pidx_all = np.ravel_multi_index(tuple(coords + 1), padded_shape).astype(np.int64)
    return _WavefrontPlan(shape, active, bounds, pidx_all[order], order)


_PLANS = Memo(
    lambda key: _build_plan(*key),
    max_cost=_PLAN_CACHE_MAX_ELEMENTS,
    cost=lambda plan: plan.n_points,
    unit="points",
)
#: Cache statistics of the wavefront planner (for tests and benchmarks).
wavefront_plan_info = _PLANS.info
#: Drop every cached plan and reset the hit/miss counters.
clear_wavefront_plans = _PLANS.clear


def _decode_block(
    plan: _WavefrontPlan,
    padded_flat: np.ndarray,
    residual_flat: np.ndarray,
    diff_flats: List[np.ndarray],
    weights: np.ndarray,
    lorenzo_offsets: List[Tuple[int, int]],
    axis_offsets: List[int],
    pad_offset: int = 0,
    orig_offset: int = 0,
) -> int:
    """Replay the recurrence over one planned block; returns the wave count.

    The per-point arithmetic — int64 Lorenzo accumulation in ``_lorenzo_terms``
    order, then float64 ``w0 * lorenzo`` followed by the axis terms in axis
    order — mirrors :func:`decode_weighted_sequential` exactly, which is what
    makes the two decoders bit-identical.
    """
    pidx = plan.pidx if pad_offset == 0 else plan.pidx + pad_offset
    oidx = plan.oidx if orig_offset == 0 else plan.oidx + orig_offset
    res_sorted = residual_flat[oidx]
    use_lorenzo = weights[0] != 0.0
    axis_terms = [
        (weights[d + 1], axis_offsets[d], diff_flats[d][oidx])
        for d in range(len(axis_offsets))
        if weights[d + 1] != 0.0
    ]
    bounds = plan.bounds
    for wave in range(plan.n_waves):
        start, stop = int(bounds[wave]), int(bounds[wave + 1])
        if start == stop:
            continue
        p = pidx[start:stop]
        prediction = np.zeros(stop - start, dtype=np.float64)
        if use_lorenzo:
            lorenzo = np.zeros(stop - start, dtype=np.int64)
            for offset, sign in lorenzo_offsets:
                lorenzo += sign * padded_flat[p - offset]
            prediction += weights[0] * lorenzo
        for weight, offset, diff_sorted in axis_terms:
            prediction += weight * (padded_flat[p - offset] + diff_sorted[start:stop])
        padded_flat[p] = np.rint(prediction).astype(np.int64) + res_sorted[start:stop]
    return plan.n_waves


def decode_weighted_wavefront(
    residuals: np.ndarray,
    diff_codes: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Vectorised exact decoder: a batch state machine over planned waves.

    Every point ``(i_0, …, i_{n-1})`` only depends on points whose coordinate
    sum over the *dependency-active* axes is strictly smaller, so all points
    sharing that sum form one wave and are reconstructed in a single NumPy
    gather/compute/scatter step.  The flattened index tables for a shape are
    built once and cached; large 3D inputs march slab blocks along the leading
    axis through one shared sub-plan.  Output is bit-identical to
    :func:`decode_weighted_sequential` for every weight vector.
    """
    residuals, diffs, weights = _check_inputs(residuals, diff_codes, weights)
    shape = residuals.shape
    ndim = residuals.ndim
    n = int(residuals.size)
    if n == 0:
        return residuals.copy()

    recorder = _obs.get_recorder()
    start_time = time.perf_counter() if recorder.enabled else 0.0

    padded_shape = tuple(s + 1 for s in shape)
    padded = np.zeros(padded_shape, dtype=np.int64)
    padded_flat = padded.reshape(-1)
    padded_strides = [int(np.prod(padded_shape[d + 1 :])) for d in range(ndim)]
    lorenzo_offsets = [
        (sum(off * stride for off, stride in zip(offsets, padded_strides)), sign)
        for offsets, sign in _lorenzo_terms(ndim)
    ]
    axis_offsets = [padded_strides[d] for d in range(ndim)]

    residual_flat = np.ascontiguousarray(residuals).reshape(-1)
    diff_flats = [np.ascontiguousarray(d).reshape(-1) for d in diffs]
    active = _active_axes(shape, weights)

    n_waves = 0
    if ndim == 3 and n > BLOCKED_3D_THRESHOLD and shape[0] > 1:
        # blocked variant: slabs along axis 0 share flat strides with the full
        # padded array, so one sub-plan serves every equal-sized slab with a
        # per-slab base offset; cross-slab dependencies resolve through the
        # shared padded buffer.
        trailing = shape[1] * shape[2]
        slab_rows = max(1, BLOCKED_3D_THRESHOLD // max(trailing, 1))
        row = 0
        while row < shape[0]:
            rows = min(slab_rows, shape[0] - row)
            block_shape = (rows,) + shape[1:]
            block_active = _active_axes(block_shape, weights)
            plan = _PLANS.get((block_shape, block_active))
            n_waves += _decode_block(
                plan, padded_flat, residual_flat, diff_flats, weights,
                lorenzo_offsets, axis_offsets,
                pad_offset=(row) * padded_strides[0],
                orig_offset=row * trailing,
            )
            row += rows
    else:
        plan = _PLANS.get((shape, active))
        n_waves = _decode_block(
            plan, padded_flat, residual_flat, diff_flats, weights,
            lorenzo_offsets, axis_offsets,
        )

    if recorder.enabled:
        recorder.observe("sz.wavefront.decode_seconds", time.perf_counter() - start_time)
        recorder.count("sz.wavefront.points", n)
        recorder.count("sz.wavefront.waves", n_waves)

    return padded[tuple(slice(1, None) for _ in shape)].copy()
