"""Significance-ordered payload layout for the ZFP-style compressor.

A transformed block stores one coefficient per intra-block offset
``k = (k_1, ..., k_d)``; its *significance level* is the total frequency index
``L = k_1 + ... + k_d``.  Level 0 is the block mean, level 1 the first-order
gradients, and so on — energy in smooth fields concentrates in the low levels.
The grouped layout (``codec_params["layout"] == "grouped"``) therefore stores
the quantized integer stream reordered as::

    [all level-0 coefficients] [all level-1 coefficients] ... [highest level]

with blocks in C order inside each level and offsets in C order inside each
block, and entropy-codes every level as its own blob section.  Decoding a
*prefix* of the groups and treating the missing high-frequency coefficients as
zero yields a valid coarse reconstruction, and because the transform is
orthonormal the squared reconstruction error is exactly the energy of the
dropped coefficients — a computable estimate, monotonically shrinking as
groups are added.

The permutation depends only on ``(shape, block_size)``, so plans are kept in
a :class:`~repro.utils.memo.Memo` bounded by total points, like the SZ
wavefront planner (:mod:`repro.sz.decode`).  A plan also carries the
per-element *block point count* (the number of samples in the block containing
each element), which the codec uses for the per-block quantization step on
ragged edge blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.memo import Memo

__all__ = [
    "SignificancePlan",
    "significance_plan",
    "significance_plan_info",
    "clear_significance_plans",
    "groups_for_fraction",
]

#: Total elements (per-element permutation entries) kept across cached plans.
_PLAN_CACHE_MAX_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SignificancePlan:
    """Precomputed significance ordering for one ``(shape, block_size)``.

    ``perm`` maps grouped-stream position to flat C-order field index:
    ``grouped = field.ravel()[perm]`` and ``field.ravel()[perm[:n]] = prefix``
    scatters a decoded prefix back.  ``group_levels[g]`` is the significance
    level of group ``g`` (empty levels are skipped) and the group occupies
    ``perm[group_bounds[g]:group_bounds[g + 1]]``.
    """

    shape: Tuple[int, ...]
    block_size: int
    perm: np.ndarray
    group_bounds: np.ndarray
    group_levels: np.ndarray
    point_counts: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.group_levels)

    @property
    def n_points(self) -> int:
        return int(self.perm.size)

    def group_slices(self) -> List[slice]:
        """Slices of the grouped stream, one per group, in significance order."""
        return [
            slice(int(self.group_bounds[g]), int(self.group_bounds[g + 1]))
            for g in range(self.n_groups)
        ]


def _build_plan(shape: Tuple[int, ...], block_size: int) -> SignificancePlan:
    ndim = len(shape)
    b = int(block_size)
    n = int(np.prod(shape)) if shape else 0

    # per-element block point count: product over axes of the containing
    # block's extent (edge blocks are truncated to the field boundary)
    point_counts = np.ones(shape, dtype=np.float64)
    for axis, size in enumerate(shape):
        idx = np.arange(size)
        extent = np.minimum(b, size - (idx // b) * b).astype(np.float64)
        view = [1] * ndim
        view[axis] = -1
        point_counts = point_counts * extent.reshape(view)
    point_counts = point_counts.ravel()
    point_counts.setflags(write=False)

    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return SignificancePlan(
            shape, b, empty, np.zeros(1, dtype=np.int64), empty, point_counts
        )

    coords = np.indices(shape).reshape(ndim, -1)
    offsets = coords % b
    level = offsets.sum(axis=0)
    grid_shape = tuple(-(-size // b) for size in shape)
    block_id = np.ravel_multi_index(tuple(coords // b), grid_shape)
    offset_rank = np.ravel_multi_index(tuple(offsets), (b,) * ndim)
    # primary key last: order by level, then block (C order), then offset
    perm = np.lexsort((offset_rank, block_id, level)).astype(np.int64)

    counts = np.bincount(level, minlength=int(level.max()) + 1)
    present = np.flatnonzero(counts)
    group_levels = present.astype(np.int64)
    group_bounds = np.concatenate([[0], np.cumsum(counts[present])]).astype(np.int64)

    perm.setflags(write=False)
    group_bounds.setflags(write=False)
    group_levels.setflags(write=False)
    return SignificancePlan(shape, b, perm, group_bounds, group_levels, point_counts)


_PLANS = Memo(
    lambda key: _build_plan(*key),
    max_cost=_PLAN_CACHE_MAX_ELEMENTS,
    cost=lambda plan: plan.n_points,
    unit="points",
)
#: Cache statistics of the significance planner (for tests and benchmarks).
significance_plan_info = _PLANS.info
#: Drop every cached plan and reset the hit/miss counters.
clear_significance_plans = _PLANS.clear


def significance_plan(shape: Sequence[int], block_size: int) -> SignificancePlan:
    """Return the (cached) significance plan for ``shape`` / ``block_size``."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return _PLANS.get((tuple(int(s) for s in shape), int(block_size)))


def groups_for_fraction(group_bytes: Sequence[int], fraction: float) -> int:
    """How many significance groups a ``preview_fraction`` budget buys.

    Returns the largest ``G`` whose cumulative section bytes stay within
    ``fraction`` of the total entropy payload, clamped to at least one group
    (a preview always includes the block means) and to all groups when
    ``fraction >= 1``.
    """
    if not np.isfinite(fraction) or fraction <= 0.0:
        raise ValueError("preview fraction must be a positive finite number")
    n = len(group_bytes)
    if n == 0 or fraction >= 1.0:
        return n
    total = float(sum(group_bytes))
    if total <= 0.0:
        return n
    budget = fraction * total
    taken = 0.0
    groups = 0
    for size in group_bytes:
        taken += float(size)
        if taken > budget and groups >= 1:
            break
        groups += 1
    return max(1, min(groups, n))
