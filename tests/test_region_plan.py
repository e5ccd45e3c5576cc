"""Property tests for the chunk-grid arithmetic behind region reads.

:func:`~repro.store.manifest.region_plan` computes, per axis, which chunks a
region touches and the overlap slices on both sides, then takes their product.
The per-chunk loops it replaced are kept below as the oracle: the flat
indices from ``np.ndindex`` + ``np.ravel_multi_index``, the overlap from a
``min``/``max`` per axis per chunk, and chunk extents from
``np.unravel_index`` as the manifest parser used to derive them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.manifest import (
    ArchiveCorruptionError,
    ChunkEntry,
    FieldEntry,
    chunk_grid_counts,
    chunks_intersecting_region,
    normalize_region,
    region_plan,
)

SETTINGS = settings(max_examples=100, deadline=None)


# --------------------------------------------------------------------------- #
# oracle: the per-chunk loops region_plan replaced
# --------------------------------------------------------------------------- #
def oracle_counts(shape, chunk_shape):
    return tuple(int(np.ceil(s / c)) for s, c in zip(shape, chunk_shape))


def oracle_indices(shape, chunk_shape, region):
    counts = oracle_counts(shape, chunk_shape)
    axis_ranges = []
    for sl, chunk, count in zip(region, chunk_shape, counts):
        first = sl.start // chunk
        last = (sl.stop - 1) // chunk
        axis_ranges.append(range(first, min(last, count - 1) + 1))
    indices = []
    for coords in np.ndindex(*[len(r) for r in axis_ranges]):
        grid_coord = tuple(axis_ranges[d][coords[d]] for d in range(len(axis_ranges)))
        indices.append(int(np.ravel_multi_index(grid_coord, counts)))
    return indices


def oracle_extents(shape, chunk_shape, index):
    coord = np.unravel_index(index, oracle_counts(shape, chunk_shape))
    start = tuple(int(c) * b for c, b in zip(coord, chunk_shape))
    stop = tuple(min(a + b, s) for a, b, s in zip(start, chunk_shape, shape))
    return start, stop


def oracle_overlap(region, start, stop):
    dest, src = [], []
    for sl, c0, c1 in zip(region, start, stop):
        lo = max(sl.start, c0)
        hi = min(sl.stop, c1)
        dest.append(slice(lo - sl.start, hi - sl.start))
        src.append(slice(lo - c0, hi - c0))
    return tuple(dest), tuple(src)


def oracle_plan(shape, chunk_shape, region):
    plan = []
    for index in oracle_indices(shape, chunk_shape, region):
        dest, src = oracle_overlap(region, *oracle_extents(shape, chunk_shape, index))
        plan.append((index, dest, src))
    return plan


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def grids(draw):
    """A 1-3-D shape and a chunk shape; chunks may be ragged or exceed the field."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 40)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, s + 3)) for s in shape)
    return shape, chunk_shape


@st.composite
def region_items(draw, size):
    """One axis of a region: a full axis, an integer index or a start:stop slice."""
    kind = draw(st.sampled_from(["full", "index", "slice"]))
    if kind == "full":
        return slice(None)
    if kind == "index":
        return draw(st.integers(-size, size - 1))
    start = draw(st.integers(0, size - 1))
    return slice(start, draw(st.integers(start + 1, size)))


@st.composite
def planned_regions(draw):
    shape, chunk_shape = draw(grids())
    rank = draw(st.integers(0, len(shape)))  # trailing axes default to full
    region = tuple(draw(region_items(s)) for s in shape[:rank])
    return shape, chunk_shape, normalize_region(shape, region)


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
class TestRegionPlan:
    @SETTINGS
    @given(planned_regions())
    def test_matches_the_per_chunk_oracle(self, case):
        shape, chunk_shape, region = case
        assert region_plan(shape, chunk_shape, region) == oracle_plan(shape, chunk_shape, region)
        assert chunks_intersecting_region(shape, chunk_shape, region) == oracle_indices(
            shape, chunk_shape, region
        )

    @SETTINGS
    @given(planned_regions())
    def test_assembles_the_region_exactly(self, case):
        shape, chunk_shape, region = case
        field = np.arange(int(np.prod(shape))).reshape(shape)
        out = np.full(tuple(sl.stop - sl.start for sl in region), -1)
        for index, dest, src in region_plan(shape, chunk_shape, region):
            start, stop = oracle_extents(shape, chunk_shape, index)
            chunk = field[tuple(slice(a, b) for a, b in zip(start, stop))]
            out[dest] = chunk[src]
        assert np.array_equal(out, field[region])

    @SETTINGS
    @given(grids(), st.data())
    def test_region_covering_exactly_one_chunk(self, grid, data):
        shape, chunk_shape = grid
        counts = chunk_grid_counts(shape, chunk_shape)
        index = data.draw(st.integers(0, int(np.prod(counts)) - 1))
        start, stop = oracle_extents(shape, chunk_shape, index)
        region = tuple(slice(a, b) for a, b in zip(start, stop))
        full = tuple(slice(0, b - a) for a, b in zip(start, stop))
        assert region_plan(shape, chunk_shape, region) == [(index, full, full)]

    def test_ragged_last_chunk_and_integer_index(self):
        shape, chunk = (10, 7), (4, 3)  # last row of chunks 2 tall, last column 1 wide
        region = normalize_region(shape, (9, slice(5, 7)))
        assert region_plan(shape, chunk, region) == [
            (7, (slice(0, 1), slice(0, 1)), (slice(1, 2), slice(2, 3))),
            (8, (slice(0, 1), slice(1, 2)), (slice(1, 2), slice(0, 1))),
        ]

    @SETTINGS
    @given(grids())
    def test_grid_counts_match_float_ceil(self, grid):
        shape, chunk_shape = grid
        assert chunk_grid_counts(shape, chunk_shape) == oracle_counts(shape, chunk_shape)


class TestManifestGridCheck:
    """``FieldEntry.from_dict`` derives chunk extents from the same grid."""

    @staticmethod
    def entry_dict(shape, chunk_shape):
        n = int(np.prod(oracle_counts(shape, chunk_shape)))
        chunks = [
            ChunkEntry(i, *oracle_extents(shape, chunk_shape, i), offset=16, length=1, crc32=0)
            for i in range(n)
        ]
        return FieldEntry(
            name="f", dtype="float32", shape=shape, chunk_shape=chunk_shape, codec="sz",
            chunks=chunks,
        ).to_dict()

    @SETTINGS
    @given(grids())
    def test_accepts_the_oracle_grid(self, grid):
        payload = self.entry_dict(*grid)
        parsed = FieldEntry.from_dict(payload)
        assert [c.to_dict() for c in parsed.chunks] == payload["chunks"]

    @SETTINGS
    @given(grids(), st.data())
    def test_rejects_any_shifted_extent(self, grid, data):
        payload = self.entry_dict(*grid)
        chunk = data.draw(st.sampled_from(payload["chunks"]))
        key = data.draw(st.sampled_from(["start", "stop"]))
        axis = data.draw(st.integers(0, len(chunk[key]) - 1))
        chunk[key][axis] += data.draw(st.sampled_from([-1, 1]))
        with pytest.raises(ArchiveCorruptionError, match="chunk grid implies"):
            FieldEntry.from_dict(payload)
