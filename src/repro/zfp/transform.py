"""Orthonormal block transforms for the ZFP-style compressor.

The reference ZFP codec uses a custom lifted near-orthogonal transform on
4-wide blocks; this reproduction uses the orthonormal DCT-II, which has the same
decorrelating role, is exactly orthonormal (so coefficient-domain error bounds
translate to sample-domain bounds), and keeps the code short.

Two implementations coexist, mirroring the SZ parity contract
(``docs/architecture.md``, "The wavefront batch decoder"):

- the *batched* path (:func:`field_transform_forward` /
  :func:`field_transform_inverse`) reshapes every same-shaped block of a field
  into one ``(nblocks, b[, b[, b]])`` stack and applies the separable DCT with
  a handful of whole-stack NumPy operations — ragged edge blocks are grouped
  by shape, one small stack per distinct edge shape, so a ``(1023, 1022)``
  field costs four stacked transforms instead of ~65k per-block calls;
- the *reference* path (:func:`block_transform_forward` /
  :func:`block_transform_inverse`) transforms one block at a time, exactly
  like the original per-block loop.

Both contract each axis with the same fixed-order multiply/add sequence
(:func:`_contract_axis`): elementwise IEEE operations are exactly rounded, so
running the identical sequence over a stack of N blocks or over one block at a
time produces bit-identical floats.  No BLAS ``tensordot``/``matmul`` is
involved, which keeps the bits build-stable — ``tests/test_zfp_parity.py``
pins the two paths against each other with Hypothesis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

__all__ = [
    "MAX_TRANSFORM_SIZE",
    "dct_matrix",
    "block_transform_forward",
    "block_transform_inverse",
    "field_transform_forward",
    "field_transform_inverse",
    "iter_block_regions",
]

#: Ceiling on the per-axis transform size.  Block transforms are meant for
#: small blocks (ZFP uses 4); the matrix cache below is bounded, and a huge
#: ``n`` would silently allocate an ``n x n`` float64 matrix per lookup.
MAX_TRANSFORM_SIZE = 1024


@lru_cache(maxsize=32)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size ``n x n`` (rows are basis vectors).

    The cache is bounded (32 distinct sizes) so adversarial block-size sweeps
    cannot grow it without limit, and ``n`` is validated against
    :data:`MAX_TRANSFORM_SIZE`.  The returned matrix is shared across callers
    and therefore read-only.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_TRANSFORM_SIZE:
        raise ValueError(
            f"transform size {n} exceeds MAX_TRANSFORM_SIZE={MAX_TRANSFORM_SIZE}; "
            "block transforms are meant for small blocks (ZFP uses 4)"
        )
    k = np.arange(n).reshape(-1, 1)
    i = np.arange(n).reshape(1, -1)
    matrix = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    matrix[0, :] *= np.sqrt(1.0 / n)
    matrix[1:, :] *= np.sqrt(2.0 / n)
    matrix.setflags(write=False)
    return matrix


def _contract_axis(stack: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``out[..., j, ...] = sum_k matrix[j, k] * stack[..., k, ...]``.

    The sum over ``k`` runs in fixed ascending order as a sequence of
    elementwise multiply/adds.  Elementwise IEEE operations are exactly
    rounded, so the result is bit-identical whether ``stack`` holds one block
    or a million — the property the batched/reference parity contract relies
    on — and independent of the BLAS build.
    """
    moved = np.moveaxis(stack, axis, -1)
    acc = matrix[:, 0] * moved[..., 0:1]
    for k in range(1, matrix.shape[1]):
        acc = acc + matrix[:, k] * moved[..., k : k + 1]
    return np.moveaxis(acc, -1, axis)


def _apply_along_axes(
    block: np.ndarray, axes: Tuple[int, ...], inverse: bool
) -> np.ndarray:
    out = np.asarray(block, dtype=np.float64)
    for axis in axes:
        matrix = dct_matrix(out.shape[axis])
        operator = matrix.T if inverse else matrix
        out = _contract_axis(out, operator, axis)
    return out


def block_transform_forward(block: np.ndarray) -> np.ndarray:
    """Apply the separable orthonormal DCT along every axis of ``block``."""
    block = np.asarray(block, dtype=np.float64)
    return _apply_along_axes(block, tuple(range(block.ndim)), inverse=False)


def block_transform_inverse(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`block_transform_forward`."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    return _apply_along_axes(coefficients, tuple(range(coefficients.ndim)), inverse=True)


def iter_block_regions(
    shape: Tuple[int, ...], block_size: int
) -> Iterator[Tuple[Tuple[slice, ...], Tuple[int, ...]]]:
    """Yield ``(region_slices, region_block_shape)`` corner regions of a field.

    Tiling a field with ``block_size``-wide blocks leaves, along each axis, a
    *full* span (a multiple of ``block_size``) and at most one truncated edge
    span.  The cartesian product of those spans partitions the field into at
    most ``2**ndim`` regions, inside each of which every block has the same
    shape — so each region transforms as one homogeneous stack.  Regions are
    yielded in C order of (full, edge) per axis; empty regions are skipped.
    """
    shape = tuple(int(s) for s in shape)
    block = int(block_size)
    spans: List[List[Tuple[slice, int]]] = []
    for size in shape:
        full = (size // block) * block
        axis_spans = []
        if full:
            axis_spans.append((slice(0, full), block))
        if size - full:
            axis_spans.append((slice(full, size), size - full))
        if not axis_spans:  # zero-extent axis: one empty span keeps rank
            axis_spans.append((slice(0, 0), 0))
        spans.append(axis_spans)
    counts = [len(axis_spans) for axis_spans in spans]
    for flat in range(int(np.prod(counts))):
        index = np.unravel_index(flat, counts)
        chosen = [spans[axis][int(i)] for axis, i in enumerate(index)]
        yield tuple(sl for sl, _ in chosen), tuple(b for _, b in chosen)


def _region_to_stack(region: np.ndarray, block_shape: Tuple[int, ...]) -> np.ndarray:
    """Reshape a region (every extent a multiple of its block extent) into a
    ``(nblocks, *block_shape)`` stack, blocks in C order of the block grid."""
    counts = tuple(s // b for s, b in zip(region.shape, block_shape))
    split_shape: List[int] = []
    for count, extent in zip(counts, block_shape):
        split_shape.extend((count, extent))
    # (c0, b0, c1, b1, ...) -> (c0, c1, ..., b0, b1, ...)
    ndim = len(block_shape)
    order = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
    stacked = region.reshape(split_shape).transpose(order)
    return stacked.reshape((int(np.prod(counts)),) + block_shape)


def _stack_to_region(
    stack: np.ndarray, region_shape: Tuple[int, ...], block_shape: Tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`_region_to_stack`."""
    counts = tuple(s // b for s, b in zip(region_shape, block_shape))
    ndim = len(block_shape)
    order = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
    inverse_order = tuple(int(i) for i in np.argsort(order))
    interleaved = stack.reshape(counts + block_shape).transpose(inverse_order)
    return interleaved.reshape(region_shape)


def _field_transform(data: np.ndarray, block_size: int, inverse: bool) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if block_size < 1:
        raise ValueError("block_size must be positive")
    out = np.empty(data.shape, dtype=np.float64)
    ndim = data.ndim
    for slices, block_shape in iter_block_regions(data.shape, block_size):
        region = data[slices]
        if region.size == 0:
            continue
        stack = _region_to_stack(region, block_shape)
        transformed = _apply_along_axes(
            stack, tuple(range(1, ndim + 1)), inverse=inverse
        )
        out[slices] = _stack_to_region(transformed, region.shape, block_shape)
    return out


def field_transform_forward(data: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block forward DCT over a whole field, batched.

    Equivalent to applying :func:`block_transform_forward` to every
    ``block_size``-wide tile of ``data`` (edge tiles truncated) — bit-identical
    to that loop, but the work runs as at most ``2**ndim`` stacked transforms.
    """
    return _field_transform(data, block_size, inverse=False)


def field_transform_inverse(coefficients: np.ndarray, block_size: int) -> np.ndarray:
    """Inverse of :func:`field_transform_forward` (same batching, same parity)."""
    return _field_transform(coefficients, block_size, inverse=True)
