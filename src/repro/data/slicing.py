"""Patch extraction, block decomposition and slicing utilities.

Training the CFNN uses random patches sampled from the anchor/target difference
fields; the archive writer decomposes a field into independently compressed
chunks (made possible by dual quantization); the visual experiments (paper
Figures 1, 6, 7, 9) extract 2D slices and zoom windows.  All of that lives here.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import ensure_array

__all__ = [
    "extract_patches_nd",
    "iter_blocks",
    "take_slice",
    "zoom_window",
]


def extract_patches_nd(
    arrays: Sequence[np.ndarray],
    patch_shape: Sequence[int],
    n_patches: int,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Sample ``n_patches`` aligned random patches of ``patch_shape`` from each array.

    All arrays must share one shape, and ``patch_shape`` must have the same
    length as the array ndim.  The same patch locations are used for every
    array so that anchor-field patches and target-field patches stay
    point-wise aligned — the property CFNN training depends on.  Returns one
    ``(n_patches, *patch_shape)`` array per input array.
    """
    if rng is None:
        rng = np.random.default_rng()
    arrays = [ensure_array(a, f"arrays[{i}]") for i, a in enumerate(arrays)]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("all arrays must share the same shape")
    patch_shape = tuple(int(p) for p in patch_shape)
    if len(patch_shape) != len(shape):
        raise ValueError(f"patch_shape {patch_shape} rank must match array rank {len(shape)}")
    for p, s in zip(patch_shape, shape):
        if p > s:
            raise ValueError(f"patch_shape {patch_shape} exceeds array shape {shape}")
    starts = [
        rng.integers(0, s - p + 1, size=n_patches) for p, s in zip(patch_shape, shape)
    ]
    outputs = []
    for arr in arrays:
        patches = np.empty((n_patches, *patch_shape), dtype=arr.dtype)
        for k in range(n_patches):
            index = tuple(
                slice(int(starts[d][k]), int(starts[d][k]) + patch_shape[d])
                for d in range(len(shape))
            )
            patches[k] = arr[index]
        outputs.append(patches)
    return outputs


def iter_blocks(
    shape: Sequence[int], block_shape: Sequence[int]
) -> Iterator[Tuple[slice, ...]]:
    """Yield index tuples tiling ``shape`` with blocks of at most ``block_shape``.

    Edge blocks are truncated to fit.  Blocks are yielded in C order; the
    archive writer numbers its chunks in this order.
    """
    shape = tuple(int(s) for s in shape)
    block_shape = tuple(int(b) for b in block_shape)
    if len(block_shape) != len(shape):
        raise ValueError("block_shape rank must match shape rank")
    if any(b <= 0 for b in block_shape):
        raise ValueError("block_shape entries must be positive")
    counts = [int(np.ceil(s / b)) for s, b in zip(shape, block_shape)]
    for flat in range(int(np.prod(counts))):
        idx = np.unravel_index(flat, counts)
        yield tuple(
            slice(int(i) * b, min((int(i) + 1) * b, s)) for i, b, s in zip(idx, block_shape, shape)
        )


def take_slice(data: np.ndarray, axis: int, index: int) -> np.ndarray:
    """Extract the 2D (or (n-1)-D) slice ``index`` along ``axis``.

    Used to reproduce the visual figures (e.g. "the 49th slice along the first
    dimension" in paper Figure 1).
    """
    data = ensure_array(data, "data")
    if not -data.ndim <= axis < data.ndim:
        raise ValueError(f"axis {axis} out of range for ndim {data.ndim}")
    axis = axis % data.ndim
    if not 0 <= index < data.shape[axis]:
        raise IndexError(f"index {index} out of range for axis {axis} with size {data.shape[axis]}")
    return np.take(data, index, axis=axis)


def zoom_window(image: np.ndarray, center: Tuple[int, int], size: int) -> np.ndarray:
    """Extract a ``size x size`` window centred at ``center`` (clipped to bounds).

    Mirrors the zoom-in comparisons in paper Figures 7 and 9.
    """
    image = ensure_array(image, "image")
    if image.ndim != 2:
        raise ValueError("zoom_window expects a 2D image")
    h, w = image.shape
    half = size // 2
    r0 = min(max(center[0] - half, 0), max(h - size, 0))
    c0 = min(max(center[1] - half, 0), max(w - size, 0))
    return image[r0 : r0 + size, c0 : c0 + size]
