"""Zigzag mapping of signed integers onto non-negative symbols.

Quantization residuals are signed and centred on zero; Huffman symbols must be
non-negative, so the residuals are zigzag-mapped first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zigzag_encode", "zigzag_decode"]


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to non-negative: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError("zigzag_encode expects integer input")
    v = values.astype(np.int64)  # a copy
    # 2v for v >= 0, -2v - 1 (that is, ~2v) below: flip 2v's bits by the sign
    sign = v >> 63
    v <<= 1
    v ^= sign
    return v


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError("zigzag_decode expects integer input")
    v = values.astype(np.int64)
    if v.size and v.min() < 0:
        raise ValueError("zigzag-encoded values must be non-negative")
    return np.where(v % 2 == 0, v // 2, -(v + 1) // 2).astype(np.int64)
