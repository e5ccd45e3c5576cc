"""Shared utilities: argument validation, lightweight logging and a bounded memo.

These helpers are intentionally dependency-free (NumPy only) so that every other
subpackage can rely on them without import cycles.
"""

from repro.utils.validation import (
    ensure_array,
    ensure_dtype,
    ensure_positive,
    ensure_in,
    ensure_shape_match,
    ensure_ndim,
)
from repro.utils.logging import get_logger
from repro.utils.memo import Memo

__all__ = [
    "ensure_array",
    "ensure_dtype",
    "ensure_positive",
    "ensure_in",
    "ensure_shape_match",
    "ensure_ndim",
    "get_logger",
    "Memo",
]
