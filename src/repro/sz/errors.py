"""Error-bound specification and resolution.

Error-bounded lossy compressors let the user pick an error *type* and a bound
value (paper Section II-A).  The two modes used throughout the paper are:

- ``abs``: the absolute point-wise error may not exceed ``value``.
- ``rel`` (value-range relative): the point-wise error may not exceed
  ``value * (max(data) - min(data))``.  All error bounds quoted in the paper
  (5e-3 … 2e-4) are of this kind.

:class:`ErrorBound` resolves either mode to the absolute bound actually used by
the quantizer for a given array.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Dict, Optional

import numpy as np

from repro.utils.validation import ensure_in, ensure_positive

__all__ = ["ErrorBound"]

_MODES = ("abs", "rel")


@dataclass(frozen=True)
class ErrorBound:
    """User-facing error bound: a mode (``"abs"`` / ``"rel"``) and a value."""

    mode: str
    value: float

    def __post_init__(self) -> None:
        ensure_in(self.mode, _MODES, "error bound mode")
        ensure_positive(self.value, "error bound value")

    @classmethod
    def absolute(cls, value: float) -> "ErrorBound":
        """Absolute error bound."""
        return cls("abs", float(value))

    @classmethod
    def relative(cls, value: float) -> "ErrorBound":
        """Value-range-relative error bound (the mode used in the paper)."""
        return cls("rel", float(value))

    @classmethod
    def coerce(cls, value, default: Optional["ErrorBound"] = None) -> "ErrorBound":
        """An :class:`ErrorBound`, its ``{mode, value}`` dict, or a number (relative).

        ``None`` gives ``default`` when one is set; other types raise ``TypeError``.
        """
        if value is None and default is not None:
            return default
        if isinstance(value, ErrorBound):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, Real) and not isinstance(value, bool):
            return cls.relative(float(value))
        raise TypeError(
            "error bound must be an ErrorBound, a {mode, value} dict, "
            f"or a number (relative), got {type(value).__name__}"
        )

    def resolve(self, data: np.ndarray) -> float:
        """Return the absolute error bound for ``data``.

        For relative bounds on a constant array (zero value range) the resolved
        absolute bound falls back to the relative value itself, so the
        quantizer never divides by zero.
        """
        if self.mode == "abs":
            return float(self.value)
        data = np.asarray(data)
        value_range = float(np.max(data) - np.min(data))
        if value_range == 0.0:
            return float(self.value)
        return float(self.value * value_range)

    def to_dict(self) -> Dict:
        """JSON-serialisable representation (stored in the container metadata)."""
        return {"mode": self.mode, "value": self.value}

    @classmethod
    def from_dict(cls, payload: Dict) -> "ErrorBound":
        """Inverse of :meth:`to_dict`."""
        return cls(payload["mode"], float(payload["value"]))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mode}:{self.value:g}"
