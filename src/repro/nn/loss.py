"""Loss function.

The paper trains the CFNN with mean squared error (Section IV-B, Figure 5);
this is the loss :class:`~repro.nn.trainer.Trainer` minimises.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["MSELoss"]


class MSELoss:
    """Mean squared error over all elements."""

    def __init__(self) -> None:
        self._diff: Optional[np.ndarray] = None
        self._count: int = 0

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = np.asarray(prediction)
        target = np.asarray(target, dtype=prediction.dtype)
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} does not match target shape {target.shape}"
            )
        self._diff = prediction - target
        self._count = prediction.size
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        """Gradient of the loss with respect to the prediction."""
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._count

    __call__ = forward
