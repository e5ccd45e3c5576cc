"""The hybrid prediction model (paper Section III-D3).

After cross-field and Lorenzo prediction there are ``n + 1`` candidate
predictions for every point of an ``n``-dimensional field: one per-axis
cross-field prediction (previous value along that axis plus the CFNN-predicted
backward difference) and the Lorenzo prediction.  The hybrid model learns a
weighted sum of these candidates.  The paper keeps this model deliberately tiny
(4-5 parameters, Table III) because its evaluation sits inside the sequential
decompression loop.

Two fitting procedures are provided:

- ``lstsq``: closed-form least squares on the prequantized codes (default —
  equivalent to training the linear model to convergence);
- ``sgd``: iterative mini-batch gradient descent, which also produces the
  training-loss curve reproduced in paper Figure 5 (right panel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sz.predictors import lorenzo_predict
from repro.utils.validation import ensure_in

__all__ = ["HybridPredictor", "build_candidate_predictions"]

#: Points the fit uses at most; larger fields are subsampled without replacement.
SAMPLE_LIMIT = 2_000_000
#: Seed of the subsampling draw and of the SGD shuffles.
FIT_SEED = 0
#: Ridge term added to the least-squares normal equations.
RIDGE = 1e-6
#: SGD step size (dimensionless: the gradient is scaled by the candidates' magnitude).
SGD_LEARNING_RATE = 0.05
#: SGD mini-batch size.
SGD_BATCH_SIZE = 65536


def build_candidate_predictions(
    codes: np.ndarray, diff_codes: Sequence[np.ndarray]
) -> np.ndarray:
    """Stack the ``n + 1`` candidate predictions for every point.

    Returns an array of shape ``(ndim + 1, *codes.shape)`` where index 0 is the
    Lorenzo prediction and index ``d + 1`` is the cross-field prediction along
    axis ``d`` (previous value along ``d`` plus the quantized predicted
    difference).  All candidates are computed from the prequantized codes, the
    same values the decoder reconstructs exactly.
    """
    codes = np.asarray(codes, dtype=np.int64)
    ndim = codes.ndim
    if len(diff_codes) != ndim:
        raise ValueError(f"expected {ndim} difference arrays, got {len(diff_codes)}")
    candidates = np.empty((ndim + 1,) + codes.shape, dtype=np.float64)
    candidates[0] = lorenzo_predict(codes)
    padded = np.zeros(tuple(s + 1 for s in codes.shape), dtype=np.int64)
    padded[tuple(slice(1, None) for _ in codes.shape)] = codes
    for d in range(ndim):
        diff = np.asarray(diff_codes[d], dtype=np.int64)
        if diff.shape != codes.shape:
            raise ValueError("difference arrays must match the code array shape")
        offsets = tuple(1 if axis == d else 0 for axis in range(ndim))
        index = tuple(
            slice(1 - off, 1 - off + size) for off, size in zip(offsets, codes.shape)
        )
        candidates[d + 1] = padded[index] + diff
    return candidates


@dataclass
class HybridPredictor:
    """Learned linear combination of the ``n + 1`` candidate predictions."""

    ndim: int
    weights: Optional[np.ndarray] = None
    loss_history: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.ndim not in (1, 2, 3):
            raise ValueError("HybridPredictor supports 1D-3D data")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (self.ndim + 1,):
                raise ValueError(f"weights must have shape ({self.ndim + 1},)")

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        codes: np.ndarray,
        diff_codes: Sequence[np.ndarray],
        method: str = "lstsq",
        epochs: int = 30,
    ) -> np.ndarray:
        """Fit the combination weights on the prequantized codes.

        ``epochs`` applies to ``method="sgd"`` only.  At most
        :data:`SAMPLE_LIMIT` points are used, so fitting stays cheap on large
        fields.  Returns the fitted weight vector.
        """
        ensure_in(method, ("lstsq", "sgd"), "method")
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != self.ndim:
            raise ValueError(f"codes must be {self.ndim}D")
        candidates = build_candidate_predictions(codes, diff_codes)
        design = candidates.reshape(self.ndim + 1, -1).T  # (N, ndim+1)
        target = codes.reshape(-1).astype(np.float64)

        rng = np.random.default_rng(FIT_SEED)
        if design.shape[0] > SAMPLE_LIMIT:
            keep = rng.choice(design.shape[0], size=SAMPLE_LIMIT, replace=False)
            design = design[keep]
            target = target[keep]

        if method == "lstsq":
            gram = design.T @ design + RIDGE * np.eye(self.ndim + 1)
            rhs = design.T @ target
            self.weights = np.linalg.solve(gram, rhs)
            residual = design @ self.weights - target
            self.loss_history = [float(np.mean(residual**2))]
        else:
            weights = np.full(self.ndim + 1, 1.0 / (self.ndim + 1), dtype=np.float64)
            self.loss_history = []
            n = design.shape[0]
            for _ in range(epochs):
                order = rng.permutation(n)
                epoch_loss = 0.0
                for start in range(0, n, SGD_BATCH_SIZE):
                    batch = order[start : start + SGD_BATCH_SIZE]
                    pred = design[batch] @ weights
                    error = pred - target[batch]
                    grad = 2.0 * design[batch].T @ error / batch.size
                    # normalise the gradient scale by the candidate magnitude so the
                    # learning rate is dimensionless
                    scale = np.mean(design[batch] ** 2, axis=0) + 1e-12
                    weights -= SGD_LEARNING_RATE * grad / scale
                    epoch_loss += float(np.mean(error**2)) * batch.size
                self.loss_history.append(epoch_loss / n)
            self.weights = weights
        return self.weights

    # ------------------------------------------------------------------ #
    # use
    # ------------------------------------------------------------------ #
    def predict(self, codes: np.ndarray, diff_codes: Sequence[np.ndarray]) -> np.ndarray:
        """Hybrid prediction (rounded to the integer lattice) for every point."""
        if self.weights is None:
            raise RuntimeError("HybridPredictor has not been fitted")
        candidates = build_candidate_predictions(codes, diff_codes)
        combined = np.tensordot(self.weights, candidates, axes=(0, 0))
        return np.rint(combined).astype(np.int64)

    @property
    def num_parameters(self) -> int:
        """Number of scalar parameters (the "Model Size Hybrid" column of Table III)."""
        return self.ndim + 1

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-serialisable state (weights are stored losslessly as floats)."""
        if self.weights is None:
            raise RuntimeError("HybridPredictor has not been fitted")
        return {"ndim": self.ndim, "weights": [float(w) for w in self.weights]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "HybridPredictor":
        """Inverse of :meth:`to_dict`."""
        return cls(ndim=int(payload["ndim"]), weights=np.asarray(payload["weights"], dtype=np.float64))
