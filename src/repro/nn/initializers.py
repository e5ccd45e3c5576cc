"""Weight initialisation schemes."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["he_normal", "xavier_uniform", "zeros_init", "fan_in_out"]


def fan_in_out(shape: Sequence[int]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor.

    Convolution kernels are assumed to be laid out ``(out_ch, in_ch, *spatial)``
    and dense weights ``(out_features, in_features)``.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ValueError("weight tensors need at least 2 dimensions")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def he_normal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Kaiming/He normal initialisation (suited to ReLU activations)."""
    fan_in, _ = fan_in_out(shape)
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=tuple(shape))


def xavier_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation (suited to sigmoid/tanh activations)."""
    fan_in, fan_out = fan_in_out(shape)
    limit = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-limit, limit, size=tuple(shape))


def zeros_init(shape: Sequence[int], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(tuple(shape))
