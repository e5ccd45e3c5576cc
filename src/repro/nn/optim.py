"""The Adam optimizer the CFNN trains with."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam"]

#: Decay rates of the first and second moment estimates (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
#: Added to the second-moment root so a zero gradient divides safely.
EPS = 1e-8


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3) -> None:
        parameters = list(parameters)
        if not parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = parameters
        self.lr = float(lr)
        self._step = 0
        self._m: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for p in self.parameters:
            p.zero_grad()

    def clip_gradients(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm does not exceed ``max_norm``.

        Returns the pre-clipping norm.
        """
        total = 0.0
        for p in self.parameters:
            total += float(np.sum(p.grad**2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.parameters:
                p.grad *= scale
        return norm

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        self._step += 1
        bias1 = 1.0 - BETA1**self._step
        bias2 = 1.0 - BETA2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
