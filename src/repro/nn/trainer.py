"""Mini-batch training loop.

A small, dependency-free trainer that drives a :class:`~repro.nn.module.Module`
through epochs of shuffled mini-batches under MSE loss and Adam, clipping the
global gradient norm before every update, and records the loss history (used
to reproduce the training-loss curves of paper Figure 5), with an optional
validation pass after each epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.loss import MSELoss
from repro.nn.module import Module
from repro.nn.optim import Adam

__all__ = ["TrainingHistory", "Trainer"]

#: Global gradient-norm clip applied before every update.
CLIP_GRAD_NORM = 5.0


@dataclass
class TrainingHistory:
    """Per-epoch record of training (and optionally validation) loss."""

    epochs: List[int] = field(default_factory=list)
    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    def record(self, epoch: int, train: float, val: Optional[float], seconds: float) -> None:
        """Append one epoch's measurements."""
        self.epochs.append(int(epoch))
        self.train_loss.append(float(train))
        if val is not None:
            self.val_loss.append(float(val))
        self.epoch_seconds.append(float(seconds))

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch."""
        if not self.train_loss:
            raise ValueError("history is empty")
        return self.train_loss[-1]


class Trainer:
    """Drives mini-batch gradient training of a model.

    Parameters
    ----------
    model:
        Module mapping an input batch to a prediction batch.
    optimizer:
        :class:`~repro.nn.optim.Adam` constructed over ``model.parameters()``.
    batch_size:
        Mini-batch size.
    rng:
        Random generator controlling shuffling (pass a seeded generator for
        reproducible training).
    """

    def __init__(
        self,
        model: Module,
        optimizer: Adam,
        batch_size: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.optimizer = optimizer
        self.loss = MSELoss()
        self.batch_size = int(batch_size)
        self.rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------ #
    def _iterate_batches(self, n_samples: int):
        indices = np.arange(n_samples)
        self.rng.shuffle(indices)
        for start in range(0, n_samples, self.batch_size):
            yield indices[start : start + self.batch_size]

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Average loss of the model on ``(inputs, targets)`` without updates.

        Batches are drawn shuffled like training batches: the draw advances the
        shared generator, which the next epoch's shuffle depends on.
        """
        total = 0.0
        count = 0
        for batch in self._iterate_batches(inputs.shape[0]):
            prediction = self.model(inputs[batch])
            total += self.loss(prediction, targets[batch]) * batch.size
            count += batch.size
        return total / max(count, 1)

    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int = 10,
        validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs and return the loss history.

        The samples are cast once to the model's parameter dtype, the dtype its
        layers compute in.
        """
        dtype = self.model.parameters()[0].data.dtype
        inputs = np.asarray(inputs, dtype=dtype)
        targets = np.asarray(targets, dtype=dtype)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of samples")
        if epochs < 1:
            raise ValueError("epochs must be positive")
        if validation is not None:
            validation = tuple(np.asarray(part, dtype=dtype) for part in validation)

        history = TrainingHistory()
        for epoch in range(1, epochs + 1):
            start = time.perf_counter()
            epoch_loss = 0.0
            seen = 0
            for batch in self._iterate_batches(inputs.shape[0]):
                x = inputs[batch]
                y = targets[batch]
                self.optimizer.zero_grad()
                prediction = self.model(x)
                batch_loss = self.loss(prediction, y)
                grad = self.loss.backward()
                self.model.backward(grad)
                self.optimizer.clip_gradients(CLIP_GRAD_NORM)
                self.optimizer.step()
                epoch_loss += batch_loss * batch.size
                seen += batch.size
            train_loss = epoch_loss / max(seen, 1)
            val_loss = None
            if validation is not None:
                val_loss = self.evaluate(*validation)
            elapsed = time.perf_counter() - start
            history.record(epoch, train_loss, val_loss, elapsed)
        return history
