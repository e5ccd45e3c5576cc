"""Channel attention block (CBAM-style).

The CFNN refines the features produced by the depthwise separable convolution
with a channel attention mechanism (paper Section III-D2): global average
pooling and global max pooling produce two compact per-channel descriptors,
both are passed through a small shared two-layer MLP, the results are summed
and squashed with a sigmoid to give per-channel weights, and the feature map is
rescaled by those weights.

The block works for both 2D and 3D feature maps (any number of trailing spatial
dimensions).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import sigmoid
from repro.nn.initializers import xavier_uniform, zeros_init
from repro.nn.module import Module, Parameter

__all__ = ["ChannelAttention"]


class ChannelAttention(Module):
    """CBAM channel attention: ``out = x * sigmoid(MLP(avgpool(x)) + MLP(maxpool(x)))``."""

    def __init__(
        self,
        channels: int,
        reduction: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be positive")
        if reduction < 1:
            raise ValueError("reduction must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.channels = int(channels)
        self.hidden = max(1, int(channels) // int(reduction))
        # shared MLP weights (used by both the average-pool and max-pool branches)
        self.w1 = self.register_parameter("w1", Parameter(xavier_uniform((self.hidden, channels), rng)))
        self.b1 = self.register_parameter("b1", Parameter(zeros_init((self.hidden,))))
        self.w2 = self.register_parameter("w2", Parameter(xavier_uniform((channels, self.hidden), rng)))
        self.b2 = self.register_parameter("b2", Parameter(zeros_init((channels,))))
        self._cache: Optional[Tuple] = None

    # ------------------------------------------------------------------ #
    # shared MLP helpers
    # ------------------------------------------------------------------ #
    def _mlp_forward(self, pooled: np.ndarray) -> Tuple[np.ndarray, Tuple]:
        hidden_pre = pooled @ self.w1.data.T + self.b1.data
        hidden = np.maximum(hidden_pre, 0.0)
        out = hidden @ self.w2.data.T + self.b2.data
        return out, (pooled, hidden_pre, hidden)

    def _mlp_backward(self, grad_out: np.ndarray, cache: Tuple) -> np.ndarray:
        pooled, hidden_pre, hidden = cache
        self.w2.grad += grad_out.T @ hidden
        self.b2.grad += grad_out.sum(axis=0)
        grad_hidden = grad_out @ self.w2.data
        grad_hidden_pre = grad_hidden * (hidden_pre > 0)
        self.w1.grad += grad_hidden_pre.T @ pooled
        self.b1.grad += grad_hidden_pre.sum(axis=0)
        return grad_hidden_pre @ self.w1.data

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.w1.data.dtype)
        if x.ndim < 3:
            raise ValueError("ChannelAttention expects (batch, channels, *spatial) input")
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        batch = x.shape[0]
        spatial_axes = tuple(range(2, x.ndim))
        n_spatial = int(np.prod(x.shape[2:]))

        flat = x.reshape(batch, self.channels, n_spatial)
        avg_pool = flat.mean(axis=2)
        argmax = flat.argmax(axis=2)
        max_pool = np.take_along_axis(flat, argmax[:, :, None], axis=2)[:, :, 0]

        avg_out, avg_cache = self._mlp_forward(avg_pool)
        max_out, max_cache = self._mlp_forward(max_pool)
        attention = sigmoid(avg_out + max_out)  # (batch, channels)

        att_shaped = attention.reshape((batch, self.channels) + (1,) * len(spatial_axes))
        out = x * att_shaped
        self._cache = (x, attention, avg_cache, max_cache, argmax, n_spatial)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, attention, avg_cache, max_cache, argmax, n_spatial = self._cache
        grad_output = np.asarray(grad_output, dtype=x.dtype)
        batch = x.shape[0]
        spatial_ndim = x.ndim - 2

        att_shaped = attention.reshape((batch, self.channels) + (1,) * spatial_ndim)
        grad_x = grad_output * att_shaped

        # gradient w.r.t. the attention weights
        grad_attention = (grad_output * x).reshape(batch, self.channels, n_spatial).sum(axis=2)
        grad_logits = grad_attention * attention * (1.0 - attention)

        # both branches receive the same logit gradient (they were summed)
        grad_avg_pool = self._mlp_backward(grad_logits, avg_cache)
        grad_max_pool = self._mlp_backward(grad_logits, max_cache)

        # distribute the average-pool gradient uniformly over the spatial positions
        grad_x_flat = grad_x.reshape(batch, self.channels, n_spatial)
        grad_x_flat += grad_avg_pool[:, :, None] / n_spatial
        # route the max-pool gradient to the argmax positions
        batch_idx = np.arange(batch)[:, None]
        channel_idx = np.arange(self.channels)[None, :]
        grad_x_flat[batch_idx, channel_idx, argmax] += grad_max_pool
        return grad_x_flat.reshape(x.shape)
