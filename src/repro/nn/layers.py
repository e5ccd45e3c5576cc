"""Layers of the NumPy NN substrate.

Exactly the layers of the CFNN (paper Figure 4): convolutions over 2D (NCHW)
and 3D (NCDHW) inputs — initial and output convolution, the depthwise and
pointwise halves of the depthwise separable convolution — and the ReLU between
them.  Every convolution has stride 1, an odd square kernel ``k`` padded by
``k // 2`` on each side (so the output keeps the input's size; a 1x1 kernel
pads nothing) and a bias.  A layer computes in its parameters' dtype (see
:meth:`repro.nn.Module.astype`) and casts its input to it.  The channel
attention block lives in :mod:`repro.nn.attention`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import (
    Workspace,
    conv_backward,
    conv_forward,
    depthwise_conv_backward,
    depthwise_conv_forward,
)
from repro.nn.initializers import he_normal, zeros_init
from repro.nn.module import Module, Parameter, Sequential

__all__ = [
    "ConvNd",
    "Conv2d",
    "Conv3d",
    "DepthwiseConvNd",
    "DepthwiseConv2d",
    "DepthwiseConv3d",
    "PointwiseConv2d",
    "PointwiseConv3d",
    "DepthwiseSeparableConv2d",
    "DepthwiseSeparableConv3d",
    "ReLU",
]


def _same_padding(kernel: Tuple[int, ...]) -> Tuple[int, ...]:
    """Per-axis padding ``k // 2`` that keeps the spatial size of an odd kernel."""
    if any(k % 2 == 0 for k in kernel):
        raise ValueError("kernel sizes must be odd: layers pad k // 2 on each side")
    return tuple(k // 2 for k in kernel)


# --------------------------------------------------------------------------- #
# convolutions
# --------------------------------------------------------------------------- #
class ConvNd(Module):
    """Standard convolution over ``spatial_ndim`` spatial dimensions (stride 1)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        spatial_ndim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if spatial_ndim not in (1, 2, 3):
            raise ValueError("spatial_ndim must be 1, 2 or 3")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.spatial_ndim = spatial_ndim
        self.kernel_size = (int(kernel_size),) * spatial_ndim
        self.padding = _same_padding(self.kernel_size)
        weight_shape = (self.out_channels, self.in_channels) + self.kernel_size
        self.weight = self.register_parameter("weight", Parameter(he_normal(weight_shape, rng)))
        self.bias = self.register_parameter("bias", Parameter(zeros_init((self.out_channels,))))
        self._cache: Optional[Tuple] = None
        self._workspace = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.data.dtype)
        if x.ndim != self.spatial_ndim + 2:
            raise ValueError(
                f"expected a {self.spatial_ndim + 2}D input (batch, channels, *spatial), got {x.ndim}D"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        out, self._cache = conv_forward(
            x, self.weight.data, self.bias.data, self.padding, workspace=self._workspace
        )
        return out

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_input, grad_weight, grad_bias = conv_backward(
            np.asarray(grad_output, dtype=self.weight.data.dtype),
            self._cache,
            need_input_grad=self.needs_input_grad,
        )
        self.weight.grad += grad_weight
        self.bias.grad += grad_bias
        return grad_input


class Conv2d(ConvNd):
    """2D convolution (NCHW)."""

    def __init__(self, in_channels, out_channels, kernel_size, rng=None):
        super().__init__(in_channels, out_channels, kernel_size, 2, rng)


class Conv3d(ConvNd):
    """3D convolution (NCDHW)."""

    def __init__(self, in_channels, out_channels, kernel_size, rng=None):
        super().__init__(in_channels, out_channels, kernel_size, 3, rng)


class DepthwiseConvNd(Module):
    """Depthwise convolution: one filter per channel (groups == channels)."""

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        spatial_ndim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if spatial_ndim not in (1, 2, 3):
            raise ValueError("spatial_ndim must be 1, 2 or 3")
        rng = rng if rng is not None else np.random.default_rng()
        self.channels = int(channels)
        self.spatial_ndim = spatial_ndim
        self.kernel_size = (int(kernel_size),) * spatial_ndim
        self.padding = _same_padding(self.kernel_size)
        weight_shape = (self.channels,) + self.kernel_size
        # treat each depthwise filter as fan_in = prod(kernel)
        init = he_normal((self.channels, 1) + self.kernel_size, rng).reshape(weight_shape)
        self.weight = self.register_parameter("weight", Parameter(init))
        self.bias = self.register_parameter("bias", Parameter(zeros_init((self.channels,))))
        self._cache: Optional[Tuple] = None
        self._workspace = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.data.dtype)
        if x.ndim != self.spatial_ndim + 2:
            raise ValueError(
                f"expected a {self.spatial_ndim + 2}D input (batch, channels, *spatial), got {x.ndim}D"
            )
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        out, self._cache = depthwise_conv_forward(
            x, self.weight.data, self.bias.data, self.padding, workspace=self._workspace
        )
        return out

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_input, grad_weight, grad_bias = depthwise_conv_backward(
            np.asarray(grad_output, dtype=self.weight.data.dtype),
            self._cache,
            need_input_grad=self.needs_input_grad,
        )
        self.weight.grad += grad_weight
        self.bias.grad += grad_bias
        return grad_input


class DepthwiseConv2d(DepthwiseConvNd):
    """2D depthwise convolution."""

    def __init__(self, channels, kernel_size, rng=None):
        super().__init__(channels, kernel_size, 2, rng)


class DepthwiseConv3d(DepthwiseConvNd):
    """3D depthwise convolution."""

    def __init__(self, channels, kernel_size, rng=None):
        super().__init__(channels, kernel_size, 3, rng)


class PointwiseConv2d(Conv2d):
    """1x1 convolution recombining channels (the pointwise half of a separable conv)."""

    def __init__(self, in_channels, out_channels, rng=None):
        super().__init__(in_channels, out_channels, 1, rng=rng)


class PointwiseConv3d(Conv3d):
    """1x1x1 convolution recombining channels."""

    def __init__(self, in_channels, out_channels, rng=None):
        super().__init__(in_channels, out_channels, 1, rng=rng)


class DepthwiseSeparableConv2d(Sequential):
    """Depthwise convolution followed by a pointwise convolution (Xception-style).

    This is the "Depthwise Separable Convolution module" of the CFNN
    architecture (paper Section III-D2): the depthwise convolution processes
    each channel independently to keep the cost low and the pointwise
    convolution recombines channel information.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        super().__init__(
            DepthwiseConv2d(in_channels, kernel_size, rng=rng),
            PointwiseConv2d(in_channels, out_channels, rng=rng),
        )


class DepthwiseSeparableConv3d(Sequential):
    """3D depthwise separable convolution."""

    def __init__(self, in_channels, out_channels, kernel_size=3, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        super().__init__(
            DepthwiseConv3d(in_channels, kernel_size, rng=rng),
            PointwiseConv3d(in_channels, out_channels, rng=rng),
        )


# --------------------------------------------------------------------------- #
# activation
# --------------------------------------------------------------------------- #
class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``np.where(x > 0, x, 0.0)`` bit for bit, without its slow select.

        ``fmax`` maps NaN to ``0.0`` and keeps ``-0.0``; adding ``+0.0``
        turns that ``-0.0`` into ``+0.0`` and changes nothing else.
        """
        x = np.asarray(x)
        self._mask = x > 0
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """``np.where(mask, grad_output, 0.0)`` bit for bit, NaN payloads included.

        Floating gradients keep or clear their bit patterns with an integer
        mask of all-ones or zeros, which avoids the select.
        """
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output)
        if grad.dtype.kind != "f":
            return np.where(self._mask, grad, 0.0)
        bits = np.dtype(f"i{grad.dtype.itemsize}")
        keep = self._mask.astype(bits)
        np.negative(keep, out=keep)
        return np.bitwise_and(grad.view(bits), keep).view(grad.dtype)
