"""Layers of the NumPy NN substrate.

Convolution layers support 2D (NCHW) and 3D (NCDHW) inputs with stride 1 and
"same" or explicit symmetric zero padding — exactly what the CFNN architecture
of paper Figure 4 needs (initial convolution, depthwise separable convolution,
output convolution), plus the dense layers used inside the channel attention
block and the hybrid prediction model.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.functional import (
    Workspace,
    conv_backward,
    conv_forward,
    depthwise_conv_backward,
    depthwise_conv_forward,
    sigmoid,
)
from repro.nn.initializers import he_normal, xavier_uniform, zeros_init
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
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
]


def _resolve_kernel(kernel_size: Union[int, Sequence[int]], spatial_ndim: int) -> Tuple[int, ...]:
    if np.isscalar(kernel_size):
        return (int(kernel_size),) * spatial_ndim
    kernel = tuple(int(k) for k in kernel_size)
    if len(kernel) != spatial_ndim:
        raise ValueError(f"kernel_size must have {spatial_ndim} entries, got {kernel}")
    return kernel


def _resolve_padding(
    padding: Union[str, int, Sequence[int]], kernel: Tuple[int, ...]
) -> Tuple[int, ...]:
    if padding == "same":
        if any(k % 2 == 0 for k in kernel):
            raise ValueError("'same' padding requires odd kernel sizes")
        return tuple(k // 2 for k in kernel)
    if padding == "valid":
        return tuple(0 for _ in kernel)
    if np.isscalar(padding):
        return (int(padding),) * len(kernel)
    pad = tuple(int(p) for p in padding)
    if len(pad) != len(kernel):
        raise ValueError("padding must provide one value per spatial dimension")
    return pad


# --------------------------------------------------------------------------- #
# convolutions
# --------------------------------------------------------------------------- #
class ConvNd(Module):
    """Standard convolution over ``spatial_ndim`` spatial dimensions (stride 1)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Sequence[int]],
        spatial_ndim: int,
        padding: Union[str, int, Sequence[int]] = "same",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if spatial_ndim not in (1, 2, 3):
            raise ValueError("spatial_ndim must be 1, 2 or 3")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.spatial_ndim = spatial_ndim
        self.kernel_size = _resolve_kernel(kernel_size, spatial_ndim)
        self.padding = _resolve_padding(padding, self.kernel_size)
        weight_shape = (self.out_channels, self.in_channels) + self.kernel_size
        self.weight = self.register_parameter("weight", Parameter(he_normal(weight_shape, rng)))
        self.bias = (
            self.register_parameter("bias", Parameter(zeros_init((self.out_channels,))))
            if bias
            else None
        )
        self._cache: Optional[Tuple] = None
        self._workspace = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.spatial_ndim + 2:
            raise ValueError(
                f"expected a {self.spatial_ndim + 2}D input (batch, channels, *spatial), got {x.ndim}D"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        out, self._cache = conv_forward(
            x,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.padding,
            workspace=self._workspace,
        )
        return out

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_input, grad_weight, grad_bias = conv_backward(
            np.asarray(grad_output, dtype=np.float64),
            self._cache,
            need_input_grad=self.needs_input_grad,
        )
        self.weight.grad += grad_weight
        if self.bias is not None:
            self.bias.grad += grad_bias
        return grad_input


class Conv2d(ConvNd):
    """2D convolution (NCHW)."""

    def __init__(self, in_channels, out_channels, kernel_size, padding="same", bias=True, rng=None):
        super().__init__(in_channels, out_channels, kernel_size, 2, padding, bias, rng)


class Conv3d(ConvNd):
    """3D convolution (NCDHW)."""

    def __init__(self, in_channels, out_channels, kernel_size, padding="same", bias=True, rng=None):
        super().__init__(in_channels, out_channels, kernel_size, 3, padding, bias, rng)


class DepthwiseConvNd(Module):
    """Depthwise convolution: one filter per channel (groups == channels)."""

    def __init__(
        self,
        channels: int,
        kernel_size: Union[int, Sequence[int]],
        spatial_ndim: int,
        padding: Union[str, int, Sequence[int]] = "same",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if spatial_ndim not in (1, 2, 3):
            raise ValueError("spatial_ndim must be 1, 2 or 3")
        rng = rng if rng is not None else np.random.default_rng()
        self.channels = int(channels)
        self.spatial_ndim = spatial_ndim
        self.kernel_size = _resolve_kernel(kernel_size, spatial_ndim)
        self.padding = _resolve_padding(padding, self.kernel_size)
        weight_shape = (self.channels,) + self.kernel_size
        # treat each depthwise filter as fan_in = prod(kernel)
        init = he_normal((self.channels, 1) + self.kernel_size, rng).reshape(weight_shape)
        self.weight = self.register_parameter("weight", Parameter(init))
        self.bias = (
            self.register_parameter("bias", Parameter(zeros_init((self.channels,))))
            if bias
            else None
        )
        self._cache: Optional[Tuple] = None
        self._workspace = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.spatial_ndim + 2:
            raise ValueError(
                f"expected a {self.spatial_ndim + 2}D input (batch, channels, *spatial), got {x.ndim}D"
            )
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        out, self._cache = depthwise_conv_forward(
            x,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.padding,
            workspace=self._workspace,
        )
        return out

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_input, grad_weight, grad_bias = depthwise_conv_backward(
            np.asarray(grad_output, dtype=np.float64),
            self._cache,
            need_input_grad=self.needs_input_grad,
        )
        self.weight.grad += grad_weight
        if self.bias is not None:
            self.bias.grad += grad_bias
        return grad_input


class DepthwiseConv2d(DepthwiseConvNd):
    """2D depthwise convolution."""

    def __init__(self, channels, kernel_size, padding="same", bias=True, rng=None):
        super().__init__(channels, kernel_size, 2, padding, bias, rng)


class DepthwiseConv3d(DepthwiseConvNd):
    """3D depthwise convolution."""

    def __init__(self, channels, kernel_size, padding="same", bias=True, rng=None):
        super().__init__(channels, kernel_size, 3, padding, bias, rng)


class PointwiseConv2d(Conv2d):
    """1x1 convolution recombining channels (the pointwise half of a separable conv)."""

    def __init__(self, in_channels, out_channels, bias=True, rng=None):
        super().__init__(in_channels, out_channels, 1, padding="valid", bias=bias, rng=rng)


class PointwiseConv3d(Conv3d):
    """1x1x1 convolution recombining channels."""

    def __init__(self, in_channels, out_channels, bias=True, rng=None):
        super().__init__(in_channels, out_channels, 1, padding="valid", bias=bias, rng=rng)


class DepthwiseSeparableConv2d(Sequential):
    """Depthwise convolution followed by a pointwise convolution (Xception-style).

    This is the "Depthwise Separable Convolution module" of the CFNN
    architecture (paper Section III-D2): the depthwise convolution processes
    each channel independently to keep the cost low and the pointwise
    convolution recombines channel information.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, padding="same", rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        super().__init__(
            DepthwiseConv2d(in_channels, kernel_size, padding=padding, rng=rng),
            PointwiseConv2d(in_channels, out_channels, rng=rng),
        )


class DepthwiseSeparableConv3d(Sequential):
    """3D depthwise separable convolution."""

    def __init__(self, in_channels, out_channels, kernel_size=3, padding="same", rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        super().__init__(
            DepthwiseConv3d(in_channels, kernel_size, padding=padding, rng=rng),
            PointwiseConv3d(in_channels, out_channels, rng=rng),
        )


# --------------------------------------------------------------------------- #
# dense layer
# --------------------------------------------------------------------------- #
class Linear(Module):
    """Fully connected layer: ``y = x @ W.T + b`` on ``(batch, features)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = self.register_parameter(
            "weight", Parameter(xavier_uniform((out_features, in_features), rng))
        )
        self.bias = (
            self.register_parameter("bias", Parameter(zeros_init((out_features,))))
            if bias
            else None
        )
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += grad_output.T @ self._input
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data


# --------------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------------- #
class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, np.asarray(grad_output, dtype=np.float64), 0.0)


class LeakyReLU(Module):
    """Leaky rectified linear unit."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = sigmoid(np.asarray(x, dtype=np.float64))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=np.float64) * self._output * (1.0 - self._output)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(x, dtype=np.float64))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=np.float64) * (1.0 - self._output**2)


class Identity(Module):
    """Pass-through layer (useful as a placeholder in configurable models)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64)
