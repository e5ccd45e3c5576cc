"""Pure-NumPy neural network substrate.

PyTorch is not available in the offline reproduction environment, so the CFNN
is built on this small, self-contained NN library holding exactly what the
CFNN runs: 2D and 3D convolutions as flat-shift GEMM kernels,
depthwise-separable convolutions, ReLU, a CBAM-style channel attention block,
MSE loss, the Adam optimizer, a mini-batch trainer, and parameter
(de)serialisation used for the model-size accounting of paper Table III.

Layout convention: ``(batch, channels, *spatial)`` — NCHW for 2D data and
NCDHW for 3D data.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    Conv2d,
    Conv3d,
    DepthwiseConv2d,
    DepthwiseConv3d,
    PointwiseConv2d,
    PointwiseConv3d,
    DepthwiseSeparableConv2d,
    DepthwiseSeparableConv3d,
    ReLU,
)
from repro.nn.attention import ChannelAttention
from repro.nn.loss import MSELoss
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer, TrainingHistory
from repro.nn.serialization import state_to_bytes, state_from_bytes, count_parameters
from repro.nn.initializers import he_normal, xavier_uniform, zeros_init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Conv3d",
    "DepthwiseConv2d",
    "DepthwiseConv3d",
    "PointwiseConv2d",
    "PointwiseConv3d",
    "DepthwiseSeparableConv2d",
    "DepthwiseSeparableConv3d",
    "ReLU",
    "ChannelAttention",
    "MSELoss",
    "Adam",
    "Trainer",
    "TrainingHistory",
    "state_to_bytes",
    "state_from_bytes",
    "count_parameters",
    "he_normal",
    "xavier_uniform",
    "zeros_init",
]
