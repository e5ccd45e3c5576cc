"""Unit tests for NN layers (shapes, gradients, parameter registration)."""

import numpy as np
import pytest

from repro.core.cfnn import CFNNConfig, build_cfnn_network
from repro.nn import (
    ChannelAttention,
    Conv2d,
    Conv3d,
    DepthwiseConv2d,
    DepthwiseConv3d,
    DepthwiseSeparableConv2d,
    DepthwiseSeparableConv3d,
    MSELoss,
    PointwiseConv2d,
    PointwiseConv3d,
    ReLU,
    Sequential,
)


def _check_model_gradients(model, x, atol=1e-4, n_checks=4, param_checks=2, seed=0):
    """Compare analytic parameter/input gradients against finite differences.

    ``param_checks`` entries of every parameter are probed (``None``: all of
    them).  Returns the input gradient, which is only checked when the model
    computes one.
    """
    rng = np.random.default_rng(seed)
    loss = MSELoss()
    target = np.zeros_like(model(x))

    model.zero_grad()
    prediction = model(x)
    loss(prediction, target)
    grad_input = model.backward(loss.backward())
    if grad_input is None:
        n_checks = 0

    # input gradient
    flat = x.ravel()
    for idx in rng.choice(flat.size, size=min(n_checks, flat.size), replace=False):
        orig = flat[idx]
        eps = 1e-5
        flat[idx] = orig + eps
        plus = loss(model(x), target)
        flat[idx] = orig - eps
        minus = loss(model(x), target)
        flat[idx] = orig
        numeric = (plus - minus) / (2 * eps)
        assert np.isclose(numeric, grad_input.ravel()[idx], atol=atol), "input gradient mismatch"

    # parameter gradients
    model.zero_grad()
    loss(model(x), target)
    model.backward(loss.backward())
    for param in model.parameters():
        flat_p = param.data.ravel()
        count = flat_p.size if param_checks is None else min(param_checks, flat_p.size)
        for idx in rng.choice(flat_p.size, size=count, replace=False):
            orig = flat_p[idx]
            eps = 1e-5
            flat_p[idx] = orig + eps
            plus = loss(model(x), target)
            flat_p[idx] = orig - eps
            minus = loss(model(x), target)
            flat_p[idx] = orig
            numeric = (plus - minus) / (2 * eps)
            assert np.isclose(numeric, param.grad.ravel()[idx], atol=atol), f"param {param.name} gradient mismatch"
    return grad_input


class TestConvLayers:
    def test_conv2d_shape_and_params(self):
        rng = np.random.default_rng(0)
        layer = Conv2d(3, 8, 3, rng=rng)
        out = layer(rng.normal(size=(2, 3, 10, 12)))
        assert out.shape == (2, 8, 10, 12)
        assert layer.num_parameters() == 3 * 8 * 9 + 8

    def test_conv3d_shape(self):
        rng = np.random.default_rng(1)
        layer = Conv3d(2, 4, 3, rng=rng)
        out = layer(rng.normal(size=(1, 2, 5, 6, 7)))
        assert out.shape == (1, 4, 5, 6, 7)

    def test_conv2d_gradients(self):
        rng = np.random.default_rng(2)
        model = Sequential(Conv2d(2, 4, 3, rng=rng), ReLU(), Conv2d(4, 1, 3, rng=rng))
        _check_model_gradients(model, rng.normal(size=(2, 2, 6, 6)))

    def test_depthwise_separable_2d_gradients(self):
        rng = np.random.default_rng(3)
        model = DepthwiseSeparableConv2d(3, 5, rng=rng)
        _check_model_gradients(model, rng.normal(size=(2, 3, 6, 6)))

    def test_depthwise_separable_3d_shape(self):
        rng = np.random.default_rng(4)
        model = DepthwiseSeparableConv3d(2, 6, rng=rng)
        out = model(rng.normal(size=(1, 2, 4, 5, 6)))
        assert out.shape == (1, 6, 4, 5, 6)

    def test_pointwise_has_1x1_kernel(self):
        layer = PointwiseConv2d(4, 8)
        assert layer.weight.shape == (8, 4, 1, 1)

    def test_channel_mismatch_raises(self):
        layer = Conv2d(3, 4, 3)
        with pytest.raises(ValueError):
            layer(np.zeros((1, 5, 8, 8)))

    def test_wrong_rank_raises(self):
        layer = Conv2d(3, 4, 3)
        with pytest.raises(ValueError):
            layer(np.zeros((3, 8, 8)))

    def test_even_kernel_same_padding_rejected(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 4)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Conv3d(1, 1, 2),
            lambda: DepthwiseConv2d(2, 4),
            lambda: DepthwiseConv3d(2, 2),
            lambda: DepthwiseSeparableConv2d(2, 3, kernel_size=4),
            lambda: DepthwiseSeparableConv3d(2, 3, kernel_size=2),
        ],
        ids=["Conv3d", "DepthwiseConv2d", "DepthwiseConv3d", "Separable2d", "Separable3d"],
    )
    def test_every_layer_rejects_even_kernels(self, make):
        with pytest.raises(ValueError, match="odd"):
            make()

    @pytest.mark.parametrize(
        "layer_cls, shape", [(PointwiseConv2d, (2, 3, 5, 4)), (PointwiseConv3d, (1, 3, 3, 4, 2))],
        ids=["2d", "3d"],
    )
    def test_pointwise_pads_nothing_and_adds_its_bias(self, layer_cls, shape):
        rng = np.random.default_rng(5)
        layer = layer_cls(3, 2, rng=rng)
        assert layer.padding == (0,) * (len(shape) - 2)
        layer.bias.data[:] = [1.5, -2.0]
        x = rng.normal(size=shape)
        expected = np.einsum("oc,nc...->no...", layer.weight.data.reshape(2, 3), x)
        expected += layer.bias.data.reshape((1, 2) + (1,) * (len(shape) - 2))
        assert np.allclose(layer(x), expected)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Conv2d(1, 1, 3).backward(np.zeros((1, 1, 4, 4)))

    def test_depthwise_params(self):
        layer = DepthwiseConv2d(6, 3)
        assert layer.weight.shape == (6, 3, 3)


class TestCFNNGradients:
    """Finite differences through the whole composed CFNN stack."""

    @pytest.mark.parametrize(
        "ndim, shape", [(2, (2, 2, 6, 6)), (3, (1, 3, 4, 4, 4))], ids=["2d", "3d"]
    )
    def test_every_parameter_gradient(self, ndim, shape):
        config = CFNNConfig(
            n_anchors=1, ndim=ndim, hidden_channels=2, expanded_channels=4, attention_reduction=2
        )
        model = build_cfnn_network(config, rng=np.random.default_rng(ndim))
        layers = [model[0], model[2][0], model[2][1], model[4], model[5]]
        assert [type(layer).__name__ for layer in layers] == [
            f"Conv{ndim}d", f"DepthwiseConv{ndim}d", f"PointwiseConv{ndim}d",
            "ChannelAttention", f"Conv{ndim}d",
        ]
        assert sum(len(layer.parameters()) for layer in layers) == len(model.parameters())
        x = np.random.default_rng(10 + ndim).normal(size=shape)
        # the first layer is fed data, so nobody consumes its input gradient
        assert _check_model_gradients(model, x, param_checks=None) is None


class TestSequential:
    def test_sequential_indexing(self):
        model = Sequential(ReLU(), ChannelAttention(4))
        assert len(model) == 2
        assert isinstance(model[0], ReLU)

    def test_sequential_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential(lambda x: x)


class TestReLUBits:
    """``ReLU`` keeps ``np.where``'s bits in both directions, special values included."""

    @staticmethod
    def _seeded(dtype, seed):
        info = np.finfo(dtype)
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.tiny / 4, -info.tiny / 4,
                    info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0]
        x = np.random.default_rng(seed).normal(size=(4, 3, 5, 6, 7)).astype(dtype)
        flat = x.reshape(-1)
        flat[: len(specials)] = specials
        flat[-len(specials):] = specials[::-1]
        # a NaN with a non-default payload must pass through backward unchanged
        flat[len(specials)] = np.frombuffer(
            np.array([-1], dtype=f"i{np.dtype(dtype).itemsize}").tobytes(), dtype=dtype
        )[0]
        return x

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_match_np_where_bitwise(self, dtype):
        x = self._seeded(dtype, 0)
        grad = self._seeded(dtype, 1)[:, :, ::-1]  # a non-contiguous gradient too
        layer = ReLU()
        assert self._same_bits(layer.forward(x), np.where(x > 0, x, 0.0))
        assert self._same_bits(layer.backward(grad), np.where(x > 0, grad, 0.0))

    def test_backward_of_integer_gradient_follows_np_where(self):
        x = np.array([-1.0, 2.0, 0.0, 3.0])
        layer = ReLU()
        layer.forward(x)
        grad = np.array([5, 6, 7, 8])
        assert self._same_bits(layer.backward(grad), np.where(x > 0, grad, 0.0))
