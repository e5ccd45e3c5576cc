"""Gradient-correctness tests for the convolution primitives."""

import numpy as np
import pytest

from repro.nn.functional import (
    conv_backward,
    conv_forward,
    depthwise_conv_backward,
    depthwise_conv_forward,
    sigmoid,
)


def _numeric_grad(func, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = func()
        flat[i] = orig - eps
        minus = func()
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 6, 6))
        weight = np.zeros((1, 1, 3, 3))
        weight[0, 0, 1, 1] = 1.0
        out, _ = conv_forward(x, weight, None, (1, 1))
        assert np.allclose(out, x)

    def test_same_padding_shape(self):
        x = np.zeros((2, 3, 7, 9))
        weight = np.zeros((5, 3, 3, 3))
        out, _ = conv_forward(x, weight, np.zeros(5), (1, 1))
        assert out.shape == (2, 5, 7, 9)

    def test_valid_padding_shape(self):
        x = np.zeros((1, 2, 8, 8))
        weight = np.zeros((4, 2, 3, 3))
        out, _ = conv_forward(x, weight, None, (0, 0))
        assert out.shape == (1, 4, 6, 6)

    def test_3d_shape(self):
        x = np.zeros((1, 2, 5, 6, 7))
        weight = np.zeros((3, 2, 3, 3, 3))
        out, _ = conv_forward(x, weight, None, (1, 1, 1))
        assert out.shape == (1, 3, 5, 6, 7)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ValueError):
            conv_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)), None, (0, 0))


class TestConvBackward:
    def test_gradients_match_finite_differences_2d(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3)) * 0.3
        bias = rng.normal(size=3) * 0.1
        grad_out = rng.normal(size=(2, 3, 5, 5))

        def loss():
            out, _ = conv_forward(x, weight, bias, (1, 1))
            return float(np.sum(out * grad_out))

        out, cache = conv_forward(x, weight, bias, (1, 1))
        grad_x, grad_w, grad_b = conv_backward(grad_out, cache)
        assert np.allclose(grad_x, _numeric_grad(loss, x), atol=1e-5)
        assert np.allclose(grad_w, _numeric_grad(loss, weight), atol=1e-5)
        assert np.allclose(grad_b, _numeric_grad(loss, bias), atol=1e-5)

    def test_gradients_match_finite_differences_3d(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4, 3))
        weight = rng.normal(size=(2, 2, 3, 3, 3)) * 0.2
        grad_out = rng.normal(size=(1, 2, 4, 4, 3))

        def loss():
            out, _ = conv_forward(x, weight, None, (1, 1, 1))
            return float(np.sum(out * grad_out))

        _, cache = conv_forward(x, weight, None, (1, 1, 1))
        grad_x, grad_w, _ = conv_backward(grad_out, cache)
        assert np.allclose(grad_x, _numeric_grad(loss, x), atol=1e-5)
        assert np.allclose(grad_w, _numeric_grad(loss, weight), atol=1e-5)


class TestDepthwiseConv:
    def test_channels_independent(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 6, 6))
        weight = np.zeros((2, 3, 3))
        weight[0, 1, 1] = 1.0  # identity on channel 0
        weight[1] = 0.0        # zero on channel 1
        out, _ = depthwise_conv_forward(x, weight, None, (1, 1))
        assert np.allclose(out[:, 0], x[:, 0])
        assert np.allclose(out[:, 1], 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 5, 5))
        weight = rng.normal(size=(3, 3, 3)) * 0.3
        bias = rng.normal(size=3) * 0.1
        grad_out = rng.normal(size=(2, 3, 5, 5))

        def loss():
            out, _ = depthwise_conv_forward(x, weight, bias, (1, 1))
            return float(np.sum(out * grad_out))

        _, cache = depthwise_conv_forward(x, weight, bias, (1, 1))
        grad_x, grad_w, grad_b = depthwise_conv_backward(grad_out, cache)
        assert np.allclose(grad_x, _numeric_grad(loss, x), atol=1e-5)
        assert np.allclose(grad_w, _numeric_grad(loss, weight), atol=1e-5)
        assert np.allclose(grad_b, _numeric_grad(loss, bias), atol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            depthwise_conv_forward(np.zeros((1, 4, 5, 5)), np.zeros((3, 3, 3)), None, (1, 1))


class TestSigmoid:
    def test_sigmoid_stable(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert np.isclose(s[1], 0.5)
