"""Unit tests for Module/Parameter plumbing, the MSE loss and the Adam optimizer."""

import numpy as np
import pytest

from repro.nn import Adam, Conv2d, MSELoss, PointwiseConv2d, ReLU, Sequential
from repro.nn.module import Module, Parameter


class TestParameterAndModule:
    def test_parameter_zero_grad(self):
        p = Parameter(np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_named_parameters_nested(self):
        model = Sequential(Conv2d(3, 4, 3), ReLU(), PointwiseConv2d(4, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names and "layer2.bias" in names

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(0)
        model_a = Sequential(Conv2d(3, 4, 3, rng=rng), PointwiseConv2d(4, 2, rng=rng))
        model_b = Sequential(
            Conv2d(3, 4, 3, rng=np.random.default_rng(9)),
            PointwiseConv2d(4, 2, rng=np.random.default_rng(10)),
        )
        model_b.load_state_dict(model_a.state_dict())
        x = rng.normal(size=(5, 3, 6, 6))
        assert np.allclose(model_a(x), model_b(x))

    def test_load_state_dict_missing_key(self):
        model = Sequential(PointwiseConv2d(2, 2))
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self):
        model = Sequential(PointwiseConv2d(2, 2))
        state = model.state_dict()
        state["layer0.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_num_parameters(self):
        model = Sequential(Conv2d(3, 4, 3), PointwiseConv2d(4, 2))
        assert model.num_parameters() == (3 * 4 * 9 + 4) + (4 * 2 + 2)

    def test_base_module_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(np.zeros(2))


class TestLosses:
    def test_mse_value_and_grad(self):
        loss = MSELoss()
        pred = np.array([1.0, 2.0])
        target = np.array([0.0, 0.0])
        assert np.isclose(loss(pred, target), 2.5)
        assert np.allclose(loss.backward(), [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss()(np.zeros(3), np.zeros(4))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            MSELoss().backward()


class TestAdam:
    def _quadratic_problem(self):
        # minimise ||W x - y||^2 over the weights of a 1x1 convolution with fixed data
        rng = np.random.default_rng(0)
        layer = PointwiseConv2d(4, 3, rng=rng)
        x = rng.normal(size=(16, 4, 1, 1))
        true_w = rng.normal(size=(3, 4))
        y = np.einsum("oc,nchw->nohw", true_w, x)
        return layer, x, y

    def test_adam_converges(self):
        layer, x, y = self._quadratic_problem()
        optimizer = Adam(layer.parameters(), lr=0.05)
        loss = MSELoss()
        initial = loss(layer(x), y)
        for _ in range(200):
            optimizer.zero_grad()
            loss(layer(x), y)
            layer.backward(loss.backward())
            optimizer.step()
        assert loss(layer(x), y) < 0.05 * initial

    def test_steps_follow_the_bias_corrected_update(self):
        layer = PointwiseConv2d(2, 1, rng=np.random.default_rng(1))
        optimizer = Adam(layer.parameters(), lr=0.01)
        start = layer.weight.data.copy()
        grads = [np.array([[[[2.0]], [[-0.5]]]]), np.array([[[[1.0]], [[0.25]]]])]
        m = np.zeros_like(start)
        v = np.zeros_like(start)
        expected = start.copy()
        for step, grad in enumerate(grads, start=1):
            optimizer.zero_grad()
            layer.weight.grad += grad
            optimizer.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            m_hat = m / (1 - 0.9**step)
            v_hat = v / (1 - 0.999**step)
            expected -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(layer.weight.data, expected, rtol=0, atol=1e-15)
            if step == 1:
                # the first step moves every weight by lr against the sign of its gradient
                assert np.allclose(start - layer.weight.data, 0.01 * np.sign(grad), rtol=1e-6)

    def test_gradient_clipping(self):
        layer = PointwiseConv2d(2, 2, rng=np.random.default_rng(2))
        optimizer = Adam(layer.parameters(), lr=0.1)
        for p in layer.parameters():
            p.grad[...] = 100.0
        norm = optimizer.clip_gradients(1.0)
        assert norm > 1.0
        total = np.sqrt(sum(np.sum(p.grad**2) for p in layer.parameters()))
        assert total <= 1.0 + 1e-9

    def test_invalid_arguments(self):
        layer = PointwiseConv2d(2, 2)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam(layer.parameters(), lr=-1)
