"""Parity harness for the flat-shift convolution kernels.

`repro.nn.functional` computes every convolution on a flattened, zero-padded
grid (stacked shifts + GEMM, blocked along the flat axis).  This suite drives
the four kernels against a direct-summation oracle that lives *here*, not in
``src/``: one explicit loop over kernel offsets on the padded tensor, the
textbook definition.  Hypothesis draws 1-D/2-D/3-D grids (non-cubic, size-1
axes), per-axis kernels from {1, 3, 5}, ``same``/``valid``/explicit padding,
batch sizes and channel counts on both sides of the stack-side switch, and a
block width small enough that every case spans several blocks, and the dtype
(float64, the inference arithmetic, or float32, the training one).  The
kernels compute in their input's dtype: every output and gradient has it, and
against the float64 oracle float64 agrees to ``rtol=1e-10`` and float32 to
``rtol=1e-4`` (``atol=1e-4``; a sum of up to 875 float32 products of unit-scale
values carries a few 1e-6 of rounding).

The finite-difference checks stay in ``tests/test_nn_functional.py``; this
file pins the layer-level contracts the kernels' new keywords carry: the
first-layer path (no ``grad_input``, identical parameter gradients),
workspace reuse across changing batch sizes, and a layer's float64 forward
after float32 training (what ``CFNN.train`` leaves behind) matching a fresh
layer bit for bit.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Conv2d, Conv3d, DepthwiseConv2d, DepthwiseConv3d
from repro.nn.functional import (
    Workspace,
    conv_backward,
    conv_forward,
    depthwise_conv_backward,
    depthwise_conv_forward,
)

COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
#: ``(rtol, atol)`` against the float64 oracle, per compute dtype.
TOLERANCE = {np.dtype(np.float64): (1e-10, 1e-12), np.dtype(np.float32): (1e-4, 1e-4)}
DTYPES = st.sampled_from([np.float64, np.float32])


@contextmanager
def block_width(columns):
    """Run the kernels with :data:`repro.nn.functional.BLOCK` set to ``columns``."""
    previous = F.BLOCK
    F.BLOCK = columns
    try:
        yield
    finally:
        F.BLOCK = previous


# --------------------------------------------------------------------------- #
# the oracle: direct summation over kernel offsets
# --------------------------------------------------------------------------- #
def _windows(x, kernel, padding):
    """Yield ``(offset, padded-grid slices of that tap's window)`` plus geometry."""
    padded = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    out_spatial = tuple(s - k + 1 for s, k in zip(padded.shape[2:], kernel))
    taps = [
        (offset, (slice(None), slice(None)) + tuple(slice(o, o + s) for o, s in zip(offset, out_spatial)))
        for offset in np.ndindex(*kernel)
    ]
    return padded, out_spatial, taps


def _unpad(grad_padded, padding, spatial):
    return grad_padded[
        (slice(None), slice(None)) + tuple(slice(p, p + s) for p, s in zip(padding, spatial))
    ]


def oracle_conv(x, weight, bias, padding, grad_out=None):
    """``out`` (and, given ``grad_out``, the three gradients) of a standard convolution."""
    padded, out_spatial, taps = _windows(x, weight.shape[2:], padding)
    batch, cout = x.shape[0], weight.shape[0]
    out = np.zeros((batch, cout, int(np.prod(out_spatial))))  # spatial axes flattened to "s"
    for offset, window in taps:
        tap = weight[(slice(None), slice(None)) + offset]  # (Cout, Cin)
        out += np.einsum("ncs,oc->nos", padded[window].reshape(batch, x.shape[1], -1), tap)
    if bias is not None:
        out += bias[None, :, None]
    out = out.reshape((batch, cout) + out_spatial)
    if grad_out is None:
        return out
    flat_grad = grad_out.reshape(batch, cout, -1)
    grad_weight = np.zeros_like(weight)
    grad_padded = np.zeros_like(padded)
    for offset, window in taps:
        tap = weight[(slice(None), slice(None)) + offset]
        grad_weight[(slice(None), slice(None)) + offset] = np.einsum(
            "ncs,nos->oc", padded[window].reshape(batch, x.shape[1], -1), flat_grad
        )
        grad_padded[window] += np.einsum("nos,oc->ncs", flat_grad, tap).reshape(
            padded[window].shape
        )
    grad_bias = flat_grad.sum(axis=(0, 2))
    return out, _unpad(grad_padded, padding, x.shape[2:]), grad_weight, grad_bias


def oracle_depthwise(x, weight, bias, padding, grad_out=None):
    """The same for a depthwise convolution (``weight`` is (C, *K))."""
    padded, out_spatial, taps = _windows(x, weight.shape[1:], padding)
    lift = (None, slice(None)) + (None,) * len(out_spatial)
    out = np.zeros((x.shape[0], x.shape[1]) + out_spatial)
    for offset, window in taps:
        out += padded[window] * weight[(slice(None),) + offset][lift]
    if bias is not None:
        out += bias[lift]
    if grad_out is None:
        return out
    grad_weight = np.zeros_like(weight)
    grad_padded = np.zeros_like(padded)
    reduce_axes = (0,) + tuple(range(2, grad_out.ndim))
    for offset, window in taps:
        grad_weight[(slice(None),) + offset] = (padded[window] * grad_out).sum(axis=reduce_axes)
        grad_padded[window] += grad_out * weight[(slice(None),) + offset][lift]
    return out, _unpad(grad_padded, padding, x.shape[2:]), grad_weight, grad_out.sum(axis=reduce_axes)


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def geometries(draw):
    """``(batch, spatial, kernel, padding)`` with ``spatial + 2 * padding >= kernel``."""
    ndim = draw(st.integers(1, 3))
    largest = {1: 40, 2: 11, 3: 6}[ndim]
    kernel = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(ndim))
    mode = draw(st.sampled_from(["same", "valid", "explicit"]))
    if mode == "same":
        padding = tuple(k // 2 for k in kernel)
    elif mode == "valid":
        padding = (0,) * ndim
    else:
        padding = tuple(draw(st.integers(0, 3)) for _ in range(ndim))
    spatial = tuple(
        draw(st.integers(max(1, k - 2 * p), largest)) for k, p in zip(kernel, padding)
    )
    return draw(st.integers(1, 3)), spatial, kernel, padding


def _tensors(seed, *shapes, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape).astype(dtype) for shape in shapes]


def _assert_close(actual, expected, what, dtype=np.float64):
    """``actual`` (computed in ``dtype``) matches the float64 oracle's ``expected``."""
    assert actual.shape == expected.shape, what
    assert actual.dtype == dtype, f"{what} is {actual.dtype}, computed in {np.dtype(dtype)}"
    rtol, atol = TOLERANCE[np.dtype(dtype)]
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol, err_msg=what)


def _widen(*arrays):
    """The oracle's float64 copies of the kernels' (possibly float32) operands."""
    return [None if a is None else a.astype(np.float64) for a in arrays]


# --------------------------------------------------------------------------- #
# kernels against the oracle
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(
    geometry=geometries(),
    cin=st.integers(1, 7),
    cout=st.integers(1, 7),
    with_bias=st.booleans(),
    block=st.sampled_from([64, 128, F.BLOCK]),
    dtype=DTYPES,
    seed=st.integers(0, 2**16),
)
def test_conv_matches_direct_summation(geometry, cin, cout, with_bias, block, dtype, seed):
    batch, spatial, kernel, padding = geometry
    x, weight, bias = _tensors(
        seed, (batch, cin) + spatial, (cout, cin) + kernel, (cout,), dtype=dtype
    )
    bias = bias if with_bias else None
    with block_width(block):
        out, cache = conv_forward(x, weight, bias, padding)
        (grad_out,) = _tensors(seed + 1, out.shape, dtype=dtype)
        grad_input, grad_weight, grad_bias = conv_backward(grad_out, cache)
    expected = oracle_conv(*_widen(x, weight, bias), padding, *_widen(grad_out))
    for actual, reference, what in zip(
        (out, grad_input, grad_weight, grad_bias),
        expected,
        ("output", "grad_input", "grad_weight", "grad_bias"),
    ):
        _assert_close(actual, reference, what, dtype)
    assert out.flags.c_contiguous and grad_input.flags.c_contiguous


@COMMON_SETTINGS
@given(
    geometry=geometries(),
    channels=st.integers(1, 6),
    with_bias=st.booleans(),
    block=st.sampled_from([64, 128, F.BLOCK]),
    dtype=DTYPES,
    seed=st.integers(0, 2**16),
)
def test_depthwise_matches_direct_summation(geometry, channels, with_bias, block, dtype, seed):
    batch, spatial, kernel, padding = geometry
    x, weight, bias = _tensors(
        seed, (batch, channels) + spatial, (channels,) + kernel, (channels,), dtype=dtype
    )
    bias = bias if with_bias else None
    with block_width(block):
        out, cache = depthwise_conv_forward(x, weight, bias, padding)
        (grad_out,) = _tensors(seed + 1, out.shape, dtype=dtype)
        grad_input, grad_weight, grad_bias = depthwise_conv_backward(grad_out, cache)
    expected = oracle_depthwise(*_widen(x, weight, bias), padding, *_widen(grad_out))
    for actual, reference, what in zip(
        (out, grad_input, grad_weight, grad_bias),
        expected,
        ("output", "grad_input", "grad_weight", "grad_bias"),
    ):
        _assert_close(actual, reference, what, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "cin, cout, gemm_first",
    [(16, 3, True), (9, 8, False), (6, 8, False), (3, 16, False), (8, 4, True)],
    ids=["16->3", "9->8", "6->8", "3->16", "8->4"],
)
def test_both_stack_sides_on_cfnn_shapes(cin, cout, gemm_first, dtype):
    """The CFNN's own layer shapes, on both sides of the stack-side switch,
    over enough columns that the default block width splits them."""
    assert F._gemm_first(cout, cin, 27) is gemm_first
    x, weight, bias = _tensors(
        cin * 100 + cout, (2, cin, 12, 13, 14), (cout, cin, 3, 3, 3), (cout,), dtype=dtype
    )
    out, cache = conv_forward(x, weight, bias, (1, 1, 1))
    (grad_out,) = _tensors(5, out.shape, dtype=dtype)
    actual = (out,) + conv_backward(grad_out, cache)
    expected = oracle_conv(*_widen(x, weight, bias), (1, 1, 1), *_widen(grad_out))
    for got, reference in zip(actual, expected):
        _assert_close(got, reference, f"{cin}->{cout}", dtype)


def test_depthwise_result_does_not_depend_on_the_block_width():
    """Depthwise sums its taps with plain ufuncs in a fixed order: bit-identical
    whatever the block width (the BLAS-backed kernels only promise 1e-10)."""
    x, weight = _tensors(11, (2, 5, 9, 10, 11), (5, 3, 3, 3))
    outputs = []
    for block in (64, 192, F.BLOCK):
        with block_width(block):
            out, cache = depthwise_conv_forward(x, weight, None, (1, 1, 1))
            outputs.append((out, depthwise_conv_backward(np.ones_like(out), cache)[0]))
    for out, grad_input in outputs[1:]:
        assert np.array_equal(out, outputs[0][0])
        assert np.array_equal(grad_input, outputs[0][1])


# --------------------------------------------------------------------------- #
# the first-layer path: no grad_input, identical parameter gradients
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(geometry=geometries(), cin=st.integers(1, 7), cout=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_skipping_grad_input_leaves_parameter_gradients_untouched(geometry, cin, cout, seed):
    batch, spatial, kernel, padding = geometry
    x, weight, bias = _tensors(seed, (batch, cin) + spatial, (cout, cin) + kernel, (cout,))
    with block_width(64):
        out, cache = conv_forward(x, weight, bias, padding)
        (grad_out,) = _tensors(seed + 1, out.shape)
        _, grad_weight, grad_bias = conv_backward(grad_out, cache)
        skipped = conv_backward(grad_out, cache, need_input_grad=False)
    assert skipped[0] is None
    assert np.array_equal(skipped[1], grad_weight) and np.array_equal(skipped[2], grad_bias)

    x, weight = _tensors(seed, (batch, cin) + spatial, (cin,) + kernel)
    out, cache = depthwise_conv_forward(x, weight, None, padding)
    (grad_out,) = _tensors(seed + 1, out.shape)
    _, grad_weight, grad_bias = depthwise_conv_backward(grad_out, cache)
    skipped = depthwise_conv_backward(grad_out, cache, need_input_grad=False)
    assert skipped[0] is None
    assert np.array_equal(skipped[1], grad_weight) and np.array_equal(skipped[2], grad_bias)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: Conv2d(5, 4, 3, rng=rng),
        lambda rng: Conv3d(9, 8, 3, rng=rng),
        lambda rng: DepthwiseConv2d(4, 3, rng=rng),
        lambda rng: DepthwiseConv3d(3, 3, rng=rng),
    ],
    ids=["Conv2d", "Conv3d", "DepthwiseConv2d", "DepthwiseConv3d"],
)
def test_first_layer_returns_no_grad_input_and_the_same_parameter_gradients(make):
    full, first = make(np.random.default_rng(3)), make(np.random.default_rng(3))
    first.needs_input_grad = False
    channels = getattr(full, "in_channels", None) or full.channels
    (x,) = _tensors(4, (3, channels) + (7,) * full.spatial_ndim)
    out = full(x)
    assert np.array_equal(first(x), out)
    (grad_out,) = _tensors(5, out.shape)
    assert full.backward(grad_out) is not None
    assert first.backward(grad_out) is None
    for name, param in full.named_parameters():
        twin = dict(first.named_parameters())[name]
        assert np.array_equal(param.grad, twin.grad), name


# --------------------------------------------------------------------------- #
# workspace reuse across changing batch sizes (training 8, validation 5, 8 ...)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("depthwise", [False, True], ids=["conv", "depthwise"])
def test_reused_workspace_stays_correct_when_the_batch_size_changes(depthwise):
    workspace = Workspace()
    channels = 6
    weight_shape = (channels, 3, 3, 3) if depthwise else (4, channels, 3, 3, 3)
    forward, backward, oracle = (
        (depthwise_conv_forward, depthwise_conv_backward, oracle_depthwise)
        if depthwise
        else (conv_forward, conv_backward, oracle_conv)
    )
    weight, bias = _tensors(1, weight_shape, (weight_shape[0],))
    for step, batch in enumerate((8, 5, 8, 3, 8)):
        (x,) = _tensors(10 + step, (batch, channels, 6, 7, 5))
        out, cache = forward(x, weight, bias, (1, 1, 1), workspace=workspace)
        (grad_out,) = _tensors(20 + step, out.shape)
        actual = (out,) + backward(grad_out, cache)
        for got, reference in zip(actual, oracle(x, weight, bias, (1, 1, 1), grad_out)):
            _assert_close(got, reference, f"batch {batch} at step {step}")
        # and bit-identical to a call that owns fresh buffers
        fresh_out, fresh_cache = forward(x, weight, bias, (1, 1, 1))
        assert np.array_equal(out, fresh_out)
        for got, reference in zip(actual[1:], backward(grad_out, fresh_cache)):
            assert np.array_equal(got, reference)


def test_layer_reuses_its_buffers_and_outputs_stay_independent():
    layer = Conv3d(4, 3, 3, rng=np.random.default_rng(0))
    x8, x5 = _tensors(2, (8, 4, 6, 6, 6), (5, 4, 6, 6, 6))
    first = layer(x8)
    buffers = {role: buffer for role, buffer in layer._workspace._buffers.items()}
    kept = first.copy()
    layer(x5)
    again = layer(x8)
    assert np.array_equal(first, kept), "an earlier output was overwritten by a later call"
    assert np.array_equal(again, kept)
    for role, buffer in layer._workspace._buffers.items():
        assert buffer is buffers[role], f"{role} buffer was reallocated for a smaller batch"


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: Conv3d(9, 8, 3, rng=rng),
        lambda rng: Conv3d(16, 3, 3, rng=rng),
        lambda rng: DepthwiseConv3d(8, 3, rng=rng),
    ],
    ids=["Conv3d-stack-first", "Conv3d-gemm-first", "DepthwiseConv3d"],
)
def test_float64_forward_after_float32_training_matches_a_fresh_layer(make):
    """A float32 forward/backward leaves float32 buffers in the layer's
    workspace; the float64 forward after it must not reuse them."""
    layer = make(np.random.default_rng(6)).astype(np.float32)
    channels = getattr(layer, "in_channels", None) or layer.channels
    (x,) = _tensors(7, (8, channels, 6, 7, 5))
    out = layer(x)
    assert out.dtype == np.float32
    (grad_out,) = _tensors(8, out.shape)
    assert layer.backward(grad_out).dtype == np.float32
    assert all(param.grad.dtype == np.float32 for param in layer.parameters())

    layer.astype(np.float64)
    fresh = make(np.random.default_rng(0))
    fresh.load_state_dict(layer.state_dict())
    out = layer(x)
    assert out.dtype == np.float64
    assert np.array_equal(out, fresh(x))
    assert np.array_equal(layer.backward(grad_out), fresh.backward(grad_out))
    for (name, param), twin in zip(layer.named_parameters(), fresh.parameters()):
        assert np.array_equal(param.grad, twin.grad), name


def test_kernels_reject_what_they_always_rejected():
    with pytest.raises(ValueError):
        conv_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)), None, (0, 0))
    with pytest.raises(ValueError):
        depthwise_conv_forward(np.zeros((1, 4, 5, 5)), np.zeros((3, 3, 3)), None, (1, 1))
