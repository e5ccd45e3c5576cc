"""Core tensor operations for the NumPy NN substrate.

Implements N-dimensional (1D-3D) cross-correlation ("convolution" in deep
learning parlance) with stride 1 and symmetric zero padding, plus its backward
pass, as *flat-shift* kernels (kn2row, "GEMM first, then shift-add": Vasudevan,
Anderson, Gregg, arXiv:1704.04428).  The input is copied once into a
zero-padded, channel-major ``(C, N, *padded)`` buffer whose ``(C, N * L)`` view
is what BLAS sees; on that flat axis every kernel offset is one constant 1-D
shift, so the ``K = prod(kernel)`` taps are ``K`` contiguous row slabs instead
of a gathered window matrix.  A tap that runs off a row end reads the start of
the next row: those output positions are computed and then cropped, never
used.  The flat axis is walked in blocks of :data:`BLOCK` columns so the
``K``-fold stack stays cache-sized whatever the field size.

Which side carries the ``K``-fold stack is picked per layer from the channel
counts (see :func:`_gemm_first`); a 1x1 kernel has nothing to stack and is a
single GEMM.  Depthwise (per-channel) convolution uses the same shifts with
per-channel multiplies.  ``docs/architecture.md`` ("CFNN compute path") has
the worked picture.

All functions operate on ``(batch, channels, *spatial)`` arrays and compute in
their input's dtype: the layers hand them inputs cast to their parameters'
dtype, which is float32 while :meth:`repro.core.CFNN.train` runs and float64
for inference (the stored weights are float16, so training precision never
reaches the stream).  Identical calls give identical bits on one build: every
sum over taps runs in ascending tap order whatever the block width, and the
only reductions left to BLAS are the channel sums inside one GEMM call (the
architecture note spells out what that means across BLAS thread counts).
"""

from __future__ import annotations

import functools
import time
from math import prod
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs import recorder as _obs

__all__ = [
    "Workspace",
    "conv_forward",
    "conv_backward",
    "depthwise_conv_forward",
    "depthwise_conv_backward",
    "sigmoid",
]

#: Columns of the flat axis handled per step.  The widest stack of the CFNN
#: (27 taps x 9 channels) is then 8 MB and the common one (27 x 3) 2.6 MB;
#: 3k-8k columns measured within noise of each other, 1k-2k 30-50 % slower.
BLOCK = 4096


class Workspace:
    """Reusable scratch buffers of one layer instance, keyed by role.

    Buffers only grow, so the 8 / 3 / 5-sample batches of a training run share
    one allocation; a call in another dtype (float64 inference after float32
    training) replaces the role's buffer.  A workspace belongs to exactly one
    layer (chunk encodes run concurrently, each on its own model); kernels
    called without one make a throwaway of their own.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, role: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An uninitialised ``dtype`` array of ``shape`` backed by the ``role`` buffer."""
        size = prod(shape)
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[role] = np.empty(size, dtype=dtype)
        return buffer[:size].reshape(shape)


def _check_conv_args(x: np.ndarray, kernel_spatial: Tuple[int, ...], padding: Sequence[int]):
    spatial = x.ndim - 2
    if spatial not in (1, 2, 3):
        raise ValueError(f"convolutions support 1-3 spatial dimensions, got {spatial}")
    if len(kernel_spatial) != spatial:
        raise ValueError("kernel rank does not match input rank")
    if len(padding) != spatial:
        raise ValueError("padding must provide one value per spatial dimension")
    for size, k, p in zip(x.shape[2:], kernel_spatial, padding):
        if size + 2 * p < k:
            raise ValueError(
                f"spatial size {size} with padding {p} is smaller than kernel size {k}"
            )


# --------------------------------------------------------------------------- #
# flat-shift geometry and slab moves
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=256)
def _geometry(
    spatial: Tuple[int, ...], kernel: Tuple[int, ...], padding: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """``(padded shape, output shape, flat shift of every tap)`` of one layer geometry.

    Taps are in ``np.ndindex(*kernel)`` order, which is also ascending shift
    order.  The result is immutable, so it is the one thing layers share.
    """
    padded = tuple(s + 2 * p for s, p in zip(spatial, padding))
    out = tuple(size - k + 1 for size, k in zip(padded, kernel))
    strides = [1] * len(padded)
    for axis in range(len(padded) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * padded[axis + 1]
    shifts = tuple(
        sum(o * s for o, s in zip(offset, strides)) for offset in np.ndindex(*kernel)
    )
    return padded, out, shifts


def _embed(x: np.ndarray, lead: Sequence[int], buffer: np.ndarray) -> np.ndarray:
    """Write ``x`` (N, C, *S) channel-major into the zeroed ``buffer``
    (C, N, *padded) at offset ``lead``; returns the flat ``(C, N * L)`` view."""
    buffer[...] = 0.0
    box = tuple(slice(lo, lo + size) for lo, size in zip(lead, x.shape[2:]))
    buffer[(slice(None), slice(None)) + box] = np.moveaxis(x, 0, 1)
    return buffer.reshape(buffer.shape[0], -1)


def _extract(flat: np.ndarray, n: int, padded: Tuple[int, ...], box: Tuple[slice, ...], bias=None):
    """Inverse of :func:`_embed`: the ``box`` of a flat ``(C, N * L)`` array as a
    fresh contiguous ``(N, C, *box)`` tensor, plus a per-channel ``bias``."""
    channels = flat.shape[0]
    source = flat.reshape((channels, n) + padded)[(slice(None), slice(None)) + box]
    out = np.empty((n, channels) + source.shape[2:], dtype=flat.dtype)
    target = np.moveaxis(out, 0, 1)
    if bias is None:
        target[...] = source
    else:
        np.add(source, bias.reshape((-1,) + (1,) * (source.ndim - 1)), out=target)
    return out


def _clip(lo: int, hi: int, shift: int, total: int) -> Tuple[int, int]:
    return max(lo + shift, 0), min(hi + shift, total)


def _stack(src: np.ndarray, lo: int, hi: int, shifts: Sequence[int], buffer: Optional[np.ndarray]):
    """``(K * C, hi - lo)`` matrix whose row block ``k`` is
    ``src[:, lo + shifts[k] : hi + shifts[k]]``, zero where that leaves ``src``.

    ``buffer`` is the ``(K, C, step)`` scratch it is built in; a 1x1 kernel
    stacks nothing and needs none.
    """
    if buffer is None:
        return src[:, lo:hi]
    stack = buffer[:, :, : hi - lo]
    for slab, shift in zip(stack, shifts):
        a, b = _clip(lo, hi, shift, src.shape[1])
        if b - a < hi - lo:
            slab[...] = 0.0
        if a < b:
            slab[:, a - lo - shift : b - lo - shift] = src[:, a:b]
    return stack.reshape(-1, hi - lo)


def _shift_add(dst: np.ndarray, lo: int, hi: int, shifts: Sequence[int], slabs: np.ndarray):
    """``dst[:, lo + shifts[k] : hi + shifts[k]] += slabs[k]`` in tap order, clipped to ``dst``."""
    slabs = slabs.reshape(len(shifts), dst.shape[0], hi - lo)
    for slab, shift in zip(slabs, shifts):
        a, b = _clip(lo, hi, shift, dst.shape[1])
        if a < b:
            dst[:, a:b] += slab[:, a - lo - shift : b - lo - shift]


def _step(total: int, taps: int) -> int:
    """Block width: everything when a 1x1 kernel leaves nothing to stack, else
    equal blocks of at most :data:`BLOCK` columns (a runt block drops NumPy's
    ufuncs onto their slow short-row loop), rounded up to whole GEMM tiles.

    OpenBLAS rounds a ragged last tile differently with one thread than with
    several.  With 64-column multiples only the final block has one, and under
    "same" padding its last columns are zero padding, whose products are exact.
    """
    if taps == 1:
        return total
    blocks = -(-total // BLOCK)
    return -(-total // (64 * blocks)) * 64


def _blocks(total: int, step: int):
    return ((lo, min(lo + step, total)) for lo in range(0, total, step))


def _gemm_first(cout: int, cin: int, taps: int) -> bool:
    """Whether the ``K``-fold stack sits on the output side (GEMM, then shift-add).

    Either way ``K * min(Cin, Cout)`` slab rows move per column.  Stacking the
    input feeds one deep GEMM (inner dimension ``K * Cin``); GEMM-first runs a
    shallow, store-bound one (inner dimension ``Cin``, ``K * Cout`` output
    rows), so it only pays once ``Cout`` is at most half of ``Cin``: measured
    3.5x faster at 16 -> 3 channels, 1.4x slower at 9 -> 8.
    """
    return taps > 1 and 2 * cout <= cin


def _observed(metric: str):
    """Time a kernel into histogram ``metric`` and count the call, when telemetry is on."""

    def decorate(kernel):
        @functools.wraps(kernel)
        def observed(*args, **kwargs):
            recorder = _obs.get_recorder()
            if not recorder.enabled:
                return kernel(*args, **kwargs)
            start = time.perf_counter()
            result = kernel(*args, **kwargs)
            recorder.observe(metric, time.perf_counter() - start)
            recorder.count("nn.conv.calls")
            return result

        return observed

    return decorate


# --------------------------------------------------------------------------- #
# standard convolution
# --------------------------------------------------------------------------- #
@_observed("nn.conv.forward_seconds")
def conv_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    padding: Sequence[int],
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, Tuple]:
    """Cross-correlate ``x`` (N, Cin, *S) with ``weight`` (Cout, Cin, *K), stride 1.

    Returns ``(output, cache)`` where the cache carries what
    :func:`conv_backward` needs.  ``workspace`` (a layer's own) lets repeated
    calls reuse their scratch buffers; the cache then stays valid only until
    the next forward call with that workspace.
    """
    _check_conv_args(x, weight.shape[2:], padding)
    workspace = workspace if workspace is not None else Workspace()
    padding = tuple(int(p) for p in padding)
    padded, out_spatial, shifts = _geometry(x.shape[2:], weight.shape[2:], padding)
    n, taps = x.shape[0], len(shifts)
    cout, cin = weight.shape[:2]
    columns = _embed(x, padding, workspace.take("input", (cin, n) + padded, x.dtype))
    total = columns.shape[1]
    step = _step(total, taps)
    result = workspace.take("output", (cout, total), x.dtype)
    taps_last = weight.reshape(cout, cin, taps)
    if _gemm_first(cout, cin, taps):
        # rows (k, co): every tap's contribution to every column in one GEMM,
        # then slab k lands `shifts[k]` columns to the left
        matrix = np.ascontiguousarray(np.moveaxis(taps_last, 2, 0)).reshape(taps * cout, cin)
        left = tuple(-s for s in shifts)
        product = workspace.take("stack", (taps * cout, step), x.dtype)
        result[...] = 0.0
        for lo, hi in _blocks(total, step):
            block = np.matmul(matrix, columns[:, lo:hi], out=product[:, : hi - lo])
            _shift_add(result, lo, hi, left, block)
    else:
        # columns (k, ci): the taps of every column stacked, then one deep GEMM
        matrix = np.ascontiguousarray(np.moveaxis(taps_last, 2, 1)).reshape(cout, taps * cin)
        buffer = workspace.take("stack", (taps, cin, step), x.dtype) if taps > 1 else None
        for lo, hi in _blocks(total, step):
            np.matmul(matrix, _stack(columns, lo, hi, shifts, buffer), out=result[:, lo:hi])
    box = tuple(slice(0, size) for size in out_spatial)
    out = _extract(result, n, padded, box, bias)
    return out, (x.shape, columns, matrix, weight.shape, padding, workspace)


@_observed("nn.conv.backward_seconds")
def conv_backward(
    grad_output: np.ndarray, cache: Tuple, need_input_grad: bool = True
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv_forward`.

    Returns ``(grad_input, grad_weight, grad_bias)``.  A layer fed data rather
    than another layer's output passes ``need_input_grad=False`` and gets
    ``None`` for the gradient nobody consumes.
    """
    x_shape, columns, matrix, weight_shape, padding, workspace = cache
    padded, out_spatial, shifts = _geometry(x_shape[2:], weight_shape[2:], padding)
    spatial = len(padded)
    n, taps = x_shape[0], len(shifts)
    cout, cin = weight_shape[:2]
    total = columns.shape[1]
    step = _step(total, taps)

    grad_bias = grad_output.sum(axis=(0,) + tuple(range(2, 2 + spatial)))
    # zeros at the cropped positions, so wrapped taps contribute nothing below
    grads = _embed(
        grad_output, (0,) * spatial, workspace.take("grad", (cout, n) + padded, columns.dtype)
    )
    grad_columns = (
        workspace.take("grad_input", (cin, total), columns.dtype) if need_input_grad else None
    )
    grad_matrix = np.zeros_like(matrix)
    if _gemm_first(cout, cin, taps):
        # adjoint of GEMM-then-shift-add: stack the gradient shifted back, then
        # both gradients are one GEMM each on that stack
        left = tuple(-s for s in shifts)
        buffer = workspace.take("stack", (taps, cout, step), columns.dtype)
        for lo, hi in _blocks(total, step):
            stack = _stack(grads, lo, hi, left, buffer)
            grad_matrix += np.matmul(stack, columns[:, lo:hi].T)
            if need_input_grad:
                np.matmul(matrix.T, stack, out=grad_columns[:, lo:hi])
        grad_weight = np.moveaxis(grad_matrix.reshape(taps, cout, cin), 0, 2)
    else:
        buffer = workspace.take("stack", (taps, cin, step), columns.dtype) if taps > 1 else None
        if need_input_grad:
            grad_columns[...] = 0.0
            product = workspace.take("grad_stack", (taps * cin, step), columns.dtype)
        for lo, hi in _blocks(total, step):
            stack = _stack(columns, lo, hi, shifts, buffer)
            grad_matrix += np.matmul(grads[:, lo:hi], stack.T)
            if need_input_grad:
                block = np.matmul(matrix.T, grads[:, lo:hi], out=product[:, : hi - lo])
                _shift_add(grad_columns, lo, hi, shifts, block)
        grad_weight = np.moveaxis(grad_matrix.reshape(cout, taps, cin), 1, 2)
    grad_weight = np.ascontiguousarray(grad_weight).reshape(weight_shape)

    grad_input = None
    if need_input_grad:
        box = tuple(slice(p, p + size) for p, size in zip(padding, x_shape[2:]))
        grad_input = _extract(grad_columns, n, padded, box)
    return grad_input, grad_weight, grad_bias


# --------------------------------------------------------------------------- #
# depthwise convolution
# --------------------------------------------------------------------------- #
def _tap_sum(
    src: np.ndarray, taps: np.ndarray, shifts: Sequence[int], dst: np.ndarray, workspace
) -> None:
    """``dst[c, j] = sum_k taps[c, k] * src[c, j + shifts[k]]`` (zero outside ``src``).

    Plain ufuncs in ascending tap order: no BLAS, so the result does not depend
    on the block size or the thread count.
    """
    total = src.shape[1]
    step = _step(total, len(shifts))
    scratch = workspace.take("stack", (src.shape[0], step), src.dtype)
    dst[...] = 0.0
    for lo, hi in _blocks(total, step):
        for k, shift in enumerate(shifts):
            a, b = _clip(lo, hi, shift, total)
            if a < b:
                scaled = np.multiply(src[:, a:b], taps[:, k, None], out=scratch[:, : b - a])
                dst[:, a - shift : b - shift] += scaled


@_observed("nn.conv.forward_seconds")
def depthwise_conv_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    padding: Sequence[int],
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, Tuple]:
    """Depthwise cross-correlation: ``weight`` has shape (C, *K), one filter per channel."""
    _check_conv_args(x, weight.shape[1:], padding)
    channels = x.shape[1]
    if weight.shape[0] != channels:
        raise ValueError(f"weight covers {weight.shape[0]} channels, input has {channels}")
    workspace = workspace if workspace is not None else Workspace()
    padding = tuple(int(p) for p in padding)
    padded, out_spatial, shifts = _geometry(x.shape[2:], weight.shape[1:], padding)
    n = x.shape[0]
    columns = _embed(x, padding, workspace.take("input", (channels, n) + padded, x.dtype))
    result = workspace.take("output", columns.shape, x.dtype)
    taps = weight.reshape(channels, -1)
    _tap_sum(columns, taps, shifts, result, workspace)
    box = tuple(slice(0, size) for size in out_spatial)
    out = _extract(result, n, padded, box, bias)
    return out, (x.shape, columns, taps, weight.shape, padding, workspace)


@_observed("nn.conv.backward_seconds")
def depthwise_conv_backward(
    grad_output: np.ndarray, cache: Tuple, need_input_grad: bool = True
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Backward pass of :func:`depthwise_conv_forward` (see :func:`conv_backward`)."""
    x_shape, columns, taps, weight_shape, padding, workspace = cache
    padded, out_spatial, shifts = _geometry(x_shape[2:], weight_shape[1:], padding)
    spatial = len(padded)
    n, channels = x_shape[:2]
    total = columns.shape[1]

    grad_bias = grad_output.sum(axis=(0,) + tuple(range(2, 2 + spatial)))
    grads = _embed(
        grad_output, (0,) * spatial, workspace.take("grad", (channels, n) + padded, columns.dtype)
    )
    grad_taps = np.empty_like(taps)
    for k, shift in enumerate(shifts):
        np.einsum("cl,cl->c", grads[:, : total - shift], columns[:, shift:], out=grad_taps[:, k])

    grad_input = None
    if need_input_grad:
        grad_columns = workspace.take("grad_input", columns.shape, columns.dtype)
        _tap_sum(grads, taps, tuple(-s for s in shifts), grad_columns, workspace)
        box = tuple(slice(p, p + size) for p, size in zip(padding, x_shape[2:]))
        grad_input = _extract(grad_columns, n, padded, box)
    return grad_input, grad_taps.reshape(weight_shape), grad_bias


# --------------------------------------------------------------------------- #
# activation (stateless helper)
# --------------------------------------------------------------------------- #
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid, in ``x``'s dtype."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out

