"""Local-field predictors used by prediction-based lossy compression.

All predictors operate in the *prequantized integer domain* (dual quantization,
see :mod:`repro.sz.quantizer`): the input is an ``int64`` lattice-code array and
the residuals they produce are coded losslessly, so compressor and decompressor
see bit-identical values and the error bound is controlled entirely by the
prequantization step.

Predictors implemented:

- **Lorenzo** (the baseline the paper enhances): predicts each point from the
  inclusion–exclusion sum of its already-decoded "lower-left" neighbours.  On
  integers the Lorenzo residual operator is exactly the composition of
  first-order backward differences along every axis, whose inverse is a chain
  of cumulative sums — giving a fully vectorised decoder.
- **Regression**: SZ-style block-wise linear (hyperplane) fit.  Every block of
  a given shape shares one design matrix, so the fit is a *batched* normal-
  equation solve — one tensor contraction over all same-shaped blocks at once
  instead of a per-block Python loop.  The arithmetic is fixed-order float64
  and row by row, so a block's coefficients do not depend on which other
  blocks share the batch; ``tests/test_sz_parity.py`` holds the per-block
  scalar oracle it is pinned to.
- **Interpolation**: SZ3-style multi-level linear interpolation along each
  dimension; prediction only ever uses points reconstructed in earlier passes.
  The per-shape pass tables (flat index tables, like the wavefront decoder's
  plans) are cached at module level so the thousands of same-shaped chunks of
  an archive build them once.

The encoders take ``batched=True`` for a stack of same-shape arrays (the
first axis indexes the arrays): each array's residuals are exactly those of
encoding it alone, which is how the SZ codec encodes a batch of chunks in one
pass.

See ``docs/architecture.md`` ("The wavefront batch decoder") for how the
cached index tables and the parity-testing contract fit together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.slicing import iter_blocks
from repro.utils.memo import Memo
from repro.utils.validation import ensure_ndim

__all__ = [
    "lorenzo_predict",
    "lorenzo_transform",
    "lorenzo_inverse",
    "RegressionPredictor",
    "InterpolationPredictor",
]


def _as_codes(codes: np.ndarray, batched: bool) -> np.ndarray:
    """``codes`` as ``int64`` with a leading batch axis (added when not ``batched``)."""
    codes = np.asarray(codes, dtype=np.int64)
    ensure_ndim(codes, (2, 3, 4) if batched else (1, 2, 3), "codes")
    return codes if batched else codes[None]


# --------------------------------------------------------------------------- #
# Lorenzo predictor
# --------------------------------------------------------------------------- #
def _shifted_view(padded: np.ndarray, offsets: Sequence[int], shape: Tuple[int, ...]) -> np.ndarray:
    """View of the zero-padded array shifted by ``offsets`` (1 = previous index)."""
    index = tuple(
        slice(1 - off, 1 - off + size) for off, size in zip(offsets, shape)
    )
    return padded[index]


def lorenzo_predict(codes: np.ndarray) -> np.ndarray:
    """Vectorised Lorenzo prediction of every point from its preceding neighbours.

    For 2D data: ``pred(i, j) = q(i-1, j) + q(i, j-1) - q(i-1, j-1)``; for 3D the
    standard 7-term inclusion–exclusion formula; for 1D simply the previous
    value.  Out-of-range neighbours count as zero.  Because the input is the
    full prequantized array, this is usable during compression (dual
    quantization removes the read-after-write dependency).
    """
    codes = np.asarray(codes)
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError("lorenzo_predict operates on integer lattice codes")
    ensure_ndim(codes, (1, 2, 3), "codes")
    shape = codes.shape
    padded = np.zeros(tuple(s + 1 for s in shape), dtype=np.int64)
    padded[tuple(slice(1, None) for _ in shape)] = codes

    pred = np.zeros(shape, dtype=np.int64)
    ndim = codes.ndim
    # inclusion-exclusion over all non-empty subsets of axes
    for mask in range(1, 1 << ndim):
        offsets = [(mask >> d) & 1 for d in range(ndim)]
        sign = -1 if (sum(offsets) % 2 == 0) else 1
        pred += sign * _shifted_view(padded, offsets, shape)
    return pred


def lorenzo_transform(codes: np.ndarray, batched: bool = False) -> np.ndarray:
    """Residuals of the Lorenzo predictor: ``q - lorenzo_predict(q)``.

    Computed as the first-order backward difference (zero boundary) along
    every axis, which equals the inclusion–exclusion form in wrapping
    ``int64`` arithmetic and is what makes the inverse a chain of cumulative
    sums.  With ``batched=True`` the first axis indexes independent arrays
    and is not differenced.
    """
    codes = _as_codes(codes, batched)
    for axis in range(1, codes.ndim):
        codes = np.diff(codes, axis=axis, prepend=0)
    return codes if batched else codes[0]


def lorenzo_inverse(residuals: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`lorenzo_transform` (cumulative sums along every axis)."""
    residuals = np.asarray(residuals)
    if not np.issubdtype(residuals.dtype, np.integer):
        raise TypeError("lorenzo_inverse operates on integer residuals")
    out = residuals.astype(np.int64, copy=True)
    for axis in range(out.ndim):
        np.cumsum(out, axis=axis, out=out)
    return out


# --------------------------------------------------------------------------- #
# Regression predictor
# --------------------------------------------------------------------------- #
@dataclass
class RegressionCoefficients:
    """Per-block hyperplane coefficients produced by :class:`RegressionPredictor`."""

    block_shape: Tuple[int, ...]
    coefficients: np.ndarray  # (n_blocks, ndim + 1) float32; batched encodes add a leading axis

    def nbytes(self) -> int:
        """Bytes needed to store the coefficients in the compressed stream."""
        return int(self.coefficients.astype(np.float32).nbytes)


class _DesignInfo:
    """Design matrix, coordinate grids and normal-equation inverse for one block shape.

    ``active_cols`` lists the coefficient-vector entries the fit actually
    solves for: the intercept plus one slope per axis of extent > 1 (an axis of
    extent one has an all-zero coordinate column, which would make the normal
    matrix singular; its slope is pinned to zero instead, matching the
    minimum-norm least-squares solution).
    """

    def __init__(self, block_shape: Tuple[int, ...]) -> None:
        self.block_shape = tuple(int(s) for s in block_shape)
        ndim = len(self.block_shape)
        elems = int(np.prod(self.block_shape))
        mesh = np.meshgrid(
            *[np.arange(s, dtype=np.float64) for s in self.block_shape], indexing="ij"
        )
        self.grids: List[np.ndarray] = [g.ravel() for g in mesh]
        self.active_cols: Tuple[int, ...] = (0,) + tuple(
            d + 1 for d in range(ndim) if self.block_shape[d] > 1
        )
        columns = [np.ones(elems, dtype=np.float64)]
        columns.extend(self.grids[c - 1] for c in self.active_cols[1:])
        self.design = np.stack(columns, axis=1)  # (elems, k)
        normal = self.design.T @ self.design
        self.inv_normal = np.linalg.inv(normal)  # (k, k)


class _BlockGroup:
    """All equal-shaped blocks of one decomposition, with flat gather tables."""

    def __init__(self, block_shape: Tuple[int, ...], positions: np.ndarray, gather: np.ndarray) -> None:
        self.block_shape = block_shape
        self.positions = positions  # (nb,) indices into the C-order block list
        self.gather = gather  # (nb, elems) flat indices into the full array


_DESIGN_CACHE_MAX = 128  # design matrices kept, one per block shape
_GROUP_CACHE_MAX_ELEMENTS = 1 << 22  # total gather-table entries kept


def _build_block_groups(key: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> List[_BlockGroup]:
    """Group the C-order block decomposition of ``shape`` by block shape.

    Every group carries an ``(n_blocks, block_elems)`` table of flat indices, so
    extracting (or scattering back) all same-shaped blocks is one fancy-indexing
    operation.  Tables are memoised per ``(shape, block_shape)`` in
    :data:`_BLOCK_GROUPS`, like the wavefront decoder's plans.
    """
    shape, block_shape = key
    strides = [int(np.prod(shape[d + 1 :])) for d in range(len(shape))]
    by_shape: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}
    for position, block_slices in enumerate(iter_blocks(shape, block_shape)):
        bshape = tuple(s.stop - s.start for s in block_slices)
        base = sum(s.start * stride for s, stride in zip(block_slices, strides))
        positions, bases = by_shape.setdefault(bshape, ([], []))
        positions.append(position)
        bases.append(base)
    groups = []
    for bshape, (positions, bases) in by_shape.items():
        coords = np.indices(bshape).reshape(len(bshape), -1)
        within = sum(coords[d] * strides[d] for d in range(len(bshape)))
        gather = np.asarray(bases, dtype=np.int64)[:, None] + np.asarray(within, dtype=np.int64)[None, :]
        groups.append(_BlockGroup(bshape, np.asarray(positions, dtype=np.int64), gather))
    return groups


_DESIGNS = Memo(_DesignInfo, max_cost=_DESIGN_CACHE_MAX)
_BLOCK_GROUPS = Memo(
    _build_block_groups,
    max_cost=_GROUP_CACHE_MAX_ELEMENTS,
    cost=lambda groups: sum(g.gather.size for g in groups),
)


def _fit_batch(info: _DesignInfo, y: np.ndarray) -> np.ndarray:
    """Normal-equation hyperplane fit of ``y`` (``(n_blocks, elems)`` float64).

    Returns float32 coefficient rows padded to ``ndim + 1`` entries.  The
    arithmetic — per-column products summed along the last axis, then the
    inverse applied row by row in fixed order — is elementwise over the block
    batch, so fitting ``n`` blocks at once is bit-identical to fitting each
    alone.
    """
    k = len(info.active_cols)
    dty = np.empty((y.shape[0], k), dtype=np.float64)
    for c in range(k):
        dty[:, c] = (y * info.design[:, c]).sum(axis=-1)
    coeffs = np.zeros((y.shape[0], k), dtype=np.float64)
    for j in range(k):
        coeffs += dty[:, j : j + 1] * info.inv_normal[j][None, :]
    full = np.zeros((y.shape[0], len(info.block_shape) + 1), dtype=np.float32)
    full[:, list(info.active_cols)] = coeffs.astype(np.float32)
    return full


def _predict_batch(info: _DesignInfo, coeffs: np.ndarray) -> np.ndarray:
    """Rounded hyperplane predictions for coefficient rows ``(n_blocks, ndim+1)``.

    Evaluated as ``c0 + c1*x0 + c2*x1 + ...`` in fixed axis order — elementwise
    float64 operations, so the batched and single-block paths agree bitwise.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    elems = info.grids[0].size if info.grids else int(np.prod(info.block_shape))
    pred = np.broadcast_to(c[:, 0][:, None], (c.shape[0], elems)).copy()
    for d in range(len(info.block_shape)):
        pred += c[:, d + 1][:, None] * info.grids[d][None, :]
    return np.rint(pred).astype(np.int64)


class RegressionPredictor:
    """SZ-style block-wise linear regression predictor.

    Each ``block_size**ndim`` block is approximated by a hyperplane
    ``a0 + sum_d a_d * x_d``; coefficients are stored in the stream, so
    decoding is independent of neighbouring values.  All same-shaped blocks
    share one design matrix, so :meth:`encode`/:meth:`decode` run the fit and
    the prediction as batched tensor operations over the whole block
    population at once.
    """

    def __init__(self, block_size: int = 6) -> None:
        if block_size < 2:
            raise ValueError("block_size must be at least 2")
        self.block_size = int(block_size)

    def _block_shape(self, ndim: int) -> Tuple[int, ...]:
        return tuple(self.block_size for _ in range(ndim))

    # ------------------------------ encode ----------------------------- #
    def encode(
        self, codes: np.ndarray, batched: bool = False
    ) -> Tuple[np.ndarray, RegressionCoefficients]:
        """Fit block hyperplanes (batched) and return ``(residuals, coefficients)``.

        With ``batched=True`` every row of the first axis is an array of its
        own: its blocks are gathered from its row, and the coefficients gain a
        leading axis with one ``(n_blocks, ndim + 1)`` table per row.
        """
        codes = np.ascontiguousarray(_as_codes(codes, batched))
        shape = codes.shape[1:]
        block_shape = self._block_shape(len(shape))
        groups = _BLOCK_GROUPS.get((shape, block_shape))
        n_blocks = sum(len(g.positions) for g in groups)
        rows = codes.reshape(codes.shape[0], -1)
        residual_rows = np.empty_like(rows)
        coeff_arr = np.zeros((rows.shape[0], n_blocks, len(shape) + 1), dtype=np.float32)
        for group in groups:
            info = _DESIGNS.get(group.block_shape)
            y_int = rows[:, group.gather]  # (rows, blocks, elems)
            flat_blocks = y_int.reshape(-1, y_int.shape[-1])
            coeffs = _fit_batch(info, flat_blocks.astype(np.float64))
            coeff_arr[:, group.positions] = coeffs.reshape(rows.shape[0], -1, coeffs.shape[-1])
            residual_rows[:, group.gather] = (
                flat_blocks - _predict_batch(info, coeffs)
            ).reshape(y_int.shape)
        residuals = residual_rows.reshape(codes.shape)
        if not batched:
            residuals, coeff_arr = residuals[0], coeff_arr[0]
        return residuals, RegressionCoefficients(block_shape, coeff_arr)

    # ------------------------------ decode ----------------------------- #
    @staticmethod
    def _check_rank(residuals: np.ndarray, coefficients: RegressionCoefficients) -> None:
        if len(coefficients.block_shape) != residuals.ndim:
            raise ValueError(
                f"coefficient block shape {coefficients.block_shape} does not match "
                f"{residuals.ndim}D residuals"
            )

    def _check_coefficients(
        self, residuals: np.ndarray, coefficients: RegressionCoefficients, n_blocks: int
    ) -> None:
        self._check_rank(residuals, coefficients)
        if n_blocks != coefficients.coefficients.shape[0]:
            raise ValueError(
                f"coefficient count {coefficients.coefficients.shape[0]} does not match "
                f"the {n_blocks}-block decomposition of shape {residuals.shape}"
            )

    def decode(self, residuals: np.ndarray, coefficients: RegressionCoefficients) -> np.ndarray:
        """Reconstruct the codes from residuals and stored coefficients (batched)."""
        residuals = np.ascontiguousarray(np.asarray(residuals, dtype=np.int64))
        ensure_ndim(residuals, (1, 2, 3), "residuals")
        self._check_rank(residuals, coefficients)
        groups = _BLOCK_GROUPS.get((residuals.shape, tuple(coefficients.block_shape)))
        n_blocks = sum(len(g.positions) for g in groups)
        self._check_coefficients(residuals, coefficients, n_blocks)
        res_flat = residuals.reshape(-1)
        out_flat = np.empty_like(res_flat)
        for group in groups:
            info = _DESIGNS.get(group.block_shape)
            coeffs = coefficients.coefficients[group.positions]
            out_flat[group.gather] = _predict_batch(info, coeffs) + res_flat[group.gather]
        return out_flat.reshape(residuals.shape)


# --------------------------------------------------------------------------- #
# Interpolation predictor
# --------------------------------------------------------------------------- #
_INTERP_CACHE_MAX = 64  # pass tables kept, one per array shape


class InterpolationPredictor:
    """SZ3-style multi-level linear interpolation predictor.

    Points are visited level by level (stride halving each level) and dimension
    by dimension within a level; each point is predicted as the rounded average
    of its two neighbours at ``±stride`` along the current dimension (or copied
    from the left neighbour at the boundary).  Prediction only ever uses points
    reconstructed in earlier passes, so the decoder can replay the identical
    traversal.  The pass tables for a shape are cached at module level and
    shared across instances (the compressor builds a fresh predictor per call).
    """

    # -------------------------- traversal ----------------------------- #
    @staticmethod
    def _build_passes(shape: Tuple[int, ...]) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The interpolation passes for ``shape``, in traversal order.

        Each pass is ``(targets, left, right)`` where the entries are arrays of
        flat indices; ``right`` entries equal to ``-1`` mean "no right
        neighbour" (boundary), in which case prediction copies the left value.
        """
        ndim = len(shape)
        max_dim = max(shape)
        max_level = max(int(np.ceil(np.log2(max_dim))), 1)

        passes: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        known = np.zeros(shape, dtype=bool)
        known[(0,) * ndim] = True  # the base point is coded directly

        for level in range(max_level, 0, -1):
            stride = 1 << (level - 1)
            for axis in range(ndim):
                if stride >= shape[axis] and shape[axis] > 1 and stride != 1:
                    # still may need this pass when stride < shape[axis]; skip otherwise
                    if stride >= shape[axis]:
                        continue
                if shape[axis] == 1:
                    continue
                # candidate coordinates along `axis`: odd multiples of stride
                coords_axis = np.arange(stride, shape[axis], 2 * stride)
                if coords_axis.size == 0:
                    continue
                # other axes: all currently-known grid coordinates at this level,
                # i.e. multiples of `stride` for axes already processed in this
                # level and multiples of `2*stride` for axes not yet processed.
                other_coords = []
                for other in range(ndim):
                    if other == axis:
                        continue
                    step = stride if other < axis else 2 * stride
                    other_coords.append(np.arange(0, shape[other], max(step, 1)))
                mesh_inputs = []
                for other in range(ndim):
                    if other == axis:
                        mesh_inputs.append(coords_axis)
                    else:
                        idx = other if other < axis else other - 1
                        mesh_inputs.append(other_coords[idx])
                mesh = np.meshgrid(*mesh_inputs, indexing="ij")
                target_coords = [m.ravel() for m in mesh]
                targets_nd = tuple(target_coords)
                # drop targets that are somehow already known (can happen for
                # tiny dimensions where strides alias)
                already = known[targets_nd]
                if np.all(already):
                    continue
                keep = ~already
                target_coords = [c[keep] for c in target_coords]
                targets_nd = tuple(target_coords)

                left_coords = [c.copy() for c in target_coords]
                right_coords = [c.copy() for c in target_coords]
                left_coords[axis] = target_coords[axis] - stride
                right_coords[axis] = target_coords[axis] + stride
                in_range = right_coords[axis] < shape[axis]

                targets_flat = np.ravel_multi_index(targets_nd, shape)
                left_flat = np.ravel_multi_index(tuple(left_coords), shape)
                right_flat = np.full(targets_flat.shape, -1, dtype=np.int64)
                if np.any(in_range):
                    right_in = [c[in_range] for c in right_coords]
                    right_flat[in_range] = np.ravel_multi_index(tuple(right_in), shape)

                passes.append((targets_flat, left_flat, right_flat))
                known[targets_nd] = True

        if not bool(known.all()):  # pragma: no cover - traversal invariant
            raise RuntimeError("interpolation traversal failed to cover every point")
        return passes

    @staticmethod
    def _predict(flat: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Predictions at one pass's targets, along the last axis of ``flat``."""
        pred = flat[..., left].astype(np.float64)
        has_right = right >= 0
        if np.any(has_right):
            pred[..., has_right] = (
                flat[..., left[has_right]].astype(np.float64)
                + flat[..., right[has_right]].astype(np.float64)
            ) / 2.0
        return np.rint(pred).astype(np.int64)

    # -------------------------- API ----------------------------------- #
    def encode(self, codes: np.ndarray, batched: bool = False) -> np.ndarray:
        """Return residuals of the interpolation predictor (same shape as input).

        With ``batched=True`` the first axis indexes independent arrays, and
        every pass indexes each row with the same memoised tables.
        """
        codes = _as_codes(codes, batched)
        rows = codes.reshape(codes.shape[0], -1)
        residuals = np.zeros_like(rows)
        residuals[:, 0] = rows[:, 0]  # the base point is coded directly
        for targets, left, right in _INTERP_PASSES.get(codes.shape[1:]):
            residuals[:, targets] = rows[:, targets] - self._predict(rows, left, right)
        residuals = residuals.reshape(codes.shape)
        return residuals if batched else residuals[0]

    def decode(self, residuals: np.ndarray) -> np.ndarray:
        """Reconstruct codes from interpolation residuals."""
        residuals = np.asarray(residuals, dtype=np.int64)
        ensure_ndim(residuals, (1, 2, 3), "residuals")
        flat_res = residuals.ravel()
        flat = np.zeros_like(flat_res)
        flat[0] = flat_res[0]
        for targets, left, right in _INTERP_PASSES.get(residuals.shape):
            pred = self._predict(flat, left, right)
            flat[targets] = pred + flat_res[targets]
        return flat.reshape(residuals.shape)


_INTERP_PASSES = Memo(InterpolationPredictor._build_passes, max_cost=_INTERP_CACHE_MAX)
