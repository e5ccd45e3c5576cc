"""Quantization for error-bounded compression.

Two schemes are implemented:

1. **Dual quantization** (cuSZ, used by the paper and by this reproduction for
   both the baseline and the cross-field compressor).  The data is first
   *prequantized* onto the integer lattice ``round(x / (2*eb))``; prediction and
   residual coding then operate entirely in the integer domain, which removes
   the read-after-write dependency during compression and makes the residual
   stage lossless (paper Section III-D1).

2. **Classic SZ quantization** (predict-then-quantize with error feedback),
   kept as an ablation reference: each point is predicted from already
   *reconstructed* neighbours and the prediction error is quantized — a
   strictly sequential loop.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import ensure_array, ensure_positive

__all__ = [
    "prequantize",
    "dequantize",
    "classic_quantize_lorenzo",
    "classic_dequantize_lorenzo",
    "QUANT_RADIUS_DEFAULT",
    "QUANT_RADIUS_MAX",
    "check_quant_radius",
    "QUANT_SAFETY_MARGIN",
    "effective_error_bound",
    "cast_safe_error_bound",
]

#: Default quantization-code radius: residuals with magnitude above this are
#: treated as unpredictable outliers and stored verbatim (keeps the Huffman
#: alphabet bounded by ``2 * radius + 2``).
QUANT_RADIUS_DEFAULT = 32768

#: Largest accepted radius: the escape symbol ``2 * radius`` (and every other
#: symbol, below it) must fit the int32 symbols the zlib and raw coders store.
QUANT_RADIUS_MAX = 2**30 - 1

#: Relative safety margin applied to the user's error bound before
#: quantization.  The compressors quantize against ``abs_eb * (1 - margin)``,
#: which absorbs the float64 rounding of dequantization and, while
#: ``margin * abs_eb`` is at least half the dtype's spacing at the data's
#: magnitude, the rounding of the cast back to ``float32``.  Below that the
#: margin alone does not cover the cast; :func:`cast_safe_error_bound` then
#: tightens the bound itself.  The impact on the compression ratio is below
#: 0.1%.
QUANT_SAFETY_MARGIN = 1e-3


def check_quant_radius(radius: int) -> int:
    """``radius`` as an ``int``; outside ``1 .. QUANT_RADIUS_MAX`` raises ``ValueError``."""
    value = int(radius)
    if not 1 <= value <= QUANT_RADIUS_MAX:
        raise ValueError(f"quant_radius must be in [1, {QUANT_RADIUS_MAX}], got {radius!r}")
    return value


def effective_error_bound(abs_eb: float) -> float:
    """Error bound actually used for quantization (slightly tightened).

    See :data:`QUANT_SAFETY_MARGIN` for why the user-requested bound is shrunk
    before prequantization.
    """
    return float(abs_eb) * (1.0 - QUANT_SAFETY_MARGIN)


def cast_safe_error_bound(abs_eb: float, data: np.ndarray) -> float:
    """Absolute bound to record and quantise with so that ``abs_eb`` holds in ``data.dtype``.

    A reconstruction ``x_hat`` within ``e`` of ``x`` moves by at most half the
    dtype's spacing ``h`` at ``|x_hat| <= max|x| + abs_eb`` when cast back to
    ``data.dtype``, and, since ``x`` itself is representable, by at most
    ``e``.  While ``QUANT_SAFETY_MARGIN * abs_eb >= h`` the margin covers the
    cast and ``abs_eb`` is returned unchanged (so such payloads are unchanged
    too).  Otherwise the bound shrinks to ``max(abs_eb / 2, abs_eb - h)``,
    which keeps ``min(2e, e + h)`` within ``abs_eb`` with
    ``e = effective_error_bound(bound)``.  Decoders read the recorded bound,
    so they need no change.
    """
    data = np.asarray(data)
    top = float(np.max(np.abs(data))) + abs_eb
    with np.errstate(over="ignore", invalid="ignore"):
        half_spacing = float(np.spacing(data.dtype.type(top))) / 2.0
    if QUANT_SAFETY_MARGIN * abs_eb >= half_spacing:
        return abs_eb
    # abs_eb / 2 first: a non-finite spacing (overflowing data) falls back to it
    return max(abs_eb / 2.0, abs_eb - half_spacing)


def prequantize(data: np.ndarray, abs_eb: float) -> np.ndarray:
    """Prequantization step of dual quantization.

    Maps every value onto the integer lattice with spacing ``2 * abs_eb``:
    ``q = round(x / (2 * abs_eb))``.  Reconstructing ``q * 2 * abs_eb`` is then
    guaranteed to be within ``abs_eb`` of the original value.

    Returns an ``int64`` array of the same shape.
    """
    data = ensure_array(data, "data")
    ensure_positive(abs_eb, "abs_eb")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values; cannot error-bound quantize")
    scaled = np.asarray(data, dtype=np.float64) / (2.0 * abs_eb)
    codes = np.rint(scaled)
    if np.any(np.abs(codes) > 2**62):
        raise OverflowError("error bound too small relative to the data magnitude")
    return codes.astype(np.int64)


def dequantize(codes: np.ndarray, abs_eb: float, dtype=np.float32) -> np.ndarray:
    """Inverse of :func:`prequantize`: reconstruct values from lattice codes."""
    ensure_positive(abs_eb, "abs_eb")
    codes = np.asarray(codes)
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError("codes must be integers")
    return (codes.astype(np.float64) * (2.0 * abs_eb)).astype(dtype)


# --------------------------------------------------------------------------- #
# classic (sequential) SZ quantization — ablation reference
# --------------------------------------------------------------------------- #
def _lorenzo_at(recon: np.ndarray, index: Tuple[int, ...]) -> float:
    """Lorenzo prediction of ``recon[index]`` from its reconstructed neighbours."""
    if recon.ndim == 1:
        (i,) = index
        return recon[i - 1] if i > 0 else 0.0
    if recon.ndim == 2:
        i, j = index
        a = recon[i - 1, j] if i > 0 else 0.0
        b = recon[i, j - 1] if j > 0 else 0.0
        c = recon[i - 1, j - 1] if i > 0 and j > 0 else 0.0
        return a + b - c
    i, j, k = index
    a = recon[i - 1, j, k] if i > 0 else 0.0
    b = recon[i, j - 1, k] if j > 0 else 0.0
    c = recon[i, j, k - 1] if k > 0 else 0.0
    ab = recon[i - 1, j - 1, k] if i > 0 and j > 0 else 0.0
    ac = recon[i - 1, j, k - 1] if i > 0 and k > 0 else 0.0
    bc = recon[i, j - 1, k - 1] if j > 0 and k > 0 else 0.0
    abc = recon[i - 1, j - 1, k - 1] if i > 0 and j > 0 and k > 0 else 0.0
    return a + b + c - ab - ac - bc + abc


def classic_quantize_lorenzo(
    data: np.ndarray, abs_eb: float, radius: int = QUANT_RADIUS_DEFAULT
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classic predict-then-quantize SZ loop with the Lorenzo predictor.

    Every point is predicted from the already *reconstructed* neighbours, the
    prediction error is quantized to ``2*eb`` bins and immediately fed back —
    the read-after-write dependency dual quantization removes.  Only 1D/2D/3D
    inputs are supported and the loop is pure Python, so this is intended for
    correctness tests and the dual-quant ablation on small arrays.

    Returns ``(codes, outlier_mask, reconstruction)`` where ``codes`` holds the
    quantization bins (0 marks an outlier), ``outlier_mask`` flags points stored
    verbatim, and ``reconstruction`` is the decompressed array the decoder will
    reproduce.
    """
    data = ensure_array(data, "data", dtype=np.float64)
    ensure_positive(abs_eb, "abs_eb")
    if data.ndim not in (1, 2, 3):
        raise ValueError("classic_quantize_lorenzo supports 1D/2D/3D data only")

    recon = np.zeros_like(data)
    codes = np.zeros(data.shape, dtype=np.int64)
    outlier_mask = np.zeros(data.shape, dtype=bool)
    two_eb = 2.0 * abs_eb

    for index in np.ndindex(*data.shape):
        predicted = _lorenzo_at(recon, index)
        error = data[index] - predicted
        bin_index = int(np.rint(error / two_eb))
        if abs(bin_index) >= radius:
            outlier_mask[index] = True
            codes[index] = 0
            recon[index] = data[index]
        else:
            codes[index] = bin_index
            recon[index] = predicted + bin_index * two_eb
    return codes, outlier_mask, recon


def classic_dequantize_lorenzo(
    codes: np.ndarray,
    outlier_mask: np.ndarray,
    outlier_values: np.ndarray,
    abs_eb: float,
) -> np.ndarray:
    """Decode the output of :func:`classic_quantize_lorenzo`.

    ``outlier_values`` holds the verbatim values of the flagged points in C
    order.
    """
    codes = np.asarray(codes, dtype=np.int64)
    outlier_mask = np.asarray(outlier_mask, dtype=bool)
    ensure_positive(abs_eb, "abs_eb")
    if codes.ndim not in (1, 2, 3):
        raise ValueError("classic_dequantize_lorenzo supports 1D/2D/3D data only")
    recon = np.zeros(codes.shape, dtype=np.float64)
    two_eb = 2.0 * abs_eb
    outliers = iter(np.asarray(outlier_values, dtype=np.float64).ravel())

    for index in np.ndindex(*codes.shape):
        if outlier_mask[index]:
            recon[index] = next(outliers)
        else:
            recon[index] = _lorenzo_at(recon, index) + codes[index] * two_eb
    return recon
