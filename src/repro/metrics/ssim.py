"""Structural Similarity Index (SSIM).

SSIM is the second data-quality metric named in paper Section II-A.  The
implementation follows Wang et al. (2004) with a Gaussian sliding window,
computed with separable Gaussian filtering so it stays fast on the large 2D
slices used in the visual experiments.  3D inputs are evaluated slice-by-slice
along the first axis and averaged.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_array, ensure_shape_match

__all__ = ["ssim"]


def _ssim_2d(
    x: np.ndarray,
    y: np.ndarray,
    data_range: float,
    sigma: float,
    k1: float,
    k2: float,
) -> float:
    # scipy is needed here only: importing it at module level would make every
    # importer of repro.metrics (the cross-field codec among them) require it
    from scipy.ndimage import gaussian_filter

    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    mu_x = gaussian_filter(x, sigma)
    mu_y = gaussian_filter(y, sigma)
    mu_x2 = mu_x * mu_x
    mu_y2 = mu_y * mu_y
    mu_xy = mu_x * mu_y

    sigma_x2 = gaussian_filter(x * x, sigma) - mu_x2
    sigma_y2 = gaussian_filter(y * y, sigma) - mu_y2
    sigma_xy = gaussian_filter(x * y, sigma) - mu_xy

    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_x2 + mu_y2 + c1) * (sigma_x2 + sigma_y2 + c2)
    return float(np.mean(numerator / denominator))


def ssim(
    original: np.ndarray,
    reconstructed: np.ndarray,
    data_range: float | None = None,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean SSIM between ``original`` and ``reconstructed``.

    Parameters
    ----------
    original, reconstructed:
        Arrays of identical shape; 1D, 2D or 3D.  3D volumes are scored as the
        average SSIM over 2D slices along the first axis.
    data_range:
        Dynamic range used for the stabilising constants; defaults to the value
        range of ``original`` (or 1.0 for constant data).
    sigma:
        Standard deviation of the Gaussian window.
    k1, k2:
        Stabilisation constants from the original SSIM paper.
    """
    original = ensure_array(original, "original", dtype=np.float64)
    reconstructed = ensure_array(reconstructed, "reconstructed", dtype=np.float64)
    ensure_shape_match(original, reconstructed, "original", "reconstructed")
    if data_range is None:
        data_range = float(np.max(original) - np.min(original))
        if data_range == 0.0:
            data_range = 1.0
    if original.ndim == 1:
        original = original[np.newaxis, :]
        reconstructed = reconstructed[np.newaxis, :]
    if original.ndim == 2:
        return _ssim_2d(original, reconstructed, data_range, sigma, k1, k2)
    if original.ndim == 3:
        scores = [
            _ssim_2d(original[i], reconstructed[i], data_range, sigma, k1, k2)
            for i in range(original.shape[0])
        ]
        return float(np.mean(scores))
    raise ValueError("ssim supports 1D, 2D and 3D arrays")
