"""Training configuration and patch dataset construction for the CFNN.

The CFNN is trained on aligned patches sampled from the backward differences of
the anchor fields (inputs) and of the target field (outputs), both normalised
so the network operates on well-scaled values (paper Section III-B notes that
learning differences rather than raw values is what makes small models and
small input areas sufficient).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.differences import backward_differences_all_dims
from repro.data.slicing import extract_patches_nd
from repro.utils.validation import ensure_array

__all__ = ["TrainingConfig", "make_difference_patches", "normalisation_scales"]


@dataclass
class TrainingConfig:
    """Hyper-parameters for CFNN training.

    The defaults are sized for the scaled-down synthetic datasets so that a
    full compression run (training included) completes in seconds; they can be
    raised for full-resolution data.
    """

    epochs: int = 12
    batch_size: int = 8
    learning_rate: float = 2e-3
    n_patches: int = 96
    patch_size_2d: int = 32
    patch_size_3d: int = 12
    seed: int = 1234

    def patch_shape(self, ndim: int, data_shape: Sequence[int]) -> Tuple[int, ...]:
        """Patch shape for ``ndim``-dimensional data, clamped to the data size."""
        if ndim == 2:
            base = (self.patch_size_2d, self.patch_size_2d)
        elif ndim == 3:
            base = (self.patch_size_3d,) * 3
        else:
            raise ValueError("training patches support 2D and 3D data only")
        return tuple(min(p, s) for p, s in zip(base, data_shape))

    def validate(self) -> None:
        """Sanity-check the hyper-parameters."""
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.n_patches < 1:
            raise ValueError("n_patches must be positive")


def normalisation_scales(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Per-array scale factors (standard deviation, at least ``1e-8``) used to normalise channels."""
    scales = []
    for arr in arrays:
        arr = np.asarray(arr, dtype=np.float64)
        scales.append(max(float(arr.std()), 1e-8))
    return np.asarray(scales, dtype=np.float64)


def make_difference_patches(
    anchor_arrays: Sequence[np.ndarray],
    target_array: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the CFNN training set.

    Returns ``(inputs, targets, anchor_scales, target_scales)`` where

    - ``inputs`` has shape ``(n_patches, n_anchors * ndim, *patch_shape)``: the
      normalised backward differences of every anchor along every axis,
    - ``targets`` has shape ``(n_patches, ndim, *patch_shape)``: the normalised
      backward differences of the target field,
    - the scale arrays are the per-channel normalisation factors (reused at
      inference time; the target scales are stored in the compressed stream).
    """
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    target_array = ensure_array(target_array, "target_array", dtype=np.float64)
    ndim = target_array.ndim
    anchor_arrays = [ensure_array(a, "anchor", dtype=np.float64) for a in anchor_arrays]
    for a in anchor_arrays:
        if a.shape != target_array.shape:
            raise ValueError("anchor and target fields must share the same grid")

    anchor_diffs: List[np.ndarray] = []
    for anchor in anchor_arrays:
        anchor_diffs.extend(backward_differences_all_dims(anchor))
    target_diffs = backward_differences_all_dims(target_array)

    anchor_scales = normalisation_scales(anchor_diffs)
    target_scales = normalisation_scales(target_diffs)

    normalised_anchor = [d / s for d, s in zip(anchor_diffs, anchor_scales)]
    normalised_target = [d / s for d, s in zip(target_diffs, target_scales)]

    patch_shape = config.patch_shape(ndim, target_array.shape)
    all_arrays = normalised_anchor + normalised_target
    patches = extract_patches_nd(all_arrays, patch_shape, config.n_patches, rng=rng)
    anchor_patches = patches[: len(normalised_anchor)]
    target_patches = patches[len(normalised_anchor) :]

    inputs = np.stack(anchor_patches, axis=1)
    targets = np.stack(target_patches, axis=1)
    return inputs, targets, anchor_scales, target_scales
