"""Scientific field data substrate.

Provides the containers (:class:`Field`, :class:`FieldSet`), finite-difference
operators used by the cross-field predictor, SDRBench-compatible binary IO, and
synthetic multi-field dataset generators emulating the SCALE-LETKF, CESM-ATM and
Hurricane ISABEL datasets used in the paper.
"""

from repro.data.fields import Field, FieldSet
from repro.data.differences import (
    backward_difference,
    forward_difference,
    central_difference,
    backward_differences_all_dims,
    integrate_backward_difference,
)
from repro.data.io import read_sdrbench, write_sdrbench, read_fieldset, write_fieldset
from repro.data.slicing import (
    extract_patches_nd,
    iter_blocks,
    take_slice,
)
from repro.data.synthetic import (
    gaussian_random_field,
    fourier_shift,
    make_scale_dataset,
    make_hurricane_dataset,
    make_cesm_dataset,
    make_dataset,
    make_timeseries,
    DATASET_GENERATORS,
)

__all__ = [
    "Field",
    "FieldSet",
    "backward_difference",
    "forward_difference",
    "central_difference",
    "backward_differences_all_dims",
    "integrate_backward_difference",
    "read_sdrbench",
    "write_sdrbench",
    "read_fieldset",
    "write_fieldset",
    "extract_patches_nd",
    "iter_blocks",
    "take_slice",
    "gaussian_random_field",
    "fourier_shift",
    "make_scale_dataset",
    "make_hurricane_dataset",
    "make_cesm_dataset",
    "make_dataset",
    "make_timeseries",
    "DATASET_GENERATORS",
]
