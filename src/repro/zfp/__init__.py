"""ZFP-style transform-based error-bounded compressor.

ZFP (Lindstrom, 2014) is the other mainstream family of scientific lossy
compressors discussed in the paper's background: instead of predicting each
point, it partitions the data into small fixed-size blocks, applies a
decorrelating orthogonal transform per block, and codes the transform
coefficients.  This package implements a simplified fixed-accuracy variant of
that design (4-wide blocks, orthonormal DCT-II transform, conservative
coefficient quantization) used as an additional baseline in the ablation
benchmarks.

The transform path is batched (:mod:`repro.zfp.transform`) and the default
payload layout is significance-grouped (:mod:`repro.zfp.layout`), so a byte
prefix of each chunk decodes to a coarse preview — see
:meth:`ZFPLikeCompressor.decompress_preview`.
"""

from repro.zfp.codec import ZFP_LAYOUTS, ZFPLikeCompressor
from repro.zfp.layout import (
    clear_significance_plans,
    groups_for_fraction,
    significance_plan,
    significance_plan_info,
)
from repro.zfp.transform import (
    MAX_TRANSFORM_SIZE,
    block_transform_forward,
    block_transform_inverse,
    dct_matrix,
    field_transform_forward,
    field_transform_inverse,
)

__all__ = [
    "MAX_TRANSFORM_SIZE",
    "ZFP_LAYOUTS",
    "dct_matrix",
    "block_transform_forward",
    "block_transform_inverse",
    "field_transform_forward",
    "field_transform_inverse",
    "significance_plan",
    "significance_plan_info",
    "clear_significance_plans",
    "groups_for_fraction",
    "ZFPLikeCompressor",
]
