"""SZ3-style prediction-based error-bounded lossy compressor substrate.

This package implements the baseline the paper builds on and compares against:
the Lorenzo predictor (plus regression and interpolation predictors), linear
scale quantization with strict error-bound control, the dual-quantization
scheme of cuSZ (used by both the baseline and the cross-field compressor), and
the full compress/decompress pipeline with Huffman + lossless entropy stages.
"""

from repro.sz.errors import ErrorBound
from repro.sz.quantizer import (
    prequantize,
    dequantize,
    classic_quantize_lorenzo,
    QUANT_RADIUS_DEFAULT,
)
from repro.sz.predictors import (
    lorenzo_predict,
    lorenzo_transform,
    lorenzo_inverse,
    RegressionPredictor,
    InterpolationPredictor,
)
from repro.sz.decode import (
    clear_wavefront_plans,
    decode_weighted_sequential,
    decode_weighted_wavefront,
    wavefront_plan_info,
)
from repro.sz.pipeline import SZCompressor, CompressionResult

__all__ = [
    "ErrorBound",
    "prequantize",
    "dequantize",
    "classic_quantize_lorenzo",
    "QUANT_RADIUS_DEFAULT",
    "lorenzo_predict",
    "lorenzo_transform",
    "lorenzo_inverse",
    "RegressionPredictor",
    "InterpolationPredictor",
    "decode_weighted_sequential",
    "decode_weighted_wavefront",
    "wavefront_plan_info",
    "clear_wavefront_plans",
    "SZCompressor",
    "CompressionResult",
]
