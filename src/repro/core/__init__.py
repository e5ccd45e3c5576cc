"""The paper's contribution: cross-field prediction for lossy compression.

- :class:`~repro.core.cfnn.CFNN`: the Cross-Field Neural Network that predicts
  the first-order backward differences of a target field from the backward
  differences of anchor fields (paper Sections III-B and III-D2).
- :class:`~repro.core.hybrid.HybridPredictor`: the hybrid prediction model that
  combines the per-axis cross-field predictions with the Lorenzo prediction
  through learned weights (paper Section III-D3).
- :class:`~repro.core.compressor.CrossFieldCompressor`: the full compressor
  integrating both into the SZ dual-quantization pipeline (paper Section III-C).
- :mod:`repro.core.anchors`: the anchor-field configuration of paper Table III.
"""

from repro.core.anchors import AnchorSpec, get_anchor_spec, ANCHOR_TABLE, list_anchor_specs
from repro.core.cfnn import CFNN, CFNNConfig, build_cfnn_network
from repro.core.hybrid import HybridPredictor
from repro.core.training import TrainingConfig, make_difference_patches
from repro.core.compressor import CrossFieldCompressor

__all__ = [
    "AnchorSpec",
    "get_anchor_spec",
    "list_anchor_specs",
    "ANCHOR_TABLE",
    "CFNN",
    "CFNNConfig",
    "build_cfnn_network",
    "HybridPredictor",
    "TrainingConfig",
    "make_difference_patches",
    "CrossFieldCompressor",
]
