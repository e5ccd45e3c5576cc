"""Ablation studies for the design choices called out in DESIGN.md.

These go beyond the paper's tables/figures and probe the individual design
decisions: dual quantization vs the classic sequential quantizer, the choice of
local predictor, the entropy backend, chunked parallel packing, and the anchor
selection heuristic (the paper's stated future work).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import CrossFieldCompressor, TrainingConfig
from repro.core.anchors import get_anchor_spec, suggest_anchors
from repro.data import make_dataset
from repro.experiments.config import dataset_shapes, default_training_config, resolve_scale
from repro.experiments.report import format_table
from repro.metrics import psnr
from repro.store import ArchiveReader, ArchiveWriter
from repro.sz import ErrorBound, SZCompressor
from repro.sz.pipeline import encode_integer_stream
from repro.sz.predictors import lorenzo_transform
from repro.sz.quantizer import classic_quantize_lorenzo, prequantize
from repro.zfp import ZFPLikeCompressor

__all__ = [
    "AblationResult",
    "run_dual_quant_ablation",
    "run_predictor_ablation",
    "run_entropy_backend_ablation",
    "run_parallel_block_ablation",
    "run_anchor_selection_ablation",
]


@dataclass
class AblationResult:
    """Generic ablation result: named rows of measurements."""

    name: str
    headers: List[str] = field(default_factory=list)
    rows: List[List] = field(default_factory=list)

    def format(self) -> str:
        """Aligned text table."""
        return f"== {self.name} ==\n" + format_table(self.headers, self.rows)

    def column(self, header: str) -> List:
        """Values of one column across all rows."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def run_dual_quant_ablation(
    shape: Sequence[int] = (48, 48),
    error_bound: float = 1e-3,
    seed: int = 0,
) -> AblationResult:
    """Dual quantization vs classic predict-then-quantize (paper Section III-D1).

    Compares the quantization-code entropy (bytes after the shared entropy
    stage) and the wall-clock time of the two quantization strategies on the
    same field.  Dual quantization removes the sequential dependency, which is
    visible as a large runtime gap even in pure Python.
    """
    data = make_dataset("cesm", shape=dataset_shapes("smoke")["cesm"], seed=seed)["CLDTOT"].data
    if tuple(shape) != data.shape:
        data = make_dataset("cesm", shape=shape, seed=seed)["CLDTOT"].data
    abs_eb = ErrorBound.relative(error_bound).resolve(data)

    start = time.perf_counter()
    codes = prequantize(data, abs_eb)
    residuals_dual = lorenzo_transform(codes)
    dual_seconds = time.perf_counter() - start
    dual_sections, _ = encode_integer_stream(residuals_dual, "huffman", "zlib")
    dual_bytes = sum(len(v) for v in dual_sections.values())

    start = time.perf_counter()
    classic_codes, outliers, _ = classic_quantize_lorenzo(data, abs_eb)
    classic_seconds = time.perf_counter() - start
    classic_sections, _ = encode_integer_stream(classic_codes, "huffman", "zlib")
    classic_bytes = sum(len(v) for v in classic_sections.values())

    result = AblationResult(
        name="dual quantization vs classic quantization",
        headers=["scheme", "quant+predict seconds", "entropy-coded bytes", "outliers"],
        rows=[
            ["dual-quant (vectorised)", dual_seconds, dual_bytes, 0],
            ["classic (sequential)", classic_seconds, classic_bytes, int(outliers.sum())],
        ],
    )
    return result


def run_predictor_ablation(
    scale: Optional[object] = None,
    dataset: str = "cesm",
    target: str = "FLUT",
    error_bound: float = 1e-3,
) -> AblationResult:
    """Compare the local predictors (Lorenzo / interpolation / regression) and ZFP."""
    shapes = dataset_shapes(scale)
    data = make_dataset(dataset, shape=shapes[dataset])[target].data
    eb = ErrorBound.relative(error_bound)
    rows = []
    for predictor in ("lorenzo", "interpolation", "regression"):
        compressor = SZCompressor(error_bound=eb, predictor=predictor)
        start = time.perf_counter()
        result = compressor.compress(data)
        seconds = time.perf_counter() - start
        recon = compressor.decompress(result.payload)
        rows.append([predictor, result.ratio, result.bit_rate, psnr(data, recon), seconds])
    zfp = ZFPLikeCompressor(error_bound=eb)
    start = time.perf_counter()
    zfp_result = zfp.compress(data)
    seconds = time.perf_counter() - start
    zfp_recon = zfp.decompress(zfp_result.payload)
    rows.append(["zfp-like", zfp_result.ratio, zfp_result.bit_rate, psnr(data, zfp_recon), seconds])
    return AblationResult(
        name=f"predictor ablation ({dataset}:{target} @ rel {error_bound:g})",
        headers=["predictor", "ratio", "bit_rate", "psnr", "compress seconds"],
        rows=rows,
    )


def run_entropy_backend_ablation(
    scale: Optional[object] = None,
    dataset: str = "cesm",
    target: str = "CLDTOT",
    error_bound: float = 1e-3,
) -> AblationResult:
    """Isolate the entropy stage: Huffman+zlib vs zlib-only vs raw."""
    shapes = dataset_shapes(scale)
    data = make_dataset(dataset, shape=shapes[dataset])[target].data
    eb = ErrorBound.relative(error_bound)
    rows = []
    for entropy, backend in (("huffman", "zlib"), ("zlib", "zlib"), ("huffman", "raw"), ("raw", "raw")):
        compressor = SZCompressor(error_bound=eb, entropy=entropy, backend=backend)
        result = compressor.compress(data)
        recon = compressor.decompress(result.payload)
        max_error = float(np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))))
        rows.append([f"{entropy}+{backend}", result.ratio, result.bit_rate, max_error <= result.abs_error_bound * (1 + 1e-9)])
    return AblationResult(
        name=f"entropy backend ablation ({dataset}:{target} @ rel {error_bound:g})",
        headers=["entropy+backend", "ratio", "bit_rate", "error bound held"],
        rows=rows,
    )


def run_parallel_block_ablation(
    scale: Optional[object] = None,
    dataset: str = "cesm",
    target: str = "FLNT",
    error_bound: float = 1e-3,
    block_size: int = 64,
    max_workers: int = 4,
) -> AblationResult:
    """Single-shot vs chunked archive packs, serial and threaded (enabled by dual quantization).

    Each chunked row is one :class:`~repro.store.ArchiveWriter` pack of the
    field; its ratio comes from the manifest entry and its bound is checked on
    the archive read back.
    """
    shapes = dataset_shapes(scale)
    data = make_dataset(dataset, shape=shapes[dataset])[target].data
    eb = ErrorBound.relative(error_bound)
    single = SZCompressor(error_bound=eb)

    start = time.perf_counter()
    single_result = single.compress(data)
    single_seconds = time.perf_counter() - start

    rows = [["single-shot", single_result.ratio, single_seconds, 1]]
    chunk_shape = tuple(block_size for _ in data.shape)
    with tempfile.TemporaryDirectory() as tmp:
        for kind, workers in (("serial", 1), ("thread", max_workers)):
            path = Path(tmp) / f"{kind}.xfa"
            start = time.perf_counter()
            with ArchiveWriter(
                path, error_bound=eb, chunk_shape=chunk_shape, max_workers=workers
            ) as writer:
                entry = writer.add_field(target, data)
            seconds = time.perf_counter() - start
            with ArchiveReader(path) as reader:
                recon = reader.read_field(target)
            assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= entry.abs_error_bound * (1 + 1e-9)
            rows.append([f"blocks-{kind}", entry.ratio, seconds, workers])
    return AblationResult(
        name=f"block-parallel ablation ({dataset}:{target} @ rel {error_bound:g})",
        headers=["configuration", "ratio", "compress seconds", "workers"],
        rows=rows,
    )


def run_anchor_selection_ablation(
    scale: Optional[object] = None,
    dataset: str = "cesm",
    target: str = "LWCF",
    error_bound: float = 1e-3,
    training: Optional[TrainingConfig] = None,
) -> AblationResult:
    """Paper anchors vs mutual-information-selected anchors vs a single anchor.

    This probes the paper's future-work direction of automatic anchor selection.
    """
    scale = resolve_scale(scale)
    shapes = dataset_shapes(scale)
    fieldset = make_dataset(dataset, shape=shapes[dataset])
    target_data = fieldset[target].data
    eb = ErrorBound.relative(error_bound)
    if training is None:
        training = default_training_config(target_data.ndim, scale)
    baseline = SZCompressor(error_bound=eb).compress(target_data)

    paper_spec = get_anchor_spec(dataset, target)
    auto_spec = suggest_anchors(fieldset, target, max_anchors=len(paper_spec.anchors))
    single_spec_anchors = (paper_spec.anchors[0],)

    rows = [["baseline (no anchors)", baseline.ratio, 0.0, ""]]
    for label, anchors in (
        ("paper anchors", paper_spec.anchors),
        ("mutual-information anchors", auto_spec.anchors),
        ("single anchor", single_spec_anchors),
    ):
        anchor_data = [fieldset[name].data.astype(np.float64) for name in anchors]
        compressor = CrossFieldCompressor(error_bound=eb, training=training)
        result = compressor.compress(target_data, anchor_data)
        improvement = 100.0 * (result.ratio / baseline.ratio - 1.0)
        rows.append([label, result.ratio, improvement, ",".join(anchors)])
    return AblationResult(
        name=f"anchor selection ablation ({dataset}:{target} @ rel {error_bound:g})",
        headers=["configuration", "ratio", "improvement % vs baseline", "anchors"],
        rows=rows,
    )
