#!/usr/bin/env python
"""Compress a whole SCALE-LETKF-like climate snapshot field by field.

Demonstrates the workflow the paper's introduction motivates: a multi-field
climate snapshot where anchor fields are compressed with the baseline and the
physically coupled target fields (RH from T/QV/PRES, W from U/V/PRES) use the
cross-field compressor.  The snapshot is packed twice through
:class:`repro.pipeline.CompressionPipeline` — once with cross-field rules for
RH and W, once baseline-only — and the per-field ratios of the two archives
are compared.  Each field is one chunk, so one CFNN covers each target field
as in the paper.

Run with:  python examples/climate_scale_compression.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.anchors import get_anchor_spec
from repro.data import make_dataset
from repro.experiments.report import format_table
from repro.pipeline import CompressionPipeline, FieldRule, PipelineConfig

TARGETS = ("RH", "W")


def main() -> None:
    dataset = make_dataset("scale", shape=(16, 72, 72), seed=3)
    anchors = {target: get_anchor_spec("scale", target).anchors for target in TARGETS}
    cross_field = PipelineConfig(
        name="cross-field",
        error_bound=1e-3,
        chunk_shape=dataset.shape,
        fields={
            target: FieldRule(
                codec="cross-field",
                anchors=anchors[target],
                codec_params={"epochs": 6, "n_patches": 48},
            )
            for target in TARGETS
        },
    )
    baseline = PipelineConfig(name="baseline", error_bound=1e-3, chunk_shape=dataset.shape)

    with tempfile.TemporaryDirectory() as tmp:
        cross_pipeline = CompressionPipeline(cross_field)
        cross_path = Path(tmp) / "cross-field.xfa"
        ours = cross_pipeline.compress(dataset, cross_path)
        base = CompressionPipeline(baseline).compress(dataset, Path(tmp) / "baseline.xfa")

        restored = cross_pipeline.decompress(cross_path)
        for name in dataset.names:
            error = np.max(np.abs(restored[name].data.astype(np.float64) - dataset[name].data))
            assert error <= 1e-3 * dataset[name].value_range * (1 + 1e-9), f"{name} violated the bound"

    ours_ratio = {report.name: report.ratio for report in ours.fields}
    base_ratio = {report.name: report.ratio for report in base.fields}
    rows = []
    for name in TARGETS + ("U", "V", "T", "QV", "PRES"):
        method = "cross-field" if name in TARGETS else "baseline"
        rows.append(
            (
                name,
                method,
                ",".join(anchors[name]) if name in TARGETS else "-",
                base_ratio[name],
                ours_ratio[name],
                100.0 * (ours_ratio[name] / base_ratio[name] - 1.0),
            )
        )
    print(
        format_table(
            ["Field", "Method", "Anchors", "Baseline ratio", "Final ratio", "Improvement %"],
            rows,
        )
    )
    print(
        f"\nsnapshot: {ours.original_nbytes / 1e6:.1f} MB -> {ours.compressed_nbytes / 1e6:.2f} MB "
        f"(overall ratio {ours.ratio:.2f}x at rel eb 1e-3)"
    )


if __name__ == "__main__":
    main()
