"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core import CrossFieldCompressor, TrainingConfig
from repro.core.anchors import get_anchor_spec
from repro.data import make_dataset, read_fieldset, write_fieldset
from repro.metrics import psnr, ssim
from repro.pipeline import CompressionPipeline, FieldRule, PipelineConfig, reconstruct_anchors
from repro.store import ArchiveReader
from repro.sz import ErrorBound, SZCompressor

def _pack_whole_fields(fieldset, target, eb, path, **codec_params):
    """Pipeline pack with one chunk per field and a cross-field rule for ``target``."""
    spec = get_anchor_spec(fieldset.name, target)
    config = PipelineConfig(
        error_bound=eb,
        chunk_shape=fieldset.shape,
        fields={target: FieldRule(codec="cross-field", anchors=spec.anchors, codec_params=codec_params)},
    )
    CompressionPipeline(config).compress(fieldset, path, fields=[*spec.anchors, target])
    return spec


class TestEndToEnd:
    def test_disk_round_trip_then_compress(self, tmp_path, cesm_small):
        """Dataset written to SDRBench layout, read back, compressed, decompressed."""
        directory = write_fieldset(cesm_small, tmp_path / "cesm")
        loaded = read_fieldset(directory)
        data = loaded["FLUT"].data
        comp = SZCompressor(error_bound=ErrorBound.relative(1e-3))
        result = comp.compress(data)
        recon = comp.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)
        assert psnr(data, recon) > 40

    def test_multi_error_bound_monotonicity(self, cesm_small):
        """Looser bounds give higher ratios and lower PSNR for both compressors."""
        data = cesm_small["CLDTOT"].data
        ratios, psnrs = [], []
        for eb in (5e-3, 1e-3, 2e-4):
            comp = SZCompressor(error_bound=ErrorBound.relative(eb))
            result = comp.compress(data)
            recon = comp.decompress(result.payload)
            ratios.append(result.ratio)
            psnrs.append(psnr(data, recon))
        assert ratios[0] > ratios[1] > ratios[2]
        assert psnrs[0] < psnrs[1] < psnrs[2]

    def test_full_cross_field_workflow_matches_manual_pipeline(self, cesm_small, tmp_path):
        """A pipeline pack == manually compressing anchors, then the target on their reconstructions."""
        eb = ErrorBound.relative(1e-3)
        spec = _pack_whole_fields(cesm_small, "LWCF", eb, tmp_path / "a.xfa", epochs=2, n_patches=16)
        with ArchiveReader(tmp_path / "a.xfa") as reader:
            stored = reader.read_field("LWCF")

        target = cesm_small["LWCF"].data
        anchors = reconstruct_anchors(cesm_small, spec.anchors, eb)
        manual = CrossFieldCompressor(
            error_bound=eb, training=TrainingConfig(epochs=2, n_patches=16, seed=1234)
        )
        recon = manual.decompress(manual.compress(target, anchors).payload, anchors)
        assert np.array_equal(stored, recon)
        assert ssim(target, recon) > 0.8

    def test_cross_field_beats_or_matches_baseline_on_favourable_field(self):
        """On a strongly coupled field at moderate size, ours should not collapse.

        The gain itself depends on training budget and grid size, so the test
        only asserts the cross-field result stays within a sane band of the
        baseline while satisfying the same error bound (the benchmark suite
        measures the actual improvement).
        """
        ds = make_dataset("cesm", shape=(96, 192), seed=11)
        target = ds["LWCF"].data
        anchors = [ds[n].data.astype(np.float64) for n in ("FLUTC", "FLNT")]
        eb = ErrorBound.relative(1e-3)
        baseline = SZCompressor(error_bound=eb).compress(target)
        ours = CrossFieldCompressor(
            error_bound=eb, training=TrainingConfig(epochs=8, n_patches=48)
        ).compress(target, anchors)
        assert ours.ratio > 0.5 * baseline.ratio

    def test_3d_cross_field_full_stack(self, hurricane_small, tmp_path):
        eb = ErrorBound.relative(2e-3)
        _pack_whole_fields(hurricane_small, "Wf", eb, tmp_path / "h.xfa", epochs=2, n_patches=16)
        with ArchiveReader(tmp_path / "h.xfa") as reader:
            entry = reader.field("Wf")
            recon = reader.read_field("Wf")
        target = hurricane_small["Wf"].data
        assert entry.codec == "cross-field" and len(entry.chunks) == 1
        assert np.max(np.abs(recon.astype(np.float64) - target.astype(np.float64))) <= entry.abs_error_bound * (1 + 1e-9)
