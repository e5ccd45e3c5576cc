"""Integration tests for the cross-field compressor."""

import numpy as np
import pytest

import repro.core.compressor as compressor_module
from repro.core import CFNN, CFNNConfig, CrossFieldCompressor, TrainingConfig
from repro.core.anchors import get_anchor_spec
from repro.encoding.container import CompressedBlob
from repro.pipeline import CompressionPipeline, FieldRule, PipelineConfig
from repro.store import ArchiveReader
from repro.sz import ErrorBound
from repro.sz.decode import decode_weighted_sequential

FAST_TRAINING = TrainingConfig(epochs=2, n_patches=16, batch_size=4, patch_size_2d=16, patch_size_3d=8)


class TestCrossFieldCompressor2D:
    @pytest.fixture(scope="class")
    def compressed(self, request):
        cesm = request.getfixturevalue("cesm_small")
        anchors = [cesm[n].data.astype(np.float64) for n in ("CLDLOW", "CLDMED", "CLDHGH")]
        target = cesm["CLDTOT"].data
        comp = CrossFieldCompressor(
            error_bound=ErrorBound.relative(1e-3), training=FAST_TRAINING, allow_fallback=False
        )
        result = comp.compress(target, anchors, field_name="CLDTOT")
        return comp, result, target, anchors

    def test_error_bound_respected(self, compressed):
        comp, result, target, anchors = compressed
        recon = comp.decompress(result.payload, anchors)
        error = np.max(np.abs(recon.astype(np.float64) - target.astype(np.float64)))
        assert error <= result.abs_error_bound * (1 + 1e-9)

    def test_metadata_records_models(self, compressed):
        _, result, _, _ = compressed
        assert result.metadata["cfnn_parameters"] > 0
        assert result.metadata["hybrid_parameters"] == 3
        assert "model.cfnn" in result.section_sizes
        assert len(result.metadata["hybrid"]["weights"]) == 3

    def test_sequential_and_wavefront_decoders_agree(self, compressed, monkeypatch):
        comp, result, _, anchors = compressed
        wavefront = comp.decompress(result.payload, anchors)
        # replay the same payload through the point-by-point reference decoder
        monkeypatch.setattr(compressor_module, "decode_weighted_wavefront", decode_weighted_sequential)
        sequential = comp.decompress(result.payload, anchors)
        assert np.array_equal(wavefront, sequential)

    def test_wrong_anchor_count_rejected(self, compressed):
        comp, result, _, anchors = compressed
        with pytest.raises(ValueError):
            comp.decompress(result.payload, anchors[:1])

    def test_wrong_anchor_shape_rejected(self, compressed):
        comp, result, _, anchors = compressed
        bad = [a[:-1, :-1] for a in anchors]
        with pytest.raises(ValueError):
            comp.decompress(result.payload, bad)


class TestCrossFieldCompressor3D:
    def test_round_trip_3d(self, hurricane_small):
        anchors = [hurricane_small[n].data.astype(np.float64) for n in ("Uf", "Vf", "Pf")]
        target = hurricane_small["Wf"].data
        comp = CrossFieldCompressor(error_bound=ErrorBound.relative(1e-3), training=FAST_TRAINING)
        result = comp.compress(target, anchors)
        recon = comp.decompress(result.payload, anchors)
        assert np.max(np.abs(recon.astype(np.float64) - target.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)
        assert result.metadata["hybrid_parameters"] == 4


class TestModelReuseAndOptions:
    def test_pretrained_model_reused_across_error_bounds(self, cesm_small):
        anchors = [cesm_small[n].data.astype(np.float64) for n in ("FLUTC", "FLNT")]
        target = cesm_small["LWCF"].data
        cfnn = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        cfnn.train(anchors, target.astype(np.float64), FAST_TRAINING)
        for eb in (1e-3, 5e-4):
            comp = CrossFieldCompressor(error_bound=ErrorBound.relative(eb))
            result = comp.compress(target, anchors, cfnn=cfnn)
            recon = comp.decompress(result.payload, anchors)
            assert np.max(np.abs(recon.astype(np.float64) - target.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)

    def test_untrained_supplied_model_rejected(self, cesm_small):
        anchors = [cesm_small[n].data for n in ("FLUTC", "FLNT")]
        comp = CrossFieldCompressor()
        with pytest.raises(ValueError):
            comp.compress(cesm_small["LWCF"].data, anchors, cfnn=CFNN(CFNNConfig(n_anchors=2, ndim=2)))

    def test_exclude_model_requires_model_at_decompression(self, cesm_small):
        anchors = [cesm_small[n].data.astype(np.float64) for n in ("FLUTC", "FLNT")]
        target = cesm_small["LWCF"].data
        cfnn = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        cfnn.train(anchors, target.astype(np.float64), FAST_TRAINING)
        comp = CrossFieldCompressor(error_bound=ErrorBound.relative(1e-3), allow_fallback=False)
        result = comp.compress(target, anchors, cfnn=cfnn)
        assert result.metadata["model_included"] is True
        # the model always travels in the stream; a hybrid payload without it is refused
        blob = CompressedBlob.from_bytes(result.payload)
        blob.metadata["model_included"] = False
        del blob.sections["model.cfnn"]
        with pytest.raises(ValueError, match="does not embed its CFNN"):
            comp.decompress(blob.to_bytes(), anchors)

    def test_no_anchors_rejected(self, cesm_small):
        with pytest.raises(ValueError):
            CrossFieldCompressor().compress(cesm_small["LWCF"].data, [])

    def test_mismatched_anchor_grid_rejected(self, cesm_small):
        with pytest.raises(ValueError):
            CrossFieldCompressor().compress(cesm_small["LWCF"].data, [np.zeros((4, 4))])

    def test_invalid_constructor_options(self):
        with pytest.raises(TypeError):
            CrossFieldCompressor(error_bound=0.001)


def _pack(fieldset, target, eb, path, cross_field):
    """One-chunk-per-field pipeline pack of ``target`` and its anchors."""
    spec = get_anchor_spec(fieldset.name, target)
    rules = {}
    if cross_field:
        rules[target] = FieldRule(
            codec="cross-field", anchors=spec.anchors, codec_params={"epochs": 2, "n_patches": 16}
        )
    config = PipelineConfig(error_bound=eb, chunk_shape=fieldset.shape, fields=rules)
    return spec, CompressionPipeline(config).compress(fieldset, path, fields=[*spec.anchors, target])


class TestFieldSetOrchestration:
    def test_compress_fieldset_report(self, cesm_small, tmp_path):
        eb = ErrorBound.relative(1e-3)
        spec, ours = _pack(cesm_small, "LWCF", eb, tmp_path / "ours.xfa", cross_field=True)
        _, baseline = _pack(cesm_small, "LWCF", eb, tmp_path / "base.xfa", cross_field=False)
        reports = {f.name: f for f in ours.fields}
        # anchors are stored first with the baseline codec, then the target
        assert [f.name for f in ours.fields] == [*spec.anchors, "LWCF"]
        assert all(reports[name].codec == "sz" for name in spec.anchors)
        assert reports["LWCF"].codec == "cross-field"
        assert reports["LWCF"].anchors == tuple(spec.anchors)
        baseline_lwcf = {f.name: f for f in baseline.fields}["LWCF"]
        assert baseline_lwcf.codec == "sz"
        assert baseline_lwcf.ratio > 1.0
        assert reports["LWCF"].ratio > 1.0
        assert "LWCF" in ours.format()

    def test_baseline_and_ours_share_error_bound_guarantee(self, cesm_small, tmp_path):
        eb = ErrorBound.relative(2e-3)
        _pack(cesm_small, "CLDTOT", eb, tmp_path / "a.xfa", cross_field=True)
        with ArchiveReader(tmp_path / "a.xfa") as reader:
            codecs = set()
            for name in reader.names:
                entry = reader.field(name)
                target = cesm_small[name].data.astype(np.float64)
                recon = reader.read_field(name).astype(np.float64)
                codecs.add(entry.codec)
                # both codecs resolve the relative bound the same way, on the full field
                assert entry.abs_error_bound == eb.resolve(cesm_small[name].data)
                assert np.max(np.abs(recon - target)) <= entry.abs_error_bound * (1 + 1e-9)
        assert codecs == {"sz", "cross-field"}

