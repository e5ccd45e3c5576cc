"""CompressionPipeline end to end: mixed codecs, cross-field, provenance."""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.pipeline import (
    CompressionPipeline,
    FieldRule,
    PipelineConfig,
    PipelineConfigError,
    reconstruct_anchors,
)
from repro.store import ArchiveReader
from repro.sz.errors import ErrorBound


@pytest.fixture(scope="module")
def cesm():
    return make_dataset("cesm", shape=(48, 96), seed=5)


@pytest.fixture(scope="module")
def mixed_archive(cesm, tmp_path_factory):
    config = PipelineConfig(
        name="mixed",
        codec="sz",
        error_bound=1e-3,
        chunk_shape=(24, 48),
        fields={
            "FLNTC": FieldRule(codec="zfp"),
            "FLUTC": FieldRule(codec="lossless"),
        },
        attrs={"run": "unit-test"},
    )
    path = tmp_path_factory.mktemp("pipeline") / "mixed.xfa"
    pipeline = CompressionPipeline(config)
    result = pipeline.compress(cesm, path, fields=["FLNT", "FLNTC", "FLUTC"])
    return pipeline, path, result


class TestCompress:
    def test_reports_per_field_codec_and_ratio(self, mixed_archive):
        _, _, result = mixed_archive
        by_name = {f.name: f for f in result.fields}
        assert by_name["FLNT"].codec == "sz"
        assert by_name["FLNTC"].codec == "zfp"
        assert by_name["FLUTC"].codec == "lossless"
        assert result.ratio > 1.0
        assert result.original_nbytes == 3 * 48 * 96 * 4
        assert "FLNT" in result.format()

    def test_error_bound_honoured_per_field(self, mixed_archive, cesm):
        pipeline, path, _ = mixed_archive
        restored = pipeline.decompress(path)
        for name in ("FLNT", "FLNTC"):
            err = np.max(
                np.abs(
                    restored[name].data.astype(np.float64)
                    - cesm[name].data.astype(np.float64)
                )
            )
            assert err <= 1e-3 * cesm[name].value_range * (1 + 1e-9)

    def test_lossless_rule_is_exact(self, mixed_archive, cesm):
        pipeline, path, _ = mixed_archive
        restored = pipeline.decompress(path, fields=["FLUTC"])
        assert restored.names == ["FLUTC"]
        assert np.array_equal(restored["FLUTC"].data, cesm["FLUTC"].data)

    def test_verify_passes(self, mixed_archive):
        pipeline, path, _ = mixed_archive
        assert pipeline.verify(path, deep=True)["ok"]

    def test_config_recorded_in_archive_attrs(self, mixed_archive):
        _, path, _ = mixed_archive
        with ArchiveReader(path) as reader:
            attrs = reader.attrs
        assert attrs["pipeline"] == "mixed"
        assert attrs["run"] == "unit-test"
        assert attrs["pipeline_config"]["fields"]["FLNTC"]["codec"] == "zfp"
        # the recorded config parses and validates as-is
        assert PipelineConfig.from_dict(attrs["pipeline_config"]).name == "mixed"

    def test_decompress_works_without_config(self, mixed_archive, cesm):
        _, path, _ = mixed_archive
        restored = CompressionPipeline().decompress(path)
        assert sorted(restored.names) == ["FLNT", "FLNTC", "FLUTC"]
        assert restored.name == cesm.name

    def test_jobs_knob_reaches_both_directions(self, cesm, tmp_path):
        # serial (jobs=1) and parallel pipelines must produce identical
        # archives and identical restored fieldsets — the engine only changes
        # scheduling, never results
        restored = {}
        for jobs in (1, 4):
            config = PipelineConfig(codec="sz", error_bound=1e-3, chunk_shape=(24, 48), jobs=jobs)
            pipeline = CompressionPipeline(config)
            path = tmp_path / f"jobs{jobs}.xfa"
            pipeline.compress(cesm, path, fields=["FLNT", "FLNTC"])
            assert pipeline.verify(path, deep=True)["ok"]
            restored[jobs] = pipeline.decompress(path)
        # identical compressed chunks (the recorded pipeline_config attr
        # differs by the jobs value itself, so whole files are not compared)
        crcs = {}
        for jobs in (1, 4):
            with ArchiveReader(tmp_path / f"jobs{jobs}.xfa") as reader:
                crcs[jobs] = {
                    name: [c.crc32 for c in reader.field(name).chunks] for name in reader.names
                }
        assert crcs[1] == crcs[4]
        for name in restored[1].names:
            assert np.array_equal(restored[1][name].data, restored[4][name].data)


class TestCrossFieldRules:
    def test_target_written_after_anchors_and_bounded(self, tmp_path):
        dataset = make_dataset("hurricane", shape=(8, 32, 32), seed=3).subset(
            ["Wf", "Uf", "Vf"]  # target listed first on purpose
        )
        config = PipelineConfig(
            codec="sz",
            error_bound=1e-3,
            chunk_shape=(8, 16, 16),
            fields={
                "Wf": FieldRule(
                    codec="cross-field",
                    anchors=("Uf", "Vf"),
                    codec_params={"epochs": 2, "n_patches": 8},
                )
            },
        )
        pipeline = CompressionPipeline(config)
        path = tmp_path / "cf.xfa"
        result = pipeline.compress(dataset, path)
        # anchors are reordered ahead of the anchored target
        assert [f.name for f in result.fields] == ["Uf", "Vf", "Wf"]
        with ArchiveReader(path) as reader:
            assert reader.field("Wf").anchors == ("Uf", "Vf")
        restored = pipeline.decompress(path)
        err = np.max(
            np.abs(
                restored["Wf"].data.astype(np.float64)
                - dataset["Wf"].data.astype(np.float64)
            )
        )
        assert err <= 1e-3 * dataset["Wf"].value_range * (1 + 1e-9)

    def test_missing_anchor_in_fieldset_fails_early(self, cesm, tmp_path):
        config = PipelineConfig(
            fields={"LWCF": FieldRule(codec="cross-field", anchors=("NOPE",))}
        )
        with pytest.raises(PipelineConfigError, match="not in the field set"):
            CompressionPipeline(config).compress(cesm, tmp_path / "x.xfa")
        assert not (tmp_path / "x.xfa").exists()

    def test_anchor_outside_selection_fails_early(self, cesm, tmp_path):
        config = PipelineConfig(
            fields={"LWCF": FieldRule(codec="cross-field", anchors=("FLNT",))}
        )
        with pytest.raises(PipelineConfigError, match="not part of the"):
            CompressionPipeline(config).compress(
                cesm, tmp_path / "x.xfa", fields=["LWCF"]
            )

    def test_unknown_selected_field_fails_early(self, cesm, tmp_path):
        with pytest.raises(PipelineConfigError, match="not in the field set"):
            CompressionPipeline().compress(cesm, tmp_path / "x.xfa", fields=["NOPE"])


class TestReconstructAnchors:
    def test_round_trip_respects_bound_and_dtype(self, cesm):
        (recon,) = reconstruct_anchors(cesm, ["FLNT"], ErrorBound.relative(1e-3))
        assert recon.dtype == np.float64
        err = np.max(np.abs(recon - cesm["FLNT"].data.astype(np.float64)))
        assert 0.0 < err <= 1e-3 * cesm["FLNT"].value_range * (1 + 1e-9)

    def test_cache_is_shared_and_keyed(self, cesm):
        cache = {}
        first = reconstruct_anchors(
            cesm, ["FLNT"], 1e-3, cache=cache, cache_key=("cesm", 1e-3)
        )
        again = reconstruct_anchors(
            cesm, ["FLNT"], 1e-3, cache=cache, cache_key=("cesm", 1e-3)
        )
        assert again[0] is first[0]
        assert set(cache) == {("cesm", 1e-3, "FLNT")}

    def test_bare_float_bound_means_relative(self, cesm):
        via_float = reconstruct_anchors(cesm, ["FLNTC"], 1e-3)
        via_bound = reconstruct_anchors(cesm, ["FLNTC"], ErrorBound.relative(1e-3))
        assert np.array_equal(via_float[0], via_bound[0])
