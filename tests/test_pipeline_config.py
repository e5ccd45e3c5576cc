"""PipelineConfig / FieldRule: JSON round-trip, strict parsing, validation."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.pipeline import FieldRule, PipelineConfig, PipelineConfigError
from repro.sz.errors import ErrorBound


def _full_config() -> PipelineConfig:
    return PipelineConfig(
        name="full",
        codec="sz",
        error_bound=ErrorBound.relative(1e-3),
        chunk_shape=(8, 16, 16),
        jobs=3,
        fields={
            "Wf": FieldRule(
                codec="cross-field",
                anchors=("Uf", "Vf"),
                error_bound=ErrorBound.absolute(0.5),
                codec_params={"epochs": 2, "n_patches": 8},
            ),
            "Pf": FieldRule(codec="lossless", chunk_shape=(4, 8, 8)),
        },
        source="hurricane",
        output="out.xfa",
        attrs={"note": "test"},
    )


class TestRoundTrip:
    def test_json_round_trip_is_exact(self):
        config = _full_config().validate()
        restored = PipelineConfig.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()

    def test_to_json_is_valid_json_with_sorted_keys(self):
        payload = json.loads(_full_config().to_json())
        assert payload["codec"] == "sz"
        assert payload["fields"]["Wf"]["anchors"] == ["Uf", "Vf"]

    def test_defaults_round_trip(self):
        config = PipelineConfig()
        restored = PipelineConfig.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()
        assert restored.error_bound == ErrorBound.relative(1e-3)

    def test_save_and_load(self, tmp_path):
        config = _full_config()
        path = config.save(tmp_path / "config.json")
        assert PipelineConfig.load(path).to_dict() == config.to_dict()

    def test_bare_number_error_bound_means_relative(self):
        config = PipelineConfig(error_bound=1e-4)
        assert config.error_bound == ErrorBound.relative(1e-4)

    def test_resolution_helpers(self):
        config = _full_config()
        assert config.codec_for("Uf") == "sz"
        assert config.codec_for("Wf") == "cross-field"
        assert config.error_bound_for("Uf") == ErrorBound.relative(1e-3)
        assert config.error_bound_for("Wf") == ErrorBound.absolute(0.5)

    def test_jobs_round_trips(self):
        assert PipelineConfig.from_json(_full_config().to_json()).jobs == 3
        assert PipelineConfig.from_json(PipelineConfig().to_json()).jobs is None


class TestValidationErrors:
    def test_unknown_codec(self):
        with pytest.raises(PipelineConfigError, match="unknown codec"):
            PipelineConfig(codec="nope").validate()

    def test_unknown_field_rule_codec(self):
        config = PipelineConfig(fields={"A": FieldRule(codec="nope")})
        with pytest.raises(PipelineConfigError, match="unknown codec"):
            config.validate()

    def test_unknown_entropy_in_codec_params(self):
        # entropy names are validated against the pluggable coder registry,
        # not a hard-coded tuple: a typo fails at validate() time
        config = PipelineConfig(fields={"A": FieldRule(codec_params={"entropy": "lzma"})})
        with pytest.raises(PipelineConfigError, match="unknown entropy coder"):
            config.validate()

    def test_registered_entropy_in_codec_params_accepted(self):
        for entropy in ("huffman", "zlib", "raw"):
            PipelineConfig(fields={"A": FieldRule(codec_params={"entropy": entropy})}).validate()

    def test_bad_executor_kind(self):
        # the key is gone: an old config is rejected and told the allowed keys,
        # 'jobs' (1 = serial) among them
        message = r"unknown key\(s\) \['executor_kind'\]; allowed: .*'jobs'"
        for kind in ("thread", "serial"):
            with pytest.raises(PipelineConfigError, match=message):
                PipelineConfig.from_dict({"executor_kind": kind})

    def test_bad_max_workers(self):
        # the legacy alias and the I/O backend switch are gone: unknown keys
        for key, value in (("max_workers", 2), ("io_backend", "file")):
            message = rf"unknown key\(s\) \['{key}'\]; allowed: .*'jobs'"
            with pytest.raises(PipelineConfigError, match=message):
                PipelineConfig.from_dict({key: value})

    def test_bad_jobs(self):
        with pytest.raises(PipelineConfigError, match="jobs"):
            PipelineConfig(jobs=0).validate()
        with pytest.raises(PipelineConfigError, match="jobs"):
            PipelineConfig(jobs="many").validate()
        with pytest.raises(PipelineConfigError, match="jobs"):
            PipelineConfig(jobs=True).validate()

    def test_non_positive_chunk_shape(self):
        with pytest.raises(PipelineConfigError, match="positive"):
            PipelineConfig(chunk_shape=(8, 0))

    def test_bad_error_bound_mode(self):
        with pytest.raises(PipelineConfigError, match="error bound"):
            PipelineConfig(error_bound={"mode": "typo", "value": 1e-3})

    def test_cross_field_without_anchors(self):
        config = PipelineConfig(fields={"A": FieldRule(codec="cross-field")})
        with pytest.raises(PipelineConfigError, match="requires at least one anchor"):
            config.validate()

    def test_anchors_on_non_anchored_codec(self):
        config = PipelineConfig(fields={"A": FieldRule(codec="sz", anchors=("B",))})
        with pytest.raises(PipelineConfigError, match="does not accept anchor"):
            config.validate()

    def test_self_anchor(self):
        config = PipelineConfig(
            fields={"A": FieldRule(codec="cross-field", anchors=("A",))}
        )
        with pytest.raises(PipelineConfigError, match="cannot anchor itself"):
            config.validate()

    def test_duplicate_anchors(self):
        config = PipelineConfig(
            fields={"A": FieldRule(codec="cross-field", anchors=("B", "B"))}
        )
        with pytest.raises(PipelineConfigError, match="distinct"):
            config.validate()

    def test_anchor_is_itself_a_target(self):
        config = PipelineConfig(
            fields={
                "A": FieldRule(codec="cross-field", anchors=("B",)),
                "B": FieldRule(codec="cross-field", anchors=("C",)),
            }
        )
        with pytest.raises(PipelineConfigError, match="itself a cross-field target"):
            config.validate()

    def test_non_serialisable_attrs(self):
        with pytest.raises(PipelineConfigError, match="JSON-serialisable"):
            PipelineConfig(attrs={"bad": object()}).validate()

    def test_string_chunk_shape_rejected(self):
        with pytest.raises(PipelineConfigError, match="string"):
            PipelineConfig(chunk_shape="24")
        with pytest.raises(PipelineConfigError, match="string"):
            PipelineConfig.from_dict({"chunk_shape": "24"})

    def test_string_anchors_rejected(self):
        with pytest.raises(PipelineConfigError, match="string"):
            FieldRule(codec="cross-field", anchors="Uf")
        with pytest.raises(PipelineConfigError, match="string"):
            PipelineConfig.from_dict(
                {"fields": {"A": {"codec": "cross-field", "anchors": "Uf"}}}
            )

    def test_reserved_codec_params_rejected(self):
        config = PipelineConfig(
            fields={"A": FieldRule(codec="sz", codec_params={"error_bound": 0.5})}
        )
        with pytest.raises(PipelineConfigError, match="reserved|dedicated"):
            config.validate()

    def test_non_object_attrs_and_codec_params(self):
        with pytest.raises(PipelineConfigError, match="attrs"):
            PipelineConfig.from_dict({"attrs": 5})
        with pytest.raises(PipelineConfigError, match="attrs"):
            PipelineConfig(attrs=5).validate()  # type: ignore[arg-type]
        with pytest.raises(PipelineConfigError, match="codec_params"):
            PipelineConfig.from_dict({"fields": {"A": {"codec_params": 5}}})

    def test_anchor_chunk_grid_mismatch(self):
        config = PipelineConfig(
            chunk_shape=(8, 16, 16),
            fields={
                "Wf": FieldRule(
                    codec="cross-field", anchors=("Uf",), chunk_shape=(4, 16, 16)
                )
            },
        )
        with pytest.raises(PipelineConfigError, match="aligned grids"):
            config.validate()
        # mismatch via the anchor's own rule is caught too
        config = PipelineConfig(
            fields={
                "Uf": FieldRule(chunk_shape=(4, 16, 16)),
                "Wf": FieldRule(codec="cross-field", anchors=("Uf",)),
            }
        )
        with pytest.raises(PipelineConfigError, match="aligned grids"):
            config.validate()


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(PipelineConfigError, match="unknown key"):
            PipelineConfig.from_dict({"codec": "sz", "typo_key": 1})

    def test_unknown_field_rule_key(self):
        with pytest.raises(PipelineConfigError, match="unknown key"):
            PipelineConfig.from_dict({"fields": {"A": {"kodec": "sz"}}})

    def test_invalid_json_text(self):
        with pytest.raises(PipelineConfigError, match="not valid JSON"):
            PipelineConfig.from_json("{nope")

    def test_non_object_config(self):
        with pytest.raises(PipelineConfigError, match="must be an object"):
            PipelineConfig.from_dict(["not", "a", "dict"])

    def test_non_object_fields(self):
        with pytest.raises(PipelineConfigError, match="field rules"):
            PipelineConfig.from_dict({"fields": ["A"]})

    def test_from_dict_validates(self):
        with pytest.raises(PipelineConfigError, match="unknown codec"):
            PipelineConfig.from_dict({"codec": "nope"})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PipelineConfigError, match="cannot read"):
            PipelineConfig.load(tmp_path / "absent.json")


class TestTemporalKeysRejected:
    """Time coding belongs to ``ArchiveWriter.add_timestep``, not to pack configs."""

    def test_pipeline_level_temporal_rejected(self):
        with pytest.raises(PipelineConfigError, match=r"unknown key.*'temporal'"):
            PipelineConfig.from_json(json.dumps({"temporal": {"mode": "delta"}}))

    def test_field_rule_temporal_rejected(self):
        payload = {"fields": {"FLNT": {"temporal": {"mode": "delta", "anchor_every": 4}}}}
        with pytest.raises(PipelineConfigError, match=r"field 'FLNT'.*unknown key.*'temporal'"):
            PipelineConfig.from_json(json.dumps(payload))


class TestDocs:
    @staticmethod
    def _documented_keys(table_heading):
        """First-column keys of the ``docs/pipeline.md`` table after ``table_heading``."""
        text = (Path(__file__).resolve().parents[1] / "docs" / "pipeline.md").read_text()
        table = text.split(table_heading, 1)[1].split("\n\n", 2)[1]
        return [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]

    def test_top_level_key_table_matches_config_fields(self):
        documented = self._documented_keys("Top-level keys")
        assert sorted(documented) == sorted(f.name for f in dataclasses.fields(PipelineConfig))

    def test_field_rule_key_table_matches_rule_fields(self):
        documented = self._documented_keys("Per-field rule keys")
        assert sorted(documented) == sorted(f.name for f in dataclasses.fields(FieldRule))
