"""Unit tests for anchor-field specifications."""

import pytest

from repro.core.anchors import ANCHOR_TABLE, AnchorSpec, get_anchor_spec, list_anchor_specs, suggest_anchors


class TestAnchorSpec:
    def test_paper_table_contains_all_six_targets(self):
        keys = {(spec.dataset, spec.target) for spec in ANCHOR_TABLE.values()}
        assert ("scale", "RH") in keys
        assert ("scale", "W") in keys
        assert ("hurricane", "Wf") in keys
        assert ("cesm", "CLDTOT") in keys
        assert ("cesm", "LWCF") in keys
        assert ("cesm", "FLUT") in keys

    def test_get_anchor_spec_matches_paper(self):
        spec = get_anchor_spec("hurricane", "Wf")
        assert spec.anchors == ("Uf", "Vf", "Pf")
        spec = get_anchor_spec("cesm", "CLDTOT")
        assert spec.anchors == ("CLDLOW", "CLDMED", "CLDHGH")

    def test_dataset_alias(self):
        assert get_anchor_spec("CESM-ATM", "LWCF").anchors == ("FLUTC", "FLNT")
        assert {s.target for s in list_anchor_specs("scale-letkf")} == {"RH", "W"}

    def test_unknown_spec(self):
        with pytest.raises(KeyError):
            get_anchor_spec("cesm", "UNKNOWN")

    def test_list_by_dataset(self):
        specs = list_anchor_specs("cesm")
        assert {s.target for s in specs} == {"CLDTOT", "LWCF", "FLUT"}
        assert len(list_anchor_specs()) >= 6

    def test_validate_against_fieldset(self, cesm_small):
        get_anchor_spec("cesm", "CLDTOT").validate(cesm_small)

    def test_validate_missing_field(self, cesm_small):
        spec = AnchorSpec("cesm", "CLDTOT", ("NOT_A_FIELD",))
        with pytest.raises(KeyError):
            spec.validate(cesm_small)

    def test_validate_self_anchor(self, cesm_small):
        spec = AnchorSpec("cesm", "CLDTOT", ("CLDTOT",))
        with pytest.raises(ValueError):
            spec.validate(cesm_small)

    def test_validate_duplicate_anchor(self, cesm_small):
        spec = AnchorSpec("cesm", "CLDTOT", ("CLDLOW", "CLDLOW"))
        with pytest.raises(ValueError):
            spec.validate(cesm_small)

    def test_validate_empty_anchor(self, cesm_small):
        spec = AnchorSpec("cesm", "CLDTOT", ())
        with pytest.raises(ValueError):
            spec.validate(cesm_small)


class TestSuggestAnchors:
    def test_suggests_related_fields(self, cesm_small):
        spec = suggest_anchors(cesm_small, "CLDTOT", max_anchors=3)
        assert len(spec.anchors) == 3
        assert "CLDTOT" not in spec.anchors
        # the per-level cloud fractions are the strongest MI partners by construction
        assert len(set(spec.anchors) & {"CLDLOW", "CLDMED", "CLDHGH"}) >= 1

    def test_unknown_target(self, cesm_small):
        with pytest.raises(KeyError):
            suggest_anchors(cesm_small, "nope")

    def test_invalid_max_anchors(self, cesm_small):
        with pytest.raises(ValueError):
            suggest_anchors(cesm_small, "CLDTOT", max_anchors=0)
