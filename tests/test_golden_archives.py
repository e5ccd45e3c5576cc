"""Golden-archive conformance suite: the wire format may not drift.

Every fixture under ``tests/data/golden/`` is a frozen archive committed
together with its expected decoded output and raw manifest bytes
(regenerated — only on an *intentional* format change — by
``scripts/make_golden_archives.py``).  These tests decode the committed bytes
and compare **byte-exactly**: a change to the container framing, the manifest
schema, a codec payload layout, or an entropy coder's bit stream fails here
before it can silently break old archives in the field.

:class:`TestGoldenRebuild` pins the write side the same way: it rebuilds the
fixtures with the generator script's own builders and compares the archive
bytes with the committed ones.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.store import ArchiveReader
from repro.store.bytestore import FileByteStore
from repro.store.manifest import FOOTER_SIZE, MANIFEST_VERSION, read_manifest

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GENERATOR = Path(__file__).parent.parent / "scripts" / "make_golden_archives.py"

#: fixture stem -> the codecs the archive must exercise.
GOLDEN_CODECS = {
    "v1-huffman": {"sz"},
    "hfv2": {"sz"},
    "mixed-codec": {"sz", "zfp", "lossless"},
    "timeseries": {"sz", "temporal-delta"},
    "sz-hybrid": {"sz"},
    "zfp-progressive": {"zfp"},
}


def golden_path(stem: str) -> Path:
    path = GOLDEN_DIR / f"{stem}.xfa"
    assert path.exists(), (
        f"golden fixture {path} is missing; run "
        "`PYTHONPATH=src python scripts/make_golden_archives.py`"
    )
    return path


@pytest.mark.parametrize("stem", sorted(GOLDEN_CODECS))
class TestGoldenArchives:
    def test_read_field_is_byte_exact(self, stem):
        expected = np.load(golden_path(stem).with_suffix(".expected.npz"))
        with ArchiveReader(golden_path(stem)) as reader:
            assert sorted(reader.names) == sorted(expected.files)
            for name in reader.names:
                want = expected[name]
                got = reader.read_field(name)
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), (
                    f"{stem}:{name} decoded differently than when the fixture "
                    "was frozen — wire-format or decoder drift"
                )

    def test_manifest_bytes_are_stable(self, stem):
        committed = golden_path(stem).with_suffix(".manifest.json").read_bytes()
        with FileByteStore(path=golden_path(stem)) as store:
            manifest, offset, end = read_manifest(store)
            assert end == store.size()
            in_archive = store.pread(offset, end - FOOTER_SIZE - offset)
        assert in_archive == committed
        # the committed bytes stay parseable as plain JSON too
        payload = json.loads(committed.decode("utf-8"))
        assert payload["format"] == "XFA1"

    def test_exercises_expected_codecs(self, stem):
        with ArchiveReader(golden_path(stem)) as reader:
            codecs = {entry.codec for entry in reader.fields()}
        assert codecs == GOLDEN_CODECS[stem]

    def test_deep_verify_passes(self, stem):
        with ArchiveReader(golden_path(stem)) as reader:
            report = reader.verify(deep=True)
        assert report["ok"], report["errors"]


class TestV1Compatibility:
    def test_manifest_is_schema_v1_on_disk(self):
        payload = json.loads(
            golden_path("v1-huffman").with_suffix(".manifest.json").read_text()
        )
        assert payload["version"] == 1
        assert "timesteps" not in payload

    def test_v1_manifest_auto_upgrades_on_read(self):
        with ArchiveReader(golden_path("v1-huffman")) as reader:
            assert reader.manifest.version == MANIFEST_VERSION
            assert reader.timesteps == []
            # re-serialising writes the upgraded v2 form
            upgraded = json.loads(reader.manifest.to_json().decode("utf-8"))
        assert upgraded["version"] == MANIFEST_VERSION
        assert upgraded["timesteps"] == []

    def test_v1_and_v2_payloads_decode_identically(self):
        # same data, same codec parameters, different entropy payload layout:
        # the two fixtures must differ on disk yet decode to identical arrays
        v1 = np.load(golden_path("v1-huffman").with_suffix(".expected.npz"))
        v2 = np.load(golden_path("hfv2").with_suffix(".expected.npz"))
        assert sorted(v1.files) == sorted(v2.files)
        for name in v1.files:
            assert np.array_equal(v1[name], v2[name]), name
        with ArchiveReader(golden_path("v1-huffman")) as old_reader:
            with ArchiveReader(golden_path("hfv2")) as new_reader:
                for name in old_reader.names:
                    old_chunks = old_reader.field(name).chunks
                    new_chunks = new_reader.field(name).chunks
                    # the checkpointed HFV2 layout carries extra bit-offset
                    # tables, so at least one chunk payload must differ
                    assert any(
                        (a.length, a.crc32) != (b.length, b.crc32)
                        for a, b in zip(old_chunks, new_chunks)
                    ), f"{name}: v1 and v2 payloads are unexpectedly identical"


class TestGoldenSZHybrid:
    """The sz-hybrid fixture pins the vectorised predictor fast paths.

    Each field runs a different predictor, so a change to the batched
    wavefront/regression/interpolation decode paths that alters even one
    decoded byte fails here — the complement of the relative parity checks in
    ``tests/test_sz_parity.py``.
    """

    def test_covers_every_predictor(self):
        with ArchiveReader(golden_path("sz-hybrid")) as reader:
            predictors = {
                entry.codec_params.get("predictor") for entry in reader.fields()
            }
        assert predictors == {"lorenzo", "regression", "interpolation"}

    def test_predictor_params_pinned_in_manifest(self):
        payload = json.loads(
            golden_path("sz-hybrid").with_suffix(".manifest.json").read_text()
        )
        by_name = {f["name"]: f for f in payload["fields"]}
        assert by_name["FLNT"]["codec_params"]["predictor"] == "lorenzo"
        assert by_name["FLNTC"]["codec_params"]["predictor"] == "regression"
        assert by_name["LWCF"]["codec_params"]["predictor"] == "interpolation"


class TestGoldenZFPProgressive:
    """The zfp-progressive fixture pins the grouped (significance-ordered)
    payload layout, while mixed-codec pins the legacy interleaved one.

    Together they are the backward-compat contract of the layout change: the
    grouped fixture fails if the batched transform, the per-block step, or
    the per-group sections drift; the mixed-codec fixture (regenerated never)
    fails if legacy payloads stop decoding bit-identically.
    """

    def test_grouped_layout_pinned_in_manifest(self):
        payload = json.loads(
            golden_path("zfp-progressive").with_suffix(".manifest.json").read_text()
        )
        by_name = {f["name"]: f for f in payload["fields"]}
        assert sorted(by_name) == ["cube", "line", "plane", "ragged"]
        ndims = {name: len(by_name[name]["shape"]) for name in by_name}
        assert sorted(ndims.values()) == [1, 2, 2, 3]
        for name, entry in by_name.items():
            assert entry["codec"] == "zfp", name
            assert entry["codec_params"]["layout"] == "grouped", name

    def test_legacy_mixed_codec_payload_has_no_layout_param(self):
        # the compat fixture predates the layout param: its manifest must keep
        # not mentioning it, and its payloads decode as interleaved
        payload = json.loads(
            golden_path("mixed-codec").with_suffix(".manifest.json").read_text()
        )
        by_name = {f["name"]: f for f in payload["fields"]}
        assert by_name["FLNTC"]["codec"] == "zfp"
        assert "layout" not in by_name["FLNTC"]["codec_params"]

    def test_preview_reads_decode_prefixes(self):
        with ArchiveReader(golden_path("zfp-progressive")) as reader:
            expected = np.load(
                golden_path("zfp-progressive").with_suffix(".expected.npz")
            )
            for name in reader.names:
                full, info_full = reader.read_region_preview(name, None, fraction=1.0)
                assert np.array_equal(full, expected[name]), name
                assert info_full["bytes_decoded"] == info_full["bytes_total"]
                assert info_full["rms_error_estimate"] == 0.0
                coarse, info = reader.read_region_preview(name, None, fraction=0.25)
                assert coarse.shape == expected[name].shape
                assert info["bytes_decoded"] < info["bytes_total"], name
                assert info["groups_decoded"] < info["groups_total"], name
                assert info["rms_error_estimate"] > 0.0, name

    def test_legacy_zfp_preview_falls_back_to_full_decode(self):
        # interleaved payloads have no decodable prefix: the preview path must
        # return the bit-exact full decode and report everything as decoded
        expected = np.load(golden_path("mixed-codec").with_suffix(".expected.npz"))
        with ArchiveReader(golden_path("mixed-codec")) as reader:
            coarse, info = reader.read_region_preview("FLNTC", None, fraction=0.25)
        assert np.array_equal(coarse, expected["FLNTC"])
        assert info["bytes_decoded"] == info["bytes_total"]
        assert info["groups_decoded"] == info["groups_total"]


class TestGoldenTimeseries:
    def test_timestep_index(self):
        with ArchiveReader(golden_path("timeseries")) as reader:
            assert reader.steps == [0, 1, 2]
            entry = reader.manifest.timestep(1)
            assert entry.time == 0.5
            assert sorted(entry.fields) == ["FLNT", "FLNTC"]
            assert entry.fields["FLNT"] == "FLNT@1"
            # step 1 is delta-coded against step 0, anchored every 2 steps
            assert reader.field("FLNT@1").codec == "temporal-delta"
            assert reader.field("FLNT@1").anchors == ("FLNT@0",)
            assert reader.field("FLNT@2").codec == "sz"
            assert entry.temporal["FLNT"]["anchor_every"] == 2

    def test_read_timestep_is_byte_exact(self):
        expected = np.load(golden_path("timeseries").with_suffix(".expected.npz"))
        with ArchiveReader(golden_path("timeseries")) as reader:
            for entry in reader.timesteps:
                snapshot = reader.read_timestep(entry.step)
                for base, stored in entry.fields.items():
                    assert np.array_equal(snapshot[base].data, expected[stored]), (
                        entry.step,
                        base,
                    )

    def test_read_time_range(self):
        with ArchiveReader(golden_path("timeseries")) as reader:
            window = reader.read_time_range(1, 3)
            assert [entry.step for entry, _ in window] == [1, 2]
            direct = reader.read_timestep(2)
            for name in direct.names:
                assert np.array_equal(window[1][1][name].data, direct[name].data)


def _generator():
    spec = importlib.util.spec_from_file_location("make_golden_archives", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenRebuild:
    """Writing the fixtures again must reproduce the committed bytes.

    The decode tests above pin what old archives read back as; this pins what
    the encoder writes — Huffman tables, bit streams, section order and
    metadata alike.  ``mixed-codec`` is left out: it is the frozen legacy
    fixture, whose zfp payload the current default layout does not write.
    """

    @pytest.mark.parametrize("stem", ["v1-huffman", "hfv2", "sz-hybrid", "zfp-progressive", "timeseries"])
    def test_builder_reproduces_committed_bytes(self, stem, tmp_path):
        path = tmp_path / f"{stem}.xfa"
        _generator().BUILDERS[stem](path)
        assert path.read_bytes() == golden_path(stem).read_bytes(), (
            f"{stem}: the writer no longer produces the committed archive bytes"
        )
