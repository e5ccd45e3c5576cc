"""Time-stepped archives: append mode, temporal delta coding, crash consistency.

The crash-consistency property tests truncate an appended archive at
arbitrary byte offsets (Hypothesis) and assert the contract: reopening either
recovers exactly the fully flushed timesteps or raises a clean
:class:`ArchiveError` — never garbage data, never an unhandled struct/zlib
error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    ArchiveError,
    ArchiveReader,
    ArchiveWriter,
    TemporalDeltaCodec,
    TemporalSpec,
    stored_field_name,
)
from repro.sz.errors import ErrorBound

BOUND = 0.01


def _series(steps=5, shape=(16, 24), seed=0):
    """Smooth, temporally correlated little test series."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=shape), axis=1).astype(np.float32)
    return [
        base + 0.05 * t + 0.01 * rng.normal(size=shape).astype(np.float32)
        for t in range(steps)
    ]


def _write_steps(path, series, mode_for_step, spec=TemporalSpec(anchor_every=2)):
    """Write step 0 fresh, then append; returns per-flush file sizes."""
    publish_points = []
    for t, data in enumerate(series):
        with ArchiveWriter(
            path,
            chunk_shape=(8, 8),
            error_bound=ErrorBound.absolute(BOUND),
            mode=mode_for_step(t),
        ) as writer:
            writer.add_timestep({"T": data}, time=0.5 * t, temporal=spec)
        publish_points.append(path.stat().st_size)
    return publish_points


class TestAddTimestep:
    def test_round_trip_within_bound_every_step(self, tmp_path):
        series = _series()
        path = tmp_path / "a.xfa"
        _write_steps(path, series, lambda t: "w" if t == 0 else "a")
        with ArchiveReader(path) as reader:
            assert reader.steps == [0, 1, 2, 3, 4]
            codecs = [reader.field(stored_field_name("T", t)).codec for t in range(5)]
            # anchors at occurrences 0, 2, 4 with anchor_every=2
            assert codecs == ["sz", "temporal-delta", "sz", "temporal-delta", "sz"]
            assert reader.manifest.timestep(2).time == 1.0
            for t, original in enumerate(series):
                recon = reader.read_timestep(t)["T"].data
                assert recon.dtype == original.dtype
                err = np.max(np.abs(recon.astype(np.float64) - original.astype(np.float64)))
                assert err <= BOUND * (1 + 1e-6), f"step {t}"

    def test_append_matches_single_shot_bit_exactly(self, tmp_path):
        series = _series()
        single, appended = tmp_path / "single.xfa", tmp_path / "appended.xfa"
        # single-shot: one writer session for all steps
        with ArchiveWriter(
            single, chunk_shape=(8, 8), error_bound=ErrorBound.absolute(BOUND)
        ) as writer:
            for t, data in enumerate(series):
                writer.add_timestep({"T": data}, time=0.5 * t, temporal=TemporalSpec(anchor_every=2))
        _write_steps(appended, series, lambda t: "w" if t == 0 else "a")
        with ArchiveReader(single) as ref, ArchiveReader(appended) as got:
            assert ref.steps == got.steps
            for t in ref.steps:
                assert np.array_equal(
                    ref.read_timestep(t)["T"].data, got.read_timestep(t)["T"].data
                ), f"step {t}"

    def test_auto_step_ids_and_monotonicity(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            data = np.ones((8, 8), dtype=np.float32)
            assert writer.add_timestep({"x": data}).step == 0
            assert writer.add_timestep({"x": data}, step=5).step == 5
            assert writer.add_timestep({"x": data}).step == 6
            with pytest.raises(ArchiveError, match="strictly increasing"):
                writer.add_timestep({"x": data}, step=3)

    def test_field_names_with_at_rejected(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="must not contain '@'"):
                writer.add_timestep({"x@1": np.ones((8, 8), dtype=np.float32)})

    def test_empty_timestep_rejected(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="at least one field"):
                writer.add_timestep({})

    def test_unknown_temporal_field_rejected(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="unknown field"):
                writer.add_timestep(
                    {"x": np.ones((8, 8), dtype=np.float32)},
                    temporal={"nope": TemporalSpec()},
                )

    def test_read_time_range_and_subset(self, tmp_path):
        series = _series(steps=4)
        path = tmp_path / "a.xfa"
        _write_steps(path, series, lambda t: "w" if t == 0 else "a")
        with ArchiveReader(path) as reader:
            window = reader.read_time_range(1, 3)
            assert [entry.step for entry, _ in window] == [1, 2]
            for entry, snapshot in window:
                assert np.array_equal(
                    snapshot["T"].data, reader.read_timestep(entry.step)["T"].data
                )
            with pytest.raises(ArchiveError, match="no field"):
                reader.read_timestep(1, fields=["missing"])
            with pytest.raises(ArchiveError, match="no timestep"):
                reader.read_timestep(99)

    def test_field_rules_override_writer_defaults_per_field(self, tmp_path):
        data = _series(steps=1)[0]
        path = tmp_path / "a.xfa"
        with ArchiveWriter(
            path, chunk_shape=(8, 12), error_bound=ErrorBound.absolute(BOUND)
        ) as writer:
            writer.add_timestep(
                {"T": data, "P": data * 2},
                field_rules={
                    "P": {
                        "codec": "zfp",
                        "chunk_shape": (16, 24),
                        "error_bound": ErrorBound.absolute(0.1),
                    }
                },
            )
        with ArchiveReader(path) as reader:
            t_entry, p_entry = reader.field("T@0"), reader.field("P@0")
            # a field without a rule takes the writer's defaults
            assert (t_entry.codec, tuple(t_entry.chunk_shape)) == ("sz", (8, 12))
            assert t_entry.abs_error_bound == pytest.approx(BOUND)
            # a rule sets codec, chunk grid and bound for its field alone
            assert (p_entry.codec, tuple(p_entry.chunk_shape)) == ("zfp", (16, 24))
            assert p_entry.abs_error_bound == pytest.approx(0.1)
            snapshot = reader.read_timestep(0)
            assert np.max(np.abs(snapshot["T"].data - data)) <= BOUND * (1 + 1e-6)
            assert np.max(np.abs(snapshot["P"].data - data * 2)) <= 0.1 * (1 + 1e-6)

    def test_append_inherits_recorded_temporal_spec(self, tmp_path):
        path = tmp_path / "a.xfa"
        data = np.ones((16, 16), dtype=np.float32)
        with ArchiveWriter(path, error_bound=ErrorBound.absolute(BOUND)) as writer:
            writer.add_timestep({"x": data}, temporal=TemporalSpec(anchor_every=2))
        # no temporal argument: the append continues the recorded cadence
        for _ in range(2):
            with ArchiveWriter(path, mode="a", error_bound=ErrorBound.absolute(BOUND)) as writer:
                writer.add_timestep({"x": data})
        with ArchiveReader(path) as reader:
            assert [reader.field(f"x@{t}").codec for t in range(3)] == [
                "sz", "temporal-delta", "sz",  # occurrence 2 is an anchor: K=2 held
            ]
            assert reader.field("x@1").anchors == ("x@0",)
            assert reader.manifest.timestep(2).temporal["x"]["anchor_every"] == 2
        # temporal={} explicitly opts out: stored independently, no spec recorded
        with ArchiveWriter(path, mode="a", error_bound=ErrorBound.absolute(BOUND)) as writer:
            entry = writer.add_timestep({"x": data}, temporal={})
        assert entry.temporal == {}
        with ArchiveReader(path) as reader:
            assert reader.field("x@3").codec == "sz"
        # ...and the opt-out itself is what later flagless appends continue:
        # delta coding must not be resurrected from an older recorded spec
        with ArchiveWriter(path, mode="a", error_bound=ErrorBound.absolute(BOUND)) as writer:
            entry = writer.add_timestep({"x": data})
        assert entry.temporal == {}
        with ArchiveReader(path) as reader:
            assert reader.field("x@4").codec == "sz"

    def test_append_without_rules_continues_bound_and_codec_params(self, tmp_path):
        path = tmp_path / "a.xfa"
        series = _series(steps=2)
        with ArchiveWriter(path) as writer:
            writer.add_timestep(
                {"T": series[0]},
                field_rules={
                    "T": {
                        "error_bound": ErrorBound.absolute(1e-5),
                        "codec_params": {"entropy": "zlib"},
                    }
                },
            )
        # no rule: the recorded bound and entropy coder carry over instead of
        # the writer's defaults (rel 1e-3, huffman)
        with ArchiveWriter(path, mode="a") as writer:
            writer.add_timestep({"T": series[1]})
        with ArchiveReader(path) as reader:
            entry = reader.field("T@1")
            assert entry.error_bound == {"mode": "abs", "value": 1e-5}
            assert entry.codec_params["entropy"] == "zlib"

    def test_temporal_string_and_spec_dict_forms_rejected(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            data = {"x": np.ones((8, 8), dtype=np.float32)}
            with pytest.raises(ArchiveError, match="temporal must be"):
                writer.add_timestep(data, temporal="delta")
            with pytest.raises(ArchiveError, match="unknown field 'mode'"):
                writer.add_timestep(data, temporal={"mode": "delta"})
            with pytest.raises(ArchiveError, match="must be a TemporalSpec"):
                writer.add_timestep(data, temporal={"x": "delta"})

    def test_anchored_codecs_cannot_carry_a_stream(self, tmp_path):
        # anchors live within one snapshot: neither a step's codec nor a
        # delta base may need them, and a refused step records nothing
        data = {"x": np.ones((8, 8), dtype=np.float32)}
        with ArchiveWriter(tmp_path / "a.xfa") as writer:
            with pytest.raises(ArchiveError, match="requires at least one anchor"):
                writer.add_timestep(data, field_rules={"x": {"codec": "cross-field"}})
            with pytest.raises(ArchiveError, match="requires at least one anchor"):
                writer.add_timestep(data, temporal=TemporalSpec(base="cross-field"))
            assert writer.manifest.names == [] and writer.manifest.timesteps == []

    def test_append_inherits_chunk_grid(self, tmp_path):
        path = tmp_path / "a.xfa"
        data = np.ones((32, 32), dtype=np.float32)
        with ArchiveWriter(path, chunk_shape=(8, 8)) as writer:
            writer.add_timestep({"x": data}, temporal=TemporalSpec(anchor_every=4))
        # the append session does not restate chunk_shape; the delta anchor
        # alignment requirement means the grid must carry over
        with ArchiveWriter(path, mode="a") as writer:
            writer.add_timestep({"x": data}, temporal=TemporalSpec(anchor_every=4))
        with ArchiveReader(path) as reader:
            assert reader.field("x@1").chunk_shape == (8, 8)
            assert reader.field("x@1").codec == "temporal-delta"


class TestAppendMode:
    def test_append_to_missing_archive_rejected(self, tmp_path):
        with pytest.raises(ArchiveError, match="existing archive"):
            ArchiveWriter(tmp_path / "missing.xfa", mode="a")

    def test_append_to_non_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.xfa"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(ArchiveError):
            ArchiveWriter(path, mode="a")

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ArchiveError, match="mode"):
            ArchiveWriter(tmp_path / "a.xfa", mode="r")

    def test_plain_fields_can_be_appended(self, tmp_path, rng):
        path = tmp_path / "a.xfa"
        first = rng.normal(size=(16, 16)).astype(np.float32)
        second = rng.normal(size=(16, 16)).astype(np.float32)
        with ArchiveWriter(path) as writer:
            writer.add_field("a", first, codec="lossless")
        with ArchiveWriter(path, mode="a") as writer:
            writer.add_field("b", second, codec="lossless")
        with ArchiveReader(path) as reader:
            assert reader.names == ["a", "b"]
            assert np.array_equal(reader.read_field("a"), first)
            assert np.array_equal(reader.read_field("b"), second)

    def test_aborted_append_rolls_back_to_last_flush(self, tmp_path):
        series = _series(steps=2)
        path = tmp_path / "a.xfa"
        _write_steps(path, series, lambda t: "w" if t == 0 else "a")
        good = path.read_bytes()
        with pytest.raises(RuntimeError):
            with ArchiveWriter(path, mode="a") as writer:
                writer.add_field("extra", series[0])  # written, not yet flushed
                raise RuntimeError("boom mid-append")
        # the archive is byte-identical to its last flushed state
        assert path.read_bytes() == good
        with ArchiveReader(path) as reader:
            assert reader.steps == [0, 1]
        # and an aborted writer refuses to pretend it succeeded
        writer = ArchiveWriter(path, mode="a")
        writer.__exit__(RuntimeError, RuntimeError("boom"), None)
        with pytest.raises(ArchiveError, match="aborted"):
            writer.close()

    def test_append_attrs_merge(self, tmp_path):
        path = tmp_path / "a.xfa"
        with ArchiveWriter(path, attrs={"run": "one"}) as writer:
            writer.add_field("x", np.ones((8, 8), dtype=np.float32), codec="lossless")
        with ArchiveWriter(path, mode="a", attrs={"note": "appended"}) as writer:
            writer.add_field("y", np.ones((8, 8), dtype=np.float32), codec="lossless")
        with ArchiveReader(path) as reader:
            assert reader.attrs["run"] == "one"
            assert reader.attrs["note"] == "appended"


class TestTemporalSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            TemporalSpec(mode="sideways")
        with pytest.raises(ValueError, match="anchor_every"):
            TemporalSpec(anchor_every=0)
        with pytest.raises(ValueError, match="anchor_every"):
            TemporalSpec(anchor_every=True)

    def test_round_trip(self):
        spec = TemporalSpec(mode="delta", anchor_every=4, base="zfp")
        assert TemporalSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown key"):
            TemporalSpec.from_dict({"mode": "delta", "cadence": 3})


class TestTemporalDeltaCodec:
    def test_lossless_base_is_exact(self, rng):
        codec = TemporalDeltaCodec(base="lossless")
        previous = rng.normal(size=(8, 8))
        chunk = previous + rng.normal(size=(8, 8))
        payload = codec.encode(chunk, anchors=[previous])
        decoded = codec.decode(payload, anchors=[previous])
        assert np.array_equal(decoded, chunk)
        assert codec.params() == {"base": "lossless", "base_params": {}}

    def test_anchored_base_rejected(self):
        with pytest.raises(ValueError, match="without anchors"):
            TemporalDeltaCodec(base="cross-field")
        with pytest.raises(ValueError, match="without anchors"):
            TemporalDeltaCodec(base="temporal-delta")

    def test_requires_exactly_one_anchor(self, rng):
        codec = TemporalDeltaCodec(error_bound=ErrorBound.absolute(0.1))
        chunk = rng.normal(size=(8, 8))
        with pytest.raises(ValueError, match="exactly one anchor"):
            codec.encode(chunk, anchors=None)
        with pytest.raises(ValueError, match="exactly one anchor"):
            codec.encode(chunk, anchors=[chunk, chunk])


@pytest.fixture(scope="module")
def truncation_archive(tmp_path_factory):
    """One appended archive + per-flush publish points + reference decodes."""
    path = tmp_path_factory.mktemp("crash") / "series.xfa"
    series = _series(steps=4)
    publish_points = _write_steps(path, series, lambda t: "w" if t == 0 else "a")
    with ArchiveReader(path) as reader:
        reference = {t: reader.read_timestep(t)["T"].data for t in reader.steps}
    return path.read_bytes(), publish_points, reference


class TestCrashConsistency:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncated_archive_recovers_or_fails_cleanly(
        self, data, truncation_archive, tmp_path_factory
    ):
        raw, publish_points, reference = truncation_archive
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        path = tmp_path_factory.mktemp("cut") / "t.xfa"
        path.write_bytes(raw[:cut])

        # steps durably flushed before the cut
        flushed = sum(1 for point in publish_points if point <= cut)

        # plain reopen: success only when the cut lands exactly on a flush
        # boundary; anything else must be a *clean* ArchiveError
        try:
            with ArchiveReader(path) as reader:
                assert cut in publish_points
                assert reader.steps == list(range(flushed))
        except ArchiveError:
            assert cut not in publish_points

        # recovery reopen: everything flushed before the cut comes back, with
        # data identical to the intact archive; before the first flush there
        # is nothing to recover and the error stays clean
        try:
            with ArchiveReader(path, recover=True) as reader:
                assert flushed > 0
                assert reader.steps == list(range(flushed))
                for t in reader.steps:
                    assert np.array_equal(reader.read_timestep(t)["T"].data, reference[t])
                assert reader.verify(deep=True)["ok"]
        except ArchiveError:
            assert flushed == 0

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_append_resumes_after_truncation(self, data, truncation_archive, tmp_path_factory):
        raw, publish_points, reference = truncation_archive
        # cut somewhere after the first flush so recovery has a resume point
        cut = data.draw(st.integers(min_value=publish_points[0], max_value=len(raw)))
        path = tmp_path_factory.mktemp("resume") / "t.xfa"
        path.write_bytes(raw[:cut])
        flushed = sum(1 for point in publish_points if point <= cut)

        if cut not in publish_points:
            with pytest.raises(ArchiveError):
                ArchiveWriter(path, mode="a")
        with ArchiveWriter(
            path, mode="a", recover=True, error_bound=ErrorBound.absolute(BOUND)
        ) as writer:
            assert writer.manifest.steps == list(range(flushed))
            writer.add_timestep(
                {"T": reference[0]}, temporal=TemporalSpec(anchor_every=2)
            )
        with ArchiveReader(path) as reader:
            assert reader.steps == list(range(flushed + 1))
            assert reader.verify(deep=True)["ok"]


class TestManifestTimestepIndex:
    def test_newer_manifest_version_rejected(self):
        from repro.store import ArchiveManifest

        payload = ArchiveManifest().to_json().decode("utf-8").replace('"version": 2', '"version": 3')
        with pytest.raises(ArchiveError, match="newer"):
            ArchiveManifest.from_json(payload.encode("utf-8"))

    def test_timestep_entry_requires_fields(self):
        from repro.store import TimestepEntry
        from repro.store.manifest import ArchiveCorruptionError

        with pytest.raises(ArchiveCorruptionError, match="at least one field"):
            TimestepEntry.from_dict({"step": 0, "time": None, "fields": {}})

    def test_timestep_referencing_unknown_field_rejected(self):
        from repro.store import ArchiveManifest, TimestepEntry

        manifest = ArchiveManifest()
        with pytest.raises(ArchiveError, match="not in the archive"):
            manifest.add_timestep(TimestepEntry(step=0, fields={"T": "T@0"}))

    def test_corrupt_timestep_index_reported_cleanly(self, tmp_path):
        # a CRC-valid manifest whose timestep index is malformed must raise
        # through the Archive error hierarchy, not a bare KeyError/TypeError
        from repro.store import ArchiveManifest

        good = ArchiveManifest.from_json(ArchiveManifest().to_json())
        assert good.timesteps == []
        import json as _json

        payload = _json.loads(ArchiveManifest().to_json())
        payload["timesteps"] = [{"time": 1.0}]  # no step, no fields
        with pytest.raises(ArchiveError):
            ArchiveManifest.from_json(_json.dumps(payload).encode("utf-8"))

    def test_round_trip_preserves_timesteps(self, tmp_path):
        series = _series(steps=3)
        path = tmp_path / "a.xfa"
        _write_steps(path, series, lambda t: "w" if t == 0 else "a")
        from repro.store import ArchiveManifest

        with ArchiveReader(path) as reader:
            rebuilt = ArchiveManifest.from_json(reader.manifest.to_json())
            assert [e.to_dict() for e in rebuilt.timesteps] == [
                e.to_dict() for e in reader.manifest.timesteps
            ]


class TestTimestepTransactionality:
    def test_failed_timestep_leaves_no_orphan_fields(self, tmp_path):
        path = tmp_path / "a.xfa"
        good = np.ones((16, 16), dtype=np.float32)
        bad = np.ones((8, 8), dtype=np.float32)  # mismatched shape vs the chain
        with ArchiveWriter(path, error_bound=ErrorBound.absolute(BOUND)) as writer:
            writer.add_timestep({"T": good, "P": good}, temporal=TemporalSpec(anchor_every=8))
            # P's shape no longer matches its anchor: the whole step must fail
            with pytest.raises(ArchiveError):
                writer.add_timestep({"T": good, "P": bad}, temporal=TemporalSpec(anchor_every=8))
            # no orphan `T@1` survives, so the stream is still appendable
            assert "T@1" not in writer.manifest.fields
            entry = writer.add_timestep({"T": good, "P": good})
            assert entry.step == 1
        with ArchiveReader(path) as reader:
            assert reader.steps == [0, 1]
            assert reader.verify(deep=True)["ok"]
