"""End-to-end tests for the ``repro`` CLI driving the archive store.

Packing dominates CLI test runtime, so tests share the session-scoped
``cli_fieldset_dir`` / ``cli_archive_master`` fixtures from ``conftest.py``
(built once); tests that corrupt archive bytes take a ``copy_archive`` copy.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.io import read_fieldset, write_fieldset
from repro.store.cli import build_parser, main, parse_region

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``pack --cross-field`` then ``extract`` with every ``scipy`` import failing:
#: the cross-field codec must not need it (only SSIM does).
NO_SCIPY_SCRIPT = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(name + " is blocked")

sys.meta_path.insert(0, BlockScipy())
from repro.store.cli import main
assert main(["pack", "cesm", "cf.xfa", "--shape", "32,48", "--chunk", "32,48",
             "--fields", "CLDLOW,CLDMED,CLDTOT", "--cross-field", "CLDTOT=CLDLOW,CLDMED"]) == 0
sys.exit(main(["extract", "cf.xfa", "CLDTOT"]))
"""


class TestParseRegion:
    def test_slices(self):
        assert parse_region("0:10,5:20") == (slice(0, 10), slice(5, 20))

    def test_open_ended_and_full(self):
        assert parse_region("3,:,40:") == (3, slice(None), slice(40, None))
        assert parse_region(":16") == (slice(None, 16),)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_region("a:b")

    def test_step_syntax_rejected_clearly(self):
        with pytest.raises(ValueError, match="step is not supported"):
            parse_region("0:10:2")


class TestCLI:
    def test_pack_ls_extract_verify_unpack(self, tmp_path, cli_fieldset_dir, cesm_small, capsys):
        archive = tmp_path / "snap.xfa"

        assert main([
            "pack", str(cli_fieldset_dir), str(archive), "--chunk", "24,24", "--error-bound", "1e-3",
        ]) == 0
        assert archive.exists()
        assert "packed 3 fields" in capsys.readouterr().out

        assert main(["ls", str(archive)]) == 0
        listing = capsys.readouterr().out
        for name in ("FLNT", "FLNTC", "LWCF"):
            assert name in listing

        out_npy = tmp_path / "window.npy"
        assert main([
            "extract", str(archive), "FLNT", "--region", "0:10,20:40", "-o", str(out_npy),
        ]) == 0
        capsys.readouterr()
        window = np.load(out_npy)
        assert window.shape == (10, 20)
        original = cesm_small["FLNT"].data[0:10, 20:40]
        assert np.max(np.abs(window.astype(np.float64) - original.astype(np.float64))) <= 1.0

        assert main(["verify", str(archive), "--deep"]) == 0
        assert "passed" in capsys.readouterr().out

        restored_dir = tmp_path / "restored"
        assert main(["unpack", str(archive), str(restored_dir)]) == 0
        capsys.readouterr()
        restored = read_fieldset(restored_dir)
        assert sorted(restored.names) == ["FLNT", "FLNTC", "LWCF"]
        for name in restored.names:
            err = np.max(
                np.abs(
                    restored[name].data.astype(np.float64)
                    - cesm_small[name].data.astype(np.float64)
                )
            )
            value_range = cesm_small[name].value_range
            assert err <= 1e-3 * value_range * (1 + 1e-9)

    def test_pack_synthetic_with_cross_field(self, tmp_path, capsys):
        archive = tmp_path / "cesm.xfa"
        code = main([
            "pack", "cesm", str(archive),
            "--shape", "32,48", "--chunk", "32,48", "--seed", "11",
            "--fields", "CLDLOW,CLDMED,CLDTOT",
            "--cross-field", "CLDTOT=CLDLOW,CLDMED",
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["ls", str(archive), "--json"]) == 0
        entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
        assert entries["CLDTOT"]["codec"] == "cross-field"
        assert entries["CLDTOT"]["anchors"] == ["CLDLOW", "CLDMED"]
        assert entries["CLDLOW"]["codec"] == "sz"

    def test_pack_records_pipeline_config(self, cli_archive_master, cli_fieldset_dir):
        from repro.pipeline import PipelineConfig
        from repro.store.reader import ArchiveReader

        with ArchiveReader(cli_archive_master) as reader:
            attrs = reader.attrs
        assert attrs["source"] == str(cli_fieldset_dir)
        assert attrs["pipeline"] == "pipeline"
        config = PipelineConfig.from_dict(attrs["pipeline_config"])
        assert config.chunk_shape == (24, 24)

    def test_cross_field_target_outside_fieldset_reports_error(self, tmp_path, capsys):
        code = main([
            "pack", "cesm", str(tmp_path / "x.xfa"), "--shape", "16,16",
            "--fields", "CLDLOW,CLDMED", "--cross-field", "CLDTOT=CLDLOW,CLDMED",
        ])
        assert code == 2
        assert "cross-field target 'CLDTOT' is not in the fieldset" in capsys.readouterr().err

    def test_cross_field_pack_and_extract_without_scipy(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "CLDTOT: shape (32, 48)" in done.stdout

    def test_ls_surfaces_codec_params(self, cli_archive_master, capsys):
        # the listing must show the manifest-recorded codec parameters
        # (entropy mode etc.), not just the codec name
        assert main(["ls", str(cli_archive_master)]) == 0
        listing = capsys.readouterr().out
        assert "params" in listing
        assert "entropy=huffman" in listing
        assert "predictor=lorenzo" in listing

    def test_ls_params_reflect_entropy_choice(self, tmp_path, cli_fieldset_dir, capsys):
        archive = tmp_path / "zlib.xfa"
        assert main(["pack", str(cli_fieldset_dir), str(archive), "--entropy", "zlib"]) == 0
        capsys.readouterr()
        assert main(["ls", str(archive)]) == 0
        assert "entropy=zlib" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, cli_archive_master, copy_archive, capsys):
        archive = copy_archive(cli_archive_master)
        raw = bytearray(archive.read_bytes())
        raw[100] ^= 0xFF  # inside the first chunk payload
        archive.write_bytes(bytes(raw))
        assert main(["verify", str(archive)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_bad_source_reports_error(self, tmp_path, capsys):
        code = main(["pack", "not-a-dataset", str(tmp_path / "x.xfa")])
        assert code == 2
        assert "known synthetic dataset" in capsys.readouterr().err

    def test_bad_shape_for_known_dataset_keeps_generator_error(self, tmp_path, capsys):
        # cesm is 2D: a 3D --shape must surface the generator's message, not
        # be misreported as an unknown dataset name
        code = main(["pack", "cesm", str(tmp_path / "x.xfa"), "--shape", "10,20,30"])
        assert code == 2
        err = capsys.readouterr().err
        assert "known synthetic dataset" not in err
        assert "2D" in err

    def test_bad_region_string_reports_error(self, cli_archive_master, capsys):
        assert main(["extract", str(cli_archive_master), "FLNT", "--region", "a:b"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shape_rejected_for_directory_source(self, tmp_path, cli_fieldset_dir, capsys):
        code = main(["pack", str(cli_fieldset_dir), str(tmp_path / "x.xfa"), "--shape", "16,16"])
        assert code == 2
        assert "only apply to synthetic dataset sources" in capsys.readouterr().err

    def test_dataset_named_directory_is_ambiguous(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cesm").mkdir()  # user data folder colliding with a generator name
        code = main(["pack", "cesm", str(tmp_path / "x.xfa"), "--shape", "16,16"])
        # never silently pack synthetic data in place of the user's directory
        assert code == 2
        assert "both a directory" in capsys.readouterr().err

    def test_plain_directory_source_mentions_manifest(self, tmp_path, capsys):
        (tmp_path / "stuff").mkdir()
        code = main(["pack", str(tmp_path / "stuff"), str(tmp_path / "x.xfa")])
        assert code == 2
        assert "without a manifest.json" in capsys.readouterr().err

    def test_directory_as_archive_reports_error(self, tmp_path, capsys):
        assert main(["ls", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_codec_reports_error(self, tmp_path, capsys):
        code = main(["pack", "cesm", str(tmp_path / "x.xfa"), "--shape", "16,16", "--codec", "nope"])
        assert code == 2
        assert "unknown codec" in capsys.readouterr().err

    def test_pack_with_entropy_flag(self, tmp_path, capsys):
        archive = tmp_path / "ent.xfa"
        assert main(["pack", "cesm", str(archive), "--shape", "48,64", "--entropy", "zlib"]) == 0
        capsys.readouterr()
        from repro.store.reader import ArchiveReader

        with ArchiveReader(archive) as reader:
            for entry in reader.fields():
                assert entry.codec_params["entropy"] == "zlib"
        assert main(["verify", str(archive), "--deep"]) == 0
        capsys.readouterr()

    def test_unknown_entropy_reports_error(self, tmp_path, capsys):
        code = main(["pack", "cesm", str(tmp_path / "x.xfa"), "--shape", "16,16", "--entropy", "lzma"])
        assert code == 2
        assert "unknown entropy coder" in capsys.readouterr().err

    def test_entropy_rejected_for_entropyless_codec(self, tmp_path, capsys):
        code = main([
            "pack", "cesm", str(tmp_path / "x.xfa"), "--shape", "16,16",
            "--codec", "lossless", "--entropy", "huffman",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "codec 'lossless' does not accept parameter 'entropy'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config",
        [
            {"codec": "lossless", "fields": {"FLNT": {"codec_params": {"entropy": "huffman"}}}},
            {"codec": "sz", "fields": {"FLNT": {"codec_params": {"bogus": 1}}}},
        ],
        ids=["entropy-on-lossless", "unknown-sz-param"],
    )
    def test_compress_rejects_codec_params_the_codec_does_not_take(
        self, tmp_path, capsys, config
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main([
            "compress", str(path), "--source", "cesm", "--shape", "16,16",
            "--output", str(tmp_path / "x.xfa"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'FLNT': codec ")
        assert "does not accept parameter" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.xfa").exists()

    def test_extract_unknown_field_reports_error(self, cli_archive_master, capsys):
        assert main(["extract", str(cli_archive_master), "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no field named")  # no KeyError repr quoting

    def test_jobs_flag_global_and_per_subcommand(self, tmp_path, cli_fieldset_dir, capsys):
        archive = tmp_path / "snap.xfa"
        assert main(["--jobs", "2", "pack", str(cli_fieldset_dir), str(archive), "--chunk", "24,24"]) == 0
        capsys.readouterr()

        # verify: flag accepted at the root and after the subcommand
        assert main(["--jobs", "1", "verify", str(archive), "--deep"]) == 0
        assert "passed" in capsys.readouterr().out
        assert main(["verify", str(archive), "--deep", "-j", "2"]) == 0
        assert "passed" in capsys.readouterr().out

        # unpack: serial and parallel restores are identical
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        assert main(["unpack", str(archive), str(serial_dir), "--jobs", "1"]) == 0
        assert main(["--jobs", "3", "unpack", str(archive), str(parallel_dir)]) == 0
        capsys.readouterr()
        serial, parallel = read_fieldset(serial_dir), read_fieldset(parallel_dir)
        for name in serial.names:
            assert np.array_equal(serial[name].data, parallel[name].data)

    def test_jobs_flag_reaches_pipeline_subcommands(self, tmp_path, capsys):
        archive = tmp_path / "scenario.xfa"
        assert main(["run", "climate-small", "-o", str(archive), "--jobs", "1"]) == 0
        capsys.readouterr()
        dest = tmp_path / "restored"
        assert main(["unpack", str(archive), str(dest), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert sorted(read_fieldset(dest).names) == ["CLDTOT", "FLNT", "FLNTC", "LWCF"]

    def test_chunk_worker_failure_reports_error_not_traceback(
        self, tmp_path, cli_fieldset_dir, capsys, monkeypatch
    ):
        # a codec crash inside a pool worker surfaces as a contextual CLI
        # error (exit 2), never an uncaught ChunkTaskError traceback
        from repro.store.codecs import SZChunkCodec

        def broken_encode(self, chunk, anchors=None):
            raise ValueError("encode exploded")

        # the writer encodes batches of chunks, then one chunk at a time to
        # name the chunk that failed
        monkeypatch.setattr(SZChunkCodec, "encode_many", broken_encode)
        monkeypatch.setattr(SZChunkCodec, "encode", broken_encode)
        assert main(["pack", str(cli_fieldset_dir), str(tmp_path / "x.xfa"), "--chunk", "24,24"]) == 2
        err = capsys.readouterr().err
        assert "error: field 'FLNT' chunk 0: encode exploded" in err

    def test_invalid_jobs_reports_error(self, cli_archive_master, capsys):
        assert main(["verify", str(cli_archive_master), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_unpack_preserves_float64_dtype(self, tmp_path, rng, capsys):
        from repro.store import ArchiveWriter

        archive = tmp_path / "f64.xfa"
        data = rng.normal(size=(16, 16)).astype(np.float64)
        with ArchiveWriter(archive) as writer:
            writer.add_field("x", data, codec="lossless")
        dest = tmp_path / "restored"
        assert main(["unpack", str(archive), str(dest)]) == 0
        capsys.readouterr()
        restored = read_fieldset(dest)
        assert restored["x"].data.dtype == np.float64
        assert np.array_equal(restored["x"].data, data)


class TestAppendSteps:
    @pytest.fixture()
    def step_dirs(self, tmp_path_factory, cesm_small):
        """Two tiny correlated snapshots as fieldset directories."""
        from repro.data.fields import Field, FieldSet

        base_dir = tmp_path_factory.mktemp("steps")
        dirs = []
        for t in range(2):
            snapshot = FieldSet(
                [
                    Field(name, cesm_small[name].data[:24, :32] + 0.01 * t)
                    for name in ("FLNT", "FLNTC")
                ],
                name=f"step{t}",
            )
            dest = base_dir / f"step{t}"
            write_fieldset(snapshot, dest)
            dirs.append(dest)
        return dirs

    def test_append_create_steps_round_trip(self, tmp_path, step_dirs, capsys):
        archive = tmp_path / "series.xfa"
        # first append must demand --create for a fresh archive
        assert main(["append", str(archive), str(step_dirs[0])]) == 2
        assert "--create" in capsys.readouterr().err

        assert main([
            "append", str(archive), str(step_dirs[0]), "--create",
            "--temporal", "delta", "--anchor-every", "2", "--time", "0.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "appended step 0" in out and "2 independent" in out

        assert main([
            "append", str(archive), str(step_dirs[1]),
            "--temporal", "delta", "--anchor-every", "2", "--time", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "appended step 1" in out and "2 delta" in out

        assert main(["steps", str(archive)]) == 0
        table = capsys.readouterr().out
        assert "delta/k=2" in table
        assert " 0 " in table and " 1 " in table

        assert main(["steps", str(archive), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["step"] for entry in payload] == [0, 1]
        assert payload[1]["fields"]["FLNT"] == "FLNT@1"
        assert payload[1]["compressed_nbytes"] > 0

        # the delta-coded stored fields are visible in ls with their params
        assert main(["ls", str(archive)]) == 0
        listing = capsys.readouterr().out
        assert "temporal-delta" in listing
        assert "base=sz" in listing

        assert main(["verify", str(archive), "--deep"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_append_without_flags_continues_recorded_cadence(self, tmp_path, step_dirs, capsys):
        archive = tmp_path / "series.xfa"
        assert main([
            "append", str(archive), str(step_dirs[0]), "--create", "--anchor-every", "2",
        ]) == 0
        # no temporal flags: the append must keep k=2, not revert to a default
        assert main(["append", str(archive), str(step_dirs[1])]) == 0
        capsys.readouterr()
        assert main(["steps", str(archive)]) == 0
        table = capsys.readouterr().out
        assert "delta/k=2" in table
        assert "delta/k=8" not in table

    def test_append_without_flags_continues_bound_and_codec(self, tmp_path, step_dirs, capsys):
        from repro.store.reader import ArchiveReader

        archive = tmp_path / "series.xfa"
        assert main([
            "append", str(archive), str(step_dirs[0]), "--create",
            "--codec", "zfp", "--error-bound", "1e-5", "--anchor-every", "2",
        ]) == 0
        # a flagless append must not silently reset fidelity to the defaults
        assert main(["append", str(archive), str(step_dirs[1])]) == 0
        capsys.readouterr()
        with ArchiveReader(archive) as reader:
            first, second = reader.field("FLNT@0"), reader.field("FLNT@1")
            assert first.codec == "zfp"
            assert second.codec == "temporal-delta"
            assert second.codec_params["base"] == "zfp"
            assert second.error_bound == {"mode": "rel", "value": 1e-5}
        assert main(["verify", str(archive), "--deep"]) == 0
        capsys.readouterr()

    def test_append_without_flags_continues_codec_params(self, tmp_path, step_dirs, capsys):
        from repro.store.reader import ArchiveReader

        archive = tmp_path / "series.xfa"
        assert main([
            "append", str(archive), str(step_dirs[0]), "--create", "--entropy", "zlib",
        ]) == 0
        # flagless append: the recorded entropy coder must carry over, not
        # silently revert to the huffman default
        assert main(["append", str(archive), str(step_dirs[1])]) == 0
        capsys.readouterr()
        with ArchiveReader(archive) as reader:
            assert reader.field("FLNT@0").codec_params["entropy"] == "zlib"
            delta = reader.field("FLNT@1")
            assert delta.codec == "temporal-delta"
            assert delta.codec_params["base_params"]["entropy"] == "zlib"
        # an explicit --entropy wins over the recorded one
        assert main(["append", str(archive), str(step_dirs[0]), "--step", "2",
                     "--entropy", "huffman"]) == 0
        capsys.readouterr()
        with ArchiveReader(archive) as reader:
            assert reader.field("FLNT@2").codec_params["base_params"]["entropy"] == "huffman"

    def test_append_entropy_on_inherited_entropyless_codec_fails_cleanly(
        self, tmp_path, step_dirs, capsys
    ):
        archive = tmp_path / "series.xfa"
        assert main([
            "append", str(archive), str(step_dirs[0]), "--create",
            "--codec", "lossless", "--temporal", "none",
        ]) == 0
        capsys.readouterr()
        # the inherited codec has no entropy stage: clean exit 2, no traceback
        code = main(["append", str(archive), str(step_dirs[1]), "--entropy", "huffman"])
        assert code == 2
        assert "codec 'lossless' does not accept parameter 'entropy'" in capsys.readouterr().err

    def test_append_temporal_none_conflicts_with_cadence_flags(self, tmp_path, step_dirs, capsys):
        code = main([
            "append", str(tmp_path / "x.xfa"), str(step_dirs[0]), "--create",
            "--temporal", "none", "--anchor-every", "4",
        ])
        assert code == 2
        assert "contradicts" in capsys.readouterr().err

    def test_append_chunk_applies_to_new_fields_only(self, tmp_path, capsys):
        from repro.store.reader import ArchiveReader

        archive = tmp_path / "s.xfa"
        synthetic = ["cesm", "--shape", "32,64"]
        assert main([
            "append", str(archive), *synthetic, "--create", "--fields", "FLNT",
            "--chunk", "16,32", "--anchor-every", "4",
        ]) == 0
        # FLNT@1 is delta-coded against FLNT@0, so it must keep the 16x32
        # grid; only LWCF, new to the stream, takes --chunk
        assert main([
            "append", str(archive), *synthetic, "--fields", "FLNT,LWCF", "--chunk", "8,8",
        ]) == 0
        capsys.readouterr()
        with ArchiveReader(archive) as reader:
            assert reader.field("FLNT@1").codec == "temporal-delta"
            assert reader.field("FLNT@1").chunk_shape == (16, 32)
            assert reader.field("LWCF@1").chunk_shape == (8, 8)

    def test_steps_on_plain_archive(self, cli_archive_master, capsys):
        assert main(["steps", str(cli_archive_master)]) == 0
        assert "no timestep index" in capsys.readouterr().out

    def test_append_recover_resumes_after_torn_tail(self, tmp_path, step_dirs, capsys):
        archive = tmp_path / "series.xfa"
        assert main(["append", str(archive), str(step_dirs[0]), "--create"]) == 0
        assert main(["append", str(archive), str(step_dirs[1])]) == 0
        capsys.readouterr()
        good_size = archive.stat().st_size
        with open(archive, "ab") as fh:
            fh.write(b"\x00" * 17)  # torn tail from a crashed append

        assert main(["steps", str(archive)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["steps", str(archive), "--recover"]) == 0
        recovered_table = capsys.readouterr().out
        assert "delta/k=8" in recovered_table  # both flushed steps survive

        assert main(["append", str(archive), str(step_dirs[1]), "--step", "2"]) == 2
        capsys.readouterr()
        assert main([
            "append", str(archive), str(step_dirs[1]), "--step", "2", "--recover",
        ]) == 0
        assert "appended step 2" in capsys.readouterr().out
        assert archive.stat().st_size > good_size
        assert main(["verify", str(archive), "--deep"]) == 0
        capsys.readouterr()


class TestPreviewCommand:
    @pytest.fixture()
    def zfp_archive(self, tmp_path, cli_fieldset_dir):
        path = tmp_path / "zfp-snap.xfa"
        assert main([
            "pack", str(cli_fieldset_dir), str(path),
            "--chunk", "24,24", "--error-bound", "1e-3", "--codec", "zfp",
        ]) == 0
        return path

    def test_preview_reports_prefix_decode(self, zfp_archive, capsys):
        capsys.readouterr()
        assert main(["extract", str(zfp_archive), "FLNT", "--fraction", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "@ fraction 0.25" in out
        assert "coefficient groups" in out
        assert "rms error estimate" in out

    def test_preview_writes_npy(self, zfp_archive, tmp_path, capsys):
        out_npy = tmp_path / "coarse.npy"
        assert main([
            "extract", str(zfp_archive), "FLNT",
            "--region", "0:24,0:48", "--fraction", "0.5", "-o", str(out_npy),
        ]) == 0
        capsys.readouterr()
        assert np.load(out_npy).shape == (24, 48)

    def test_preview_on_non_progressive_codec_decodes_fully(
        self, cli_archive_master, capsys
    ):
        # sz fields have no prefix layout: the CLI still works, reporting 100%
        assert main(["extract", str(cli_archive_master), "FLNT", "--fraction", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "(100.0%)" in out

    def test_preview_unknown_field_reports_error(self, zfp_archive, capsys):
        assert main(["extract", str(zfp_archive), "NOPE", "--fraction", "0.25"]) == 2
        err = capsys.readouterr().err
        assert "NOPE" in err


class TestVerbs:
    """One verb per job, and the docs name only verbs that exist."""

    @staticmethod
    def _subcommands(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return set(action.choices)

    def test_one_verb_per_job(self):
        assert self._subcommands(build_parser()) == {
            "pack", "append", "steps", "ls", "extract", "verify", "unpack",
            "run", "serve", "compress",
        }

    def test_documented_verbs_exist(self):
        parser = build_parser()
        # root options that consume the next token (`repro --jobs 2 unpack ...`)
        takes_value = {
            option
            for action in parser._actions
            if action.nargs != 0
            for option in action.option_strings
        }
        paths = [REPO_ROOT / "README.md", REPO_ROOT / ".github" / "workflows" / "ci.yml"]
        paths += sorted((REPO_ROOT / "docs").glob("*.md"))
        documented = {}
        for path in paths:
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for match in re.finditer(r"(?<![\w./=-])(?<!from )repro +(.+)", line):
                    tokens = iter(match.group(1).replace("`", " ").split())
                    for token in tokens:
                        if not token.startswith("-"):
                            if re.fullmatch(r"[a-z][\w-]*", token):
                                documented.setdefault(token, f"{path.name}:{lineno}")
                            break
                        if token in takes_value:
                            next(tokens, None)
        unknown = {verb: where for verb, where in documented.items()
                   if verb not in self._subcommands(parser)}
        assert not unknown, f"docs name verbs that build_parser() lacks: {unknown}"
        assert {"pack", "extract", "unpack", "serve"} <= set(documented)
