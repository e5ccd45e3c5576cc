#!/usr/bin/env python
"""Regenerate the golden conformance archives under ``tests/data/golden/``.

The golden suite pins the ``XFA1`` wire format: tiny frozen archives are
committed to the repository together with their expected decoded output
(``*.expected.npz``) and their raw manifest bytes (``*.manifest.json``).
``tests/test_golden_archives.py`` decodes the *committed* bytes and compares
byte-exactly — so any drift in the container framing, the manifest schema,
a codec's payload layout, or an entropy coder's bit stream fails loudly
instead of silently shipping a format break.

Fixtures:

- ``v1-huffman.xfa``   — seed-era archive: legacy v1 Huffman payloads (header
  + bit stream, no checkpoints) *and* a v1 manifest (no timestep index), so
  the auto-upgrade read path stays pinned.
- ``hfv2.xfa``         — current default: checkpointed ``HFV2`` entropy
  payloads, manifest v2.
- ``mixed-codec.xfa``  — sz, zfp and lossless fields in one archive.
  (The cross-field codec is deliberately excluded: its CFNN decode runs
  through BLAS matmuls whose last-ulp rounding may differ across numpy
  builds, which would make byte-exact pinning flaky.)
- ``timeseries.xfa``   — appendable time-stepped archive: three steps written
  through the append path, temporal-delta coded with anchors every 2 steps.
- ``sz-hybrid.xfa``    — sz fields exercising every predictor (lorenzo,
  regression, interpolation), pinning the vectorised predict/decode fast
  paths byte-exactly: a change to the batched index-table decoders that
  alters any decoded byte fails here even if it slips past the parity suite.
- ``zfp-progressive.xfa`` — zfp fields in the grouped (significance-ordered)
  payload layout across 1D/2D/3D shapes, including block-ragged chunks,
  pinning the batched transform and the per-group sections byte-exactly.
  Note ``mixed-codec.xfa`` keeps its *legacy interleaved* zfp payload — it is
  the backward-compat fixture and must NOT be regenerated when the zfp
  default layout changes (use ``--only zfp-progressive``).

Run from the repository root after an *intentional* format change::

    PYTHONPATH=src python scripts/make_golden_archives.py [--only STEM]

``--only`` regenerates a single fixture, leaving the others byte-identical —
mandatory when adding a new fixture next to compat fixtures that pin an old
payload layout.  Inspect the diff and commit the updated fixtures alongside
the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GOLDEN_DIR = REPO_ROOT / "tests" / "data" / "golden"

#: Tiny but multi-chunk: 2x2 chunk grid per field.
SHAPE = (16, 32)
CHUNK = (8, 16)
SEED = 20240731


def _dataset():
    from repro.data.synthetic import make_dataset

    return make_dataset("cesm", shape=SHAPE, seed=SEED)


def _downgrade_manifest_to_v1(path: Path) -> None:
    """Rewrite an archive's manifest as schema v1 (no timestep index).

    Payload bytes are untouched; only the manifest JSON and the footer are
    replaced, exactly reproducing what a pre-timestep writer emitted.
    """
    from repro.store.bytestore import FileByteStore
    from repro.store.manifest import FOOTER_SIZE, pack_footer, read_manifest

    with open(path, "r+b") as fh:
        manifest, offset, _ = read_manifest(FileByteStore(fh=fh))
        payload = json.loads(manifest.to_json().decode("utf-8"))
        payload["version"] = 1
        payload.pop("timesteps", None)
        manifest_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")
        crc = zlib.crc32(manifest_bytes) & 0xFFFFFFFF
        fh.seek(offset)
        fh.write(manifest_bytes)
        fh.write(pack_footer(offset, len(manifest_bytes), crc))
        fh.truncate(offset + len(manifest_bytes) + FOOTER_SIZE)


def _force_huffman_v1():
    """Context manager: make HuffmanCodec emit legacy v1 payloads."""
    import contextlib

    from repro.encoding.huffman import HuffmanCodec

    @contextlib.contextmanager
    def patched():
        original = HuffmanCodec.encode_many

        def encode_many_v1(self, streams, tables=None, version=1):
            return original(self, streams, tables, version=1)

        HuffmanCodec.encode_many = encode_many_v1
        try:
            yield
        finally:
            HuffmanCodec.encode_many = original

    return patched()


def build_v1_huffman(path: Path) -> None:
    from repro.store import ArchiveWriter

    dataset = _dataset()
    with _force_huffman_v1():
        with ArchiveWriter(path, chunk_shape=CHUNK) as writer:
            writer.add_field("FLNT", dataset["FLNT"].data)
            writer.add_field("LWCF", dataset["LWCF"].data)
    _downgrade_manifest_to_v1(path)


def build_hfv2(path: Path) -> None:
    from repro.store import ArchiveWriter

    dataset = _dataset()
    with ArchiveWriter(path, chunk_shape=CHUNK) as writer:
        writer.add_field("FLNT", dataset["FLNT"].data)
        writer.add_field("LWCF", dataset["LWCF"].data)


def build_mixed_codec(path: Path) -> None:
    from repro.store import ArchiveWriter

    dataset = _dataset()
    with ArchiveWriter(path, chunk_shape=CHUNK) as writer:
        writer.add_field("FLNT", dataset["FLNT"].data)  # sz default
        writer.add_field("FLNTC", dataset["FLNTC"].data, codec="zfp")
        writer.add_field("CLDLOW", dataset["CLDLOW"].data, codec="lossless")


def build_sz_hybrid(path: Path) -> None:
    from repro.store import ArchiveWriter

    dataset = _dataset()
    with ArchiveWriter(path, chunk_shape=CHUNK) as writer:
        writer.add_field("FLNT", dataset["FLNT"].data, codec="sz", predictor="lorenzo")
        writer.add_field(
            "FLNTC", dataset["FLNTC"].data, codec="sz", predictor="regression"
        )
        writer.add_field(
            "LWCF", dataset["LWCF"].data, codec="sz", predictor="interpolation"
        )


def build_timeseries(path: Path) -> None:
    from repro.data.synthetic import make_timeseries
    from repro.store import ArchiveWriter, TemporalSpec

    series = make_timeseries(
        "cesm", shape=SHAPE, steps=3, seed=SEED, fields=("FLNT", "FLNTC"),
        drift=0.2, noise_level=0.005,
    )
    spec = TemporalSpec(mode="delta", anchor_every=2, base="sz")
    # steps 1..2 go through the real append path (reopen + flush), so the
    # fixture pins the manifest-log layout, not just the single-shot one
    with ArchiveWriter(path, chunk_shape=CHUNK) as writer:
        writer.add_timestep(series[0], time=0.0, temporal=spec)
    for t in (1, 2):
        with ArchiveWriter(path, mode="a") as writer:
            writer.add_timestep(series[t], time=t * 0.5, temporal=spec)


def build_zfp_progressive(path: Path) -> None:
    from repro.store import ArchiveWriter
    from repro.sz.errors import ErrorBound

    rng = np.random.default_rng(SEED)
    dataset = _dataset()
    # smooth synthetic fields so the significance groups carry a real
    # low-frequency/high-frequency split (pure noise would not)
    line = np.cumsum(rng.normal(size=64)).astype(np.float32)
    cube = np.cumsum(
        np.cumsum(rng.normal(size=(8, 12, 10)), axis=1), axis=2
    ).astype(np.float32)
    ragged = np.cumsum(rng.normal(size=(13, 19)), axis=1).astype(np.float32)
    bound = ErrorBound.absolute(1e-2)
    with ArchiveWriter(path, chunk_shape=CHUNK) as writer:
        writer.add_field("plane", dataset["FLNT"].data, codec="zfp", error_bound=bound)
        # chunk extents not divisible by the block size: every chunk has
        # block-ragged edges, exercising the per-block quantization step
        writer.add_field(
            "line", line, codec="zfp", error_bound=bound, chunk_shape=(18,)
        )
        writer.add_field(
            "cube", cube, codec="zfp", error_bound=bound, chunk_shape=(4, 8, 8)
        )
        writer.add_field(
            "ragged", ragged, codec="zfp", error_bound=bound, chunk_shape=(13, 19)
        )


def snapshot_expectations(path: Path) -> None:
    """Record the archive's decoded fields and raw manifest bytes."""
    from repro.store import ArchiveReader
    from repro.store.bytestore import FileByteStore
    from repro.store.manifest import FOOTER_SIZE, read_manifest

    with ArchiveReader(path) as reader:
        arrays = {name: reader.read_field(name) for name in reader.names}
    np.savez_compressed(path.with_suffix(".expected.npz"), **arrays)
    # the bytes the reader parsed: manifest_offset up to the footer
    with FileByteStore(path=path) as store:
        _, offset, end = read_manifest(store)
        manifest_bytes = store.pread(offset, end - FOOTER_SIZE - offset)
    path.with_suffix(".manifest.json").write_bytes(manifest_bytes)


BUILDERS = {
    "v1-huffman": build_v1_huffman,
    "hfv2": build_hfv2,
    "mixed-codec": build_mixed_codec,
    "timeseries": build_timeseries,
    "sz-hybrid": build_sz_hybrid,
    "zfp-progressive": build_zfp_progressive,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=sorted(BUILDERS),
        help="regenerate a single fixture, leaving the others untouched",
    )
    args = parser.parse_args(argv)
    stems = [args.only] if args.only else list(BUILDERS)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem in stems:
        path = GOLDEN_DIR / f"{stem}.xfa"
        BUILDERS[stem](path)
        snapshot_expectations(path)
        size = path.stat().st_size
        print(f"{path.relative_to(REPO_ROOT)}: {size} bytes")
    print(f"golden fixtures written to {GOLDEN_DIR.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
