"""The encoder/decoder contract of the cross-field codec.

The CFNN's predictions feed a closed-loop quantiser: the decoder must rebuild
exactly the integer difference codes the encoder coded against, or the error
bound silently breaks.  These tests pin what the flat-shift kernels promise
(``docs/architecture.md``, "CFNN compute path"): a stream decodes to the same
bits in another process whatever its BLAS thread count, packing is repeatable
byte for byte, and the block width of the blocked forward pass is not part of
the format.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.nn.functional as F
from repro.core import CFNN, CFNNConfig, CrossFieldCompressor, TrainingConfig
from repro.data import make_dataset
from repro.store import ArchiveReader, ArchiveWriter
from repro.store.cli import main
from repro.sz import ErrorBound

SRC = Path(__file__).resolve().parents[1] / "src"
ANCHORS = ("Uf", "Vf", "Pf")
#: One short epoch; the Lorenzo fallback is off so the stream is always hybrid
#: and decoding always runs CFNN inference.
TRAINING = {"epochs": 1, "n_patches": 8}

DECODE_SCRIPT = """
import sys
import numpy as np
from repro.core import CrossFieldCompressor
work = sys.argv[1]
anchors = np.load(work + "/anchors.npy")
payload = open(work + "/payload.bin", "rb").read()
np.save(work + "/decoded.npy", CrossFieldCompressor().decompress(payload, list(anchors)))
"""


@pytest.fixture(scope="module")
def hurricane():
    dataset = make_dataset("hurricane", shape=(8, 32, 32), seed=727)
    return {name: dataset[name].data for name in ANCHORS + ("Wf",)}


def test_stream_decodes_bit_identically_in_a_process_with_other_blas_threads(hurricane, tmp_path):
    anchors = [hurricane[name].astype(np.float64) for name in ANCHORS]
    compressor = CrossFieldCompressor(
        error_bound=ErrorBound.relative(1e-3),
        training=TrainingConfig(**TRAINING),
        allow_fallback=False,
    )
    result = compressor.compress(hurricane["Wf"], anchors)
    assert result.metadata["mode"] == "hybrid"
    here = compressor.decompress(result.payload, anchors)
    error = np.max(np.abs(here.astype(np.float64) - hurricane["Wf"].astype(np.float64)))
    assert error <= result.abs_error_bound * (1 + 1e-9)

    np.save(tmp_path / "anchors.npy", np.stack(anchors))
    (tmp_path / "payload.bin").write_bytes(result.payload)
    for threads in ("1", "2"):  # whatever this process runs with, one of them differs
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(SRC)}
        subprocess.run(
            [sys.executable, "-c", DECODE_SCRIPT, str(tmp_path)], env=env, check=True, timeout=120
        )
        there = np.load(tmp_path / "decoded.npy")
        assert there.dtype == here.dtype
        assert np.array_equal(there, here), f"decode differs under OPENBLAS_NUM_THREADS={threads}"


def test_repeated_cross_field_packs_are_byte_identical_and_verify(hurricane, tmp_path):
    paths = [tmp_path / "first.xfa", tmp_path / "second.xfa"]
    for path in paths:
        with ArchiveWriter(path, chunk_shape=(8, 32, 32)) as writer:
            for name in ANCHORS:
                writer.add_field(name, hurricane[name], codec="sz")
            writer.add_field(
                "Wf", hurricane["Wf"], codec="cross-field", anchors=ANCHORS,
                allow_fallback=False, **TRAINING,
            )
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert main(["verify", str(paths[0]), "--deep"]) == 0
    with ArchiveReader(paths[0]) as reader:
        decoded = reader.read_field("Wf")
        bound = reader.field("Wf").abs_error_bound
    slack = float(np.spacing(np.float32(np.max(np.abs(hurricane["Wf"]))))) / 2  # float32 cast
    error = np.max(np.abs(decoded.astype(np.float64) - hurricane["Wf"].astype(np.float64)))
    assert error <= bound * (1 + 1e-9) + slack


def test_tiled_inference_does_not_depend_on_the_block_width(hurricane, monkeypatch):
    """Tiles smaller than the field, several blocks per tile: the quantised
    difference codes (all the stream depends on) are identical for every
    block width, and the raw predictions agree to rounding."""
    anchors = [hurricane[name].astype(np.float64) for name in ANCHORS]
    model = CFNN(CFNNConfig(n_anchors=3, ndim=3, hidden_channels=8, expanded_channels=16), tile_size=16)
    model.train(anchors, hurricane["Wf"].astype(np.float64), TrainingConfig(**TRAINING))
    model = CFNN.from_bytes(model.to_bytes())
    quantum = 2.0 * ErrorBound.relative(1e-3).resolve(hurricane["Wf"])

    blocks = (F.BLOCK, 64, 1024, 1 << 20)
    predictions = {}
    for block in blocks:
        monkeypatch.setattr(F, "BLOCK", block)
        predictions[block] = model.predict_differences(anchors)
    reference = predictions[blocks[0]]
    for block, diffs in predictions.items():
        for axis, (got, expected) in enumerate(zip(diffs, reference)):
            np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13 * np.abs(expected).max())
            assert np.array_equal(np.rint(got / quantum), np.rint(expected / quantum)), (block, axis)
