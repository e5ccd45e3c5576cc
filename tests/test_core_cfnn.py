"""Unit tests for the CFNN model wrapper."""

import json
import struct
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.cfnn import CFNN, CFNNConfig, build_cfnn_network
from repro.core.training import TrainingConfig
from repro.nn import Trainer


def _toy_problem(ndim, rng, size=24):
    """Anchors and a target with an exact linear cross-field difference relation."""
    if ndim == 2:
        shape = (size, size)
    else:
        shape = (8, size, size)
    anchors = [np.cumsum(rng.normal(size=shape), axis=-1) for _ in range(2)]
    target = 0.7 * anchors[0] - 0.4 * anchors[1]
    return anchors, target


class TestCFNNConfig:
    def test_channel_counts(self):
        config = CFNNConfig(n_anchors=3, ndim=3)
        assert config.in_channels == 9
        assert config.out_channels == 3

    def test_halo(self):
        assert CFNNConfig(n_anchors=1, ndim=2, kernel_size=3).halo == 3
        assert CFNNConfig(n_anchors=1, ndim=2, kernel_size=5).halo == 6

    def test_round_trip_dict(self):
        config = CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4)
        assert CFNNConfig.from_dict(config.to_dict()) == config

    def test_invalid(self):
        with pytest.raises(ValueError):
            CFNNConfig(n_anchors=0, ndim=2)
        with pytest.raises(ValueError):
            CFNNConfig(n_anchors=1, ndim=4)
        with pytest.raises(ValueError):
            CFNNConfig(n_anchors=1, ndim=2, kernel_size=4)

    def test_network_parameter_count_matches_layers(self):
        config = CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8)
        network = build_cfnn_network(config)
        assert network.num_parameters() > 0
        assert CFNN(config).num_parameters == network.num_parameters()


class TestCFNNTrainingAndInference:
    def test_training_reduces_loss_2d(self):
        rng = np.random.default_rng(0)
        anchors, target = _toy_problem(2, rng, size=48)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        history = model.train(anchors, target, TrainingConfig(epochs=6, n_patches=32, patch_size_2d=16))
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.is_trained

    def test_predict_differences_shapes(self):
        rng = np.random.default_rng(1)
        anchors, target = _toy_problem(2, rng)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        model.train(anchors, target, TrainingConfig(epochs=1, n_patches=8, patch_size_2d=16))
        diffs = model.predict_differences(anchors)
        assert len(diffs) == 2
        assert all(d.shape == target.shape for d in diffs)

    def test_predict_3d(self):
        rng = np.random.default_rng(2)
        anchors, target = _toy_problem(3, rng, size=16)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=3, hidden_channels=4, expanded_channels=8), tile_size=16)
        model.train(anchors, target, TrainingConfig(epochs=1, n_patches=6, patch_size_3d=8))
        diffs = model.predict_differences(anchors)
        assert len(diffs) == 3
        assert diffs[0].shape == target.shape

    def test_untrained_prediction_rejected(self):
        model = CFNN(CFNNConfig(n_anchors=1, ndim=2))
        with pytest.raises(RuntimeError):
            model.predict_differences([np.zeros((16, 16))])

    def test_wrong_anchor_count(self):
        rng = np.random.default_rng(3)
        anchors, target = _toy_problem(2, rng)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        with pytest.raises(ValueError):
            model.train(anchors[:1], target)

    def test_serialization_roundtrip_gives_identical_predictions(self):
        rng = np.random.default_rng(4)
        anchors, target = _toy_problem(2, rng, size=40)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        model.train(anchors, target, TrainingConfig(epochs=2, n_patches=16, patch_size_2d=16))
        payload = model.to_bytes()
        restored = CFNN.from_bytes(payload)
        original_pred = CFNN.from_bytes(payload).predict_differences(anchors)
        restored_pred = restored.predict_differences(anchors)
        for a, b in zip(original_pred, restored_pred):
            assert np.array_equal(a, b)

    def test_trains_in_float32_and_leaves_float64_parameters(self, monkeypatch):
        seen = []
        fit = Trainer.fit

        def recording_fit(trainer, *args, **kwargs):
            dtypes = {param.data.dtype for param in trainer.model.parameters()}
            seen.append(dtypes | {moment.dtype for moment in trainer.optimizer._m})
            return fit(trainer, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", recording_fit)
        rng = np.random.default_rng(6)
        anchors, target = _toy_problem(2, rng)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        model.train(anchors, target, TrainingConfig(epochs=1, n_patches=8, patch_size_2d=16))
        assert seen == [{np.dtype(np.float32)}]
        for name, param in model.network.named_parameters():
            assert param.data.dtype == np.float64 and param.grad.dtype == np.float64, name

    def test_two_trainings_with_one_seed_give_identical_bytes(self):
        rng = np.random.default_rng(7)
        anchors, target = _toy_problem(3, rng, size=16)
        blobs = []
        for _ in range(2):
            model = CFNN(CFNNConfig(n_anchors=2, ndim=3, hidden_channels=4, expanded_channels=8))
            model.train(anchors, target, TrainingConfig(epochs=2, n_patches=8, patch_size_3d=8))
            blobs.append(model.to_bytes())
        assert blobs[0] == blobs[1]

    def test_loaded_model_predicts_in_float64(self):
        rng = np.random.default_rng(8)
        anchors, target = _toy_problem(2, rng)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8))
        model.train(anchors, target, TrainingConfig(epochs=1, n_patches=8, patch_size_2d=16))
        restored = CFNN.from_bytes(model.to_bytes())
        assert all(param.data.dtype == np.float64 for param in restored.network.parameters())
        # the layers cast whatever they are fed to their float64 parameters
        assert restored.network(np.zeros((1, 4, 16, 16), dtype=np.float32)).dtype == np.float64
        assert all(d.dtype == np.float64 for d in restored.predict_differences(anchors))

    def test_serialize_untrained_rejected(self):
        with pytest.raises(RuntimeError):
            CFNN(CFNNConfig(n_anchors=1, ndim=2)).to_bytes()

    def test_tiled_inference_deterministic(self):
        rng = np.random.default_rng(5)
        anchors, target = _toy_problem(2, rng, size=80)
        model = CFNN(CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8), tile_size=32)
        model.train(anchors, target, TrainingConfig(epochs=1, n_patches=8, patch_size_2d=16))
        a = model.predict_differences(anchors)
        b = model.predict_differences(anchors)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_tile_size_too_small(self):
        with pytest.raises(ValueError):
            CFNN(CFNNConfig(n_anchors=1, ndim=2), tile_size=2)


# --------------------------------------------------------------------------- #
# untrusted model blobs: a model is read back out of an archive
# --------------------------------------------------------------------------- #
def _frame(header, weights):
    """A model blob with ``header`` in place of the original (same framing as ``to_bytes``)."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(header_bytes)) + header_bytes + weights


def _rejected(blob):
    """Assert ``from_bytes`` raises ValueError, fast and without a large allocation.

    Returns the peak traced allocation (bytes) and the elapsed seconds.
    """
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError):
            CFNN.from_bytes(blob)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, elapsed


class TestUntrustedModelBlob:
    #: Rejections allocate the parsed header and an error message, never a model.
    PEAK_BYTES = 256 * 1024
    SECONDS = 0.05

    @pytest.fixture(scope="class")
    def blob(self):
        config = CFNNConfig(n_anchors=2, ndim=2, hidden_channels=4, expanded_channels=8)
        model = CFNN(config)
        model.anchor_scales = np.linspace(0.5, 2.0, config.in_channels)
        model.target_scales = np.linspace(1.0, 3.0, config.out_channels)
        return model.to_bytes()

    @pytest.fixture(scope="class")
    def parts(self, blob):
        (header_len,) = struct.unpack_from("<I", blob, 0)
        return json.loads(blob[4 : 4 + header_len]), blob[4 + header_len :]

    def test_valid_blob_still_loads(self, blob):
        model = CFNN.from_bytes(blob)
        assert model.is_trained and model.to_bytes() == blob

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"hidden_channels": 16, "expanded_channels": 32},
            {"ndim": 3, "n_anchors": 3, "kernel_size": 5, "attention_reduction": 3},
            {"expanded_channels": 2, "attention_reduction": 4},
        ],
    )
    def test_declared_parameter_count_matches_the_built_network(self, overrides):
        config = CFNNConfig(**{"n_anchors": 2, "ndim": 2, **overrides})
        assert config.num_parameters == build_cfnn_network(config).num_parameters()

    def test_truncation_at_every_offset(self, blob):
        worst_peak = worst_seconds = 0.0
        for cut in range(len(blob)):
            peak, seconds = _rejected(blob[:cut])
            worst_peak, worst_seconds = max(worst_peak, peak), max(worst_seconds, seconds)
        assert worst_peak < self.PEAK_BYTES
        assert worst_seconds < self.SECONDS

    def test_trailing_garbage(self, blob):
        _rejected(blob + b"\x00")

    @pytest.mark.parametrize(
        "blob",
        [b"", b"\x01", b"\xff\xff\xff\xff", struct.pack("<I", 2) + b"{]", struct.pack("<I", 2) + b"[]",
         struct.pack("<I", 4) + b"\xff\xfe\x00\x01", struct.pack("<I", 4000) + b"[" * 4000],
        ids=["empty", "one byte", "length past end", "bad json", "not an object", "not utf-8", "deep nesting"],
    )
    def test_malformed_framing(self, blob):
        peak, seconds = _rejected(blob)
        assert peak < self.PEAK_BYTES and seconds < self.SECONDS

    @pytest.mark.parametrize("key", ["config", "tile_size", "anchor_scales", "target_scales"])
    def test_missing_header_key(self, parts, key):
        header, weights = parts
        _rejected(_frame({k: v for k, v in header.items() if k != key}, weights))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("config", None), ("config", []), ("config", "cfnn"), ("config", {}),
            ("tile_size", "64"), ("tile_size", 64.0), ("tile_size", True), ("tile_size", 0),
            ("tile_size", -64), ("tile_size", 2), ("tile_size", 10**9),
            ("anchor_scales", None), ("anchor_scales", 1.0), ("anchor_scales", [1.0]),
            ("anchor_scales", [1.0] * 5), ("anchor_scales", ["a"] * 4), ("anchor_scales", [[1.0]] * 4),
            ("anchor_scales", [1.0, 1.0, 1.0, 0.0]), ("anchor_scales", [1.0, 1.0, 1.0, -1.0]),
            ("anchor_scales", [1.0, 1.0, 1.0, float("nan")]), ("anchor_scales", [1.0, 1.0, 1.0, float("inf")]),
            ("target_scales", []), ("target_scales", [1.0] * 3), ("target_scales", {"0": 1.0}),
            ("extra", 1),
        ],
    )
    def test_corrupt_header_field(self, parts, key, value):
        header, weights = parts
        peak, seconds = _rejected(_frame({**header, key: value}, weights))
        assert peak < self.PEAK_BYTES and seconds < self.SECONDS

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_anchors", 0), ("n_anchors", -1), ("n_anchors", 10**6), ("n_anchors", 2.0), ("n_anchors", "2"),
            ("ndim", 1), ("ndim", 4), ("ndim", None),
            ("hidden_channels", 0), ("hidden_channels", -4), ("hidden_channels", 100000), ("hidden_channels", True),
            ("expanded_channels", 0), ("expanded_channels", 100000), ("expanded_channels", [8]),
            ("kernel_size", 0), ("kernel_size", -3), ("kernel_size", 4), ("kernel_size", 17), ("kernel_size", 10**6 + 1),
            ("attention_reduction", 0), ("attention_reduction", -2),
            ("seed", "7"), ("seed", 7.5),
            ("hidden_channels", 5), ("expanded_channels", 9), ("kernel_size", 5), ("n_anchors", 3),
            ("attention_reduction", 1), ("hidden_channels", 3), ("kernel_size", 1),
        ],
    )
    def test_corrupt_config_field(self, parts, field, value):
        """Out-of-range, mistyped, and in-range-but-wrong values (the last rows:
        a consistent config that no longer matches the weights that follow)."""
        header, weights = parts
        corrupt = {**header, "config": {**header["config"], field: value}}
        if field == "n_anchors" and value == 3:  # keep the scale list consistent with the lie
            corrupt["anchor_scales"] = [1.0] * 6
        peak, seconds = _rejected(_frame(corrupt, weights))
        assert peak < self.PEAK_BYTES and seconds < self.SECONDS

    def test_config_with_missing_or_unknown_field(self, parts):
        header, weights = parts
        config = header["config"]
        _rejected(_frame({**header, "config": {k: v for k, v in config.items() if k != "seed"}}, weights))
        _rejected(_frame({**header, "config": {**config, "dropout": 1}}, weights))

    def test_small_blob_cannot_request_a_huge_model(self):
        """The 150-byte blob of the bug report: it used to try a 74.5 GiB allocation."""
        config = {"n_anchors": 3, "ndim": 3, "hidden_channels": 100000, "expanded_channels": 100000,
                  "kernel_size": 3, "attention_reduction": 4, "seed": 7}
        header = {"config": config, "tile_size": 64, "anchor_scales": [1.0] * 9, "target_scales": [1.0] * 3}
        peak, seconds = _rejected(_frame(header, b""))
        assert peak < self.PEAK_BYTES and seconds < self.SECONDS
        # within every cap, yet far more parameters than the blob has bytes for
        config.update(hidden_channels=1024, expanded_channels=1024)
        peak, seconds = _rejected(_frame(header, b"\x00" * 64))
        assert peak < self.PEAK_BYTES and seconds < self.SECONDS

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda state: {**state, "dtype": "int8"},
            lambda state: {**state, "dtype": "float128"},
            lambda state: {k: v for k, v in state.items() if k != "dtype"},
            lambda state: {**state, "params": None},
            lambda state: {**state, "params": state["params"][:-1]},
            lambda state: {**state, "params": state["params"] + [{"name": "extra", "shape": [1]}]},
            lambda state: {**state, "params": [{**state["params"][0], "name": "evil"}] + state["params"][1:]},
            lambda state: {**state, "params": [{**state["params"][0], "shape": [10**9, 10**9]}] + state["params"][1:]},
            lambda state: {**state, "params": [{"name": state["params"][0]["name"]}] + state["params"][1:]},
            lambda state: {**state, "params": ["weight"] * len(state["params"])},
        ],
        ids=["int dtype", "unknown dtype", "no dtype", "params null", "param missing", "param extra",
             "param renamed", "huge shape", "no shape", "params not objects"],
    )
    def test_corrupt_state_header(self, parts, mutate):
        header, weights = parts
        (state_len,) = struct.unpack_from("<I", weights, 0)
        state = json.loads(weights[4 : 4 + state_len])
        peak, seconds = _rejected(_frame(header, _frame(mutate(state), weights[4 + state_len :])))
        assert peak < self.PEAK_BYTES and seconds < self.SECONDS
