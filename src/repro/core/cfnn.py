"""The Cross-Field Neural Network (CFNN).

Architecture (paper Figure 4): an initial convolution extracting local spatial
features, a depthwise separable convolution module (depthwise + pointwise), a
channel attention block that re-weights the channels, and a final convolution
producing one output channel per data dimension — the predicted first-order
backward differences of the target field.

Design points carried over from the paper:

- inputs and outputs are *backward differences*, not raw values (Section III-B);
- the network is trained on normalised original data, so one trained model is
  reused for every error bound of the same field (Section III-D2);
- the model is deliberately compact (thousands of parameters, Table III)
  because its serialised weights are stored in the compressed stream.

Inference over a full field is tiled with a halo so memory stays bounded; the
tiling is deterministic and recorded in the compressed metadata, so compressor
and decompressor always produce identical predictions.  Inside a tile every
convolution walks the flattened grid in fixed-width blocks (see
``repro.nn.functional``), so its temporaries stay cache-sized whatever the
tile size.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.training import TrainingConfig, make_difference_patches
from repro.data.differences import backward_differences_all_dims
from repro.nn import (
    Adam,
    ChannelAttention,
    Conv2d,
    Conv3d,
    DepthwiseSeparableConv2d,
    DepthwiseSeparableConv3d,
    ReLU,
    Sequential,
    Trainer,
    TrainingHistory,
    count_parameters,
    state_from_bytes,
    state_to_bytes,
)
from repro.nn.serialization import read_json_header
from repro.obs import recorder as _obs
from repro.utils.validation import ensure_array

__all__ = ["CFNNConfig", "build_cfnn_network", "CFNN"]

#: Caps on what a serialised model may declare.  A model blob comes out of an
#: archive, so :meth:`CFNN.from_bytes` checks them before it builds anything;
#: the paper's models have thousands of parameters and 8-32 channels.
MAX_CHANNELS = 1024
MAX_KERNEL_SIZE = 15
MAX_TILE_SIZE = 4096
MAX_PARAMETERS = 1 << 24

#: Share of the training patches held out for the per-epoch validation loss
#: (skipped when the rest would not fill one batch).
VALIDATION_FRACTION = 0.1


@dataclass
class CFNNConfig:
    """Architecture hyper-parameters of the CFNN."""

    n_anchors: int
    ndim: int
    hidden_channels: int = 16
    expanded_channels: int = 32
    kernel_size: int = 3
    attention_reduction: int = 4
    seed: int = 7

    def __post_init__(self) -> None:
        if self.ndim not in (2, 3):
            raise ValueError("CFNN supports 2D and 3D data")
        if self.n_anchors < 1:
            raise ValueError("at least one anchor field is required")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd ('same' padding)")

    @property
    def in_channels(self) -> int:
        """Input channels: one backward-difference channel per anchor per axis."""
        return self.n_anchors * self.ndim

    @property
    def out_channels(self) -> int:
        """Output channels: one predicted backward difference per axis."""
        return self.ndim

    @property
    def halo(self) -> int:
        """Receptive-field halo needed for exact tiled inference of the conv stack."""
        # three k-sized convolutions (initial, depthwise, final) with 'same' padding
        return 3 * (self.kernel_size // 2)

    @property
    def num_parameters(self) -> int:
        """Scalar parameters of the network :func:`build_cfnn_network` builds,
        computed without building it (what :meth:`CFNN.from_bytes` checks a
        blob's length against before it allocates anything)."""
        taps = self.kernel_size**self.ndim
        hidden, expanded = self.hidden_channels, self.expanded_channels
        squeezed = max(1, expanded // self.attention_reduction)
        return (
            hidden * (self.in_channels * taps + 1)  # initial convolution
            + hidden * (taps + 1)  # depthwise
            + expanded * (hidden + 1)  # pointwise
            + squeezed * (expanded + 1) + expanded * (squeezed + 1)  # attention MLP
            + self.out_channels * (expanded * taps + 1)  # final convolution
        )

    def to_dict(self) -> Dict:
        """JSON-serialisable representation stored in the compressed metadata."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "CFNNConfig":
        """Inverse of :meth:`to_dict`.

        ``payload`` may come out of an archive: anything but exactly this
        class's integer fields, within the module's caps, is a ``ValueError``.
        """
        names = [f.name for f in fields(cls)]
        if not isinstance(payload, dict) or sorted(payload) != sorted(names):
            raise ValueError(f"CFNN config must be an object with exactly the keys {names}")
        for name, value in payload.items():
            if type(value) is not int:
                raise ValueError(f"CFNN config field {name!r} must be an integer, got {value!r}")
        config = cls(**payload)
        if not (
            config.in_channels <= MAX_CHANNELS
            and 1 <= config.hidden_channels <= MAX_CHANNELS
            and 1 <= config.expanded_channels <= MAX_CHANNELS
            and 1 <= config.kernel_size <= MAX_KERNEL_SIZE
            and config.attention_reduction >= 1
        ):
            raise ValueError(
                f"CFNN config out of range (at most {MAX_CHANNELS} channels, "
                f"kernel size 1-{MAX_KERNEL_SIZE}, positive sizes): {payload}"
            )
        if config.num_parameters > MAX_PARAMETERS:
            raise ValueError(
                f"CFNN config declares {config.num_parameters} parameters, "
                f"more than the {MAX_PARAMETERS} allowed"
            )
        return config


def build_cfnn_network(config: CFNNConfig, rng: Optional[np.random.Generator] = None) -> Sequential:
    """Instantiate the CFNN layer stack for the given configuration."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    if config.ndim == 2:
        initial = Conv2d(config.in_channels, config.hidden_channels, config.kernel_size, rng=rng)
        separable = DepthwiseSeparableConv2d(
            config.hidden_channels, config.expanded_channels, config.kernel_size, rng=rng
        )
        final = Conv2d(config.expanded_channels, config.out_channels, config.kernel_size, rng=rng)
    else:
        initial = Conv3d(config.in_channels, config.hidden_channels, config.kernel_size, rng=rng)
        separable = DepthwiseSeparableConv3d(
            config.hidden_channels, config.expanded_channels, config.kernel_size, rng=rng
        )
        final = Conv3d(config.expanded_channels, config.out_channels, config.kernel_size, rng=rng)
    attention = ChannelAttention(config.expanded_channels, config.attention_reduction, rng=rng)
    # the first layer is fed anchor differences, not another layer's output
    initial.needs_input_grad = False
    return Sequential(initial, ReLU(), separable, ReLU(), attention, final)


class CFNN:
    """Cross-field predictor: trained CNN plus its normalisation state.

    Parameters
    ----------
    config:
        Architecture description (:class:`CFNNConfig`).
    tile_size:
        Spatial tile edge used for full-field inference (memory control).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CFNN, CFNNConfig, TrainingConfig
    >>> rng = np.random.default_rng(0)
    >>> anchors = [rng.normal(size=(32, 32)).cumsum(axis=1) for _ in range(2)]
    >>> target = 0.5 * anchors[0] + 0.5 * anchors[1]
    >>> model = CFNN(CFNNConfig(n_anchors=2, ndim=2))
    >>> history = model.train(anchors, target, TrainingConfig(epochs=2, n_patches=16))
    >>> diffs = model.predict_differences(anchors)
    >>> len(diffs), diffs[0].shape
    (2, (32, 32))
    """

    def __init__(self, config: CFNNConfig, tile_size: int = 64) -> None:
        if tile_size < 4 * (config.kernel_size // 2) + 2:
            raise ValueError("tile_size too small for the receptive field")
        self.config = config
        self.tile_size = int(tile_size)
        self.network = build_cfnn_network(config)
        self.anchor_scales: Optional[np.ndarray] = None
        self.target_scales: Optional[np.ndarray] = None
        self.history: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        """Number of scalar parameters (the "Model Size CFNN" column of Table III)."""
        return count_parameters(self.network)

    @property
    def is_trained(self) -> bool:
        """Whether normalisation state exists (set by :meth:`train` or :meth:`from_bytes`)."""
        return self.anchor_scales is not None and self.target_scales is not None

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def train(
        self,
        anchor_arrays: Sequence[np.ndarray],
        target_array: np.ndarray,
        training: Optional[TrainingConfig] = None,
    ) -> TrainingHistory:
        """Train the CFNN on aligned anchor/target backward-difference patches.

        The anchors should be the arrays that will also be available at
        decompression time (typically the *decompressed* anchor fields); the
        target is the original field being compressed (the paper trains on
        original values so one model serves every error bound).
        """
        if len(anchor_arrays) != self.config.n_anchors:
            raise ValueError(
                f"expected {self.config.n_anchors} anchor arrays, got {len(anchor_arrays)}"
            )
        training = training if training is not None else TrainingConfig()
        with _obs.span("core.cfnn.train_seconds", epochs=training.epochs):
            rng = np.random.default_rng(training.seed)
            inputs, targets, anchor_scales, target_scales = make_difference_patches(
                anchor_arrays, target_array, training, rng=rng
            )
            self.anchor_scales = anchor_scales
            self.target_scales = target_scales

            n_val = int(round(VALIDATION_FRACTION * inputs.shape[0]))
            validation = None
            if n_val > 0 and inputs.shape[0] - n_val >= training.batch_size:
                validation = (inputs[-n_val:], targets[-n_val:])
                inputs, targets = inputs[:-n_val], targets[:-n_val]

            # Train in float32, infer in float64: the stream stores float16
            # weights, so wider training arithmetic never reaches a stored
            # byte.  The optimizer's moments follow the parameters' dtype, and
            # the cast back is exact, so to_bytes rounds the float32 values.
            self.network.astype(np.float32)
            try:
                optimizer = Adam(self.network.parameters(), lr=training.learning_rate)
                trainer = Trainer(self.network, optimizer, batch_size=training.batch_size, rng=rng)
                self.history = trainer.fit(
                    inputs, targets, epochs=training.epochs, validation=validation
                )
            finally:
                self.network.astype(np.float64)
        return self.history

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def _prepare_input(self, anchor_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Stack normalised anchor backward differences into a (1, C, *S) tensor."""
        if self.anchor_scales is None:
            raise RuntimeError("CFNN has no normalisation state; train or load it first")
        if len(anchor_arrays) != self.config.n_anchors:
            raise ValueError(
                f"expected {self.config.n_anchors} anchor arrays, got {len(anchor_arrays)}"
            )
        diffs: List[np.ndarray] = []
        shape = None
        for anchor in anchor_arrays:
            anchor = ensure_array(anchor, "anchor", dtype=np.float64)
            if anchor.ndim != self.config.ndim:
                raise ValueError(
                    f"anchor has {anchor.ndim} dimensions, CFNN is configured for {self.config.ndim}"
                )
            if shape is None:
                shape = anchor.shape
            elif anchor.shape != shape:
                raise ValueError("anchor arrays must share the same grid")
            diffs.extend(backward_differences_all_dims(anchor))
        stacked = np.stack([d / s for d, s in zip(diffs, self.anchor_scales)], axis=0)
        return stacked[np.newaxis, ...]

    def _tiles(self, spatial_shape: Tuple[int, ...]):
        """Yield (core_slices, padded_slices, crop_slices) for halo-padded tiling."""
        halo = self.config.halo
        tile = self.tile_size
        starts = [range(0, s, tile) for s in spatial_shape]
        for combo in itertools.product(*starts):
            core = tuple(
                slice(start, min(start + tile, size)) for start, size in zip(combo, spatial_shape)
            )
            padded = tuple(
                slice(max(c.start - halo, 0), min(c.stop + halo, size))
                for c, size in zip(core, spatial_shape)
            )
            crop = tuple(
                slice(c.start - p.start, (c.start - p.start) + (c.stop - c.start))
                for c, p in zip(core, padded)
            )
            yield core, padded, crop

    def predict_differences(self, anchor_arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Predict the target field's backward differences along every axis.

        Returns one float64 array per axis, in physical (de-normalised) units.
        Inference runs tile-by-tile with a receptive-field halo so arbitrarily
        large fields fit in memory; the tiling is deterministic, which is what
        keeps compressor and decompressor predictions identical.
        """
        if self.target_scales is None:
            raise RuntimeError("CFNN has no normalisation state; train or load it first")
        with _obs.span("core.cfnn.infer_seconds"):
            batch = self._prepare_input(anchor_arrays)
            spatial_shape = batch.shape[2:]
            output = np.zeros((self.config.out_channels,) + spatial_shape, dtype=np.float64)
            for core, padded, crop in self._tiles(spatial_shape):
                tile_input = batch[(slice(None), slice(None)) + padded]
                tile_output = self.network(tile_input)[0]
                output[(slice(None),) + core] = tile_output[(slice(None),) + crop]
            return [output[d] * self.target_scales[d] for d in range(self.config.out_channels)]

    # ------------------------------------------------------------------ #
    # serialization (weights + scales travel inside the compressed stream)
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialise weights (as float16) and normalisation scales to bytes."""
        if not self.is_trained:
            raise RuntimeError("cannot serialise an untrained CFNN")
        # float16 weight storage halves the embedded-model overhead; the
        # decompressor reloads the same rounded weights, so predictions stay
        # bit-identical between compression and decompression.
        weights = state_to_bytes(self.network, dtype=np.float16)
        header = {
            "config": self.config.to_dict(),
            "tile_size": self.tile_size,
            "anchor_scales": [float(s) for s in self.anchor_scales],
            "target_scales": [float(s) for s in self.target_scales],
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        return struct.pack("<I", len(header_bytes)) + header_bytes + weights

    @classmethod
    def from_bytes(cls, payload: bytes) -> "CFNN":
        """Reconstruct a trained CFNN serialised by :meth:`to_bytes`.

        The blob is untrusted (it is read out of an archive): a truncated or
        mutated one raises ``ValueError``, and it does so before the network
        it declares is built, so a small blob cannot request a large model.
        """
        header, offset = read_json_header(payload, "CFNN model")
        if sorted(header) != ["anchor_scales", "config", "target_scales", "tile_size"]:
            raise ValueError("CFNN model: header must hold config, tile_size and both scale lists")
        config = CFNNConfig.from_dict(header["config"])
        tile_size = header["tile_size"]
        if type(tile_size) is not int or not 1 <= tile_size <= MAX_TILE_SIZE:
            raise ValueError(f"CFNN model: tile_size must be an integer in 1-{MAX_TILE_SIZE}")
        scales = []
        for key, length in (("anchor_scales", config.in_channels), ("target_scales", config.out_channels)):
            values = header[key]
            if (
                not isinstance(values, list)
                or len(values) != length
                or not all(type(v) is float and math.isfinite(v) and v > 0 for v in values)
            ):
                raise ValueError(f"CFNN model: {key} must be {length} positive finite numbers")
            scales.append(np.asarray(values, dtype=np.float64))
        # float16 is the narrowest stored dtype: fewer bytes than that cannot be this model
        if len(payload) - offset < 2 * config.num_parameters:
            raise ValueError(
                f"CFNN model: {len(payload) - offset} bytes of weights cannot hold "
                f"the {config.num_parameters} parameters the config declares"
            )
        model = cls(config, tile_size=tile_size)
        model.anchor_scales, model.target_scales = scales
        state_from_bytes(model.network, payload[offset:])
        return model
