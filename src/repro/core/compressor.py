"""The cross-field compressor (paper Section III).

:class:`CrossFieldCompressor` plugs the CFNN and the hybrid prediction model
into the dual-quantization SZ pipeline:

1. prequantize the target field onto the error-bound lattice;
2. train (or reuse) a CFNN on the anchor fields, predict the target's backward
   differences, and quantize them onto the same lattice;
3. fit the hybrid model combining the per-axis cross-field predictions with the
   Lorenzo prediction;
4. code the residuals of the hybrid prediction with the same entropy stage as
   the baseline; the serialised CFNN weights and the hybrid weights travel
   inside the compressed stream (their size counts against the ratio, exactly
   as in the paper's accounting).

Decompression reconstructs the CFNN from the stream, recomputes the cross-field
predictions from the *same anchor arrays* (callers must supply the anchors that
were used at compression time — normally the decompressed anchor fields), and
replays the prediction recurrence with the wavefront decoder.

Whole field sets go through :class:`~repro.pipeline.CompressionPipeline` (or
:class:`~repro.store.ArchiveWriter`), which stores anchors first and feeds their
reconstructions to this compressor through the ``cross-field`` codec.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.cfnn import CFNN, CFNNConfig
from repro.core.hybrid import HybridPredictor
from repro.core.training import TrainingConfig
from repro.encoding.container import CompressedBlob
from repro.encoding.entropy import get_entropy_coder
from repro.encoding.lossless import get_backend
from repro.obs import recorder as _obs
from repro.sz.decode import decode_weighted_wavefront, weighted_predict_full
from repro.sz.errors import ErrorBound
from repro.sz.pipeline import CompressionResult, decode_integer_stream, encode_integer_stream
from repro.sz.predictors import lorenzo_predict
from repro.sz.quantizer import (
    QUANT_RADIUS_DEFAULT,
    dequantize,
    effective_error_bound,
    prequantize,
)
from repro.utils.validation import ensure_array, ensure_in

__all__ = ["CrossFieldCompressor"]


class CrossFieldCompressor:
    """Error-bounded lossy compressor enhanced with cross-field prediction.

    Parameters
    ----------
    error_bound:
        Error bound (the paper sweeps value-range-relative bounds 5e-3 … 2e-4).
    cfnn_config:
        Optional architecture override; by default a configuration matching the
        number of anchors and the data dimensionality is built automatically.
    training:
        CFNN training hyper-parameters.
    hybrid_method:
        ``"lstsq"`` (default) or ``"sgd"`` fitting of the hybrid weights.
    include_model:
        Whether the serialised CFNN is embedded in the payload (default) — it
        then counts against the compression ratio, mirroring the paper.  Set to
        ``False`` only when an externally managed model is reused across many
        snapshots and should be accounted separately.
    allow_fallback:
        When True (default) the compressor also encodes the codes with the
        plain Lorenzo predictor and keeps whichever stream (hybrid + embedded
        model vs. local-only) is smaller, so weak cross-field signal can never
        make the output larger than the baseline by more than the metadata
        overhead.  Set to ``False`` to always store the hybrid stream.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CrossFieldCompressor, TrainingConfig
    >>> from repro.data import make_dataset
    >>> from repro.sz import ErrorBound
    >>> ds = make_dataset("cesm", shape=(48, 96))
    >>> anchors = [ds[n].data for n in ("CLDLOW", "CLDMED", "CLDHGH")]
    >>> comp = CrossFieldCompressor(error_bound=ErrorBound.relative(1e-3),
    ...                             training=TrainingConfig(epochs=2, n_patches=24))
    >>> result = comp.compress(ds["CLDTOT"].data, anchors)
    >>> recon = comp.decompress(result.payload, anchors)
    >>> bool(np.max(np.abs(recon - ds["CLDTOT"].data)) <= result.abs_error_bound)
    True
    """

    format_name = "sz-cross-field"

    def __init__(
        self,
        error_bound: ErrorBound = ErrorBound.relative(1e-3),
        cfnn_config: Optional[CFNNConfig] = None,
        training: Optional[TrainingConfig] = None,
        entropy: str = "huffman",
        backend: str = "zlib",
        quant_radius: int = QUANT_RADIUS_DEFAULT,
        tile_size: int = 64,
        hybrid_method: str = "lstsq",
        include_model: bool = True,
        allow_fallback: bool = True,
    ) -> None:
        if not isinstance(error_bound, ErrorBound):
            raise TypeError("error_bound must be an ErrorBound instance")
        ensure_in(hybrid_method, ("lstsq", "sgd"), "hybrid_method")
        get_entropy_coder(entropy)  # unknown names raise, listing the registry
        self.error_bound = error_bound
        self.cfnn_config = cfnn_config
        self.training = training if training is not None else TrainingConfig()
        self.entropy = entropy
        self.backend = backend
        self.quant_radius = int(quant_radius)
        self.tile_size = int(tile_size)
        self.hybrid_method = hybrid_method
        self.include_model = bool(include_model)
        self.allow_fallback = bool(allow_fallback)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _validate_anchors(
        self, target: np.ndarray, anchor_arrays: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        if not anchor_arrays:
            raise ValueError("cross-field compression needs at least one anchor field")
        anchors = [ensure_array(a, "anchor", dtype=np.float64) for a in anchor_arrays]
        for anchor in anchors:
            if anchor.shape != target.shape:
                raise ValueError(
                    f"anchor shape {anchor.shape} does not match target shape {target.shape}"
                )
        return anchors

    def _build_cfnn(self, n_anchors: int, ndim: int) -> CFNN:
        config = self.cfnn_config
        if config is None:
            if ndim == 2:
                config = CFNNConfig(n_anchors=n_anchors, ndim=2, hidden_channels=8, expanded_channels=16)
            else:
                config = CFNNConfig(n_anchors=n_anchors, ndim=3, hidden_channels=8, expanded_channels=16)
        if config.n_anchors != n_anchors or config.ndim != ndim:
            raise ValueError(
                "cfnn_config does not match the number of anchors / data dimensionality"
            )
        return CFNN(config, tile_size=self.tile_size)

    @staticmethod
    def _quantize_differences(
        predicted_diffs: Sequence[np.ndarray], abs_eb: float
    ) -> List[np.ndarray]:
        """Quantize predicted (float) backward differences onto the code lattice."""
        return [np.rint(np.asarray(d, dtype=np.float64) / (2.0 * abs_eb)).astype(np.int64) for d in predicted_diffs]

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def compress(
        self,
        target_data: np.ndarray,
        anchor_arrays: Sequence[np.ndarray],
        field_name: str = "",
        cfnn: Optional[CFNN] = None,
    ) -> CompressionResult:
        """Compress ``target_data`` using ``anchor_arrays`` for cross-field prediction.

        ``anchor_arrays`` must be exactly the arrays that will be supplied again
        at decompression time (typically the decompressed anchor fields).  A
        pre-trained :class:`CFNN` can be passed via ``cfnn`` to reuse one model
        across several error bounds of the same field, as the paper does.
        """
        target_data = ensure_array(target_data, "target_data")
        if target_data.ndim not in (2, 3):
            raise ValueError("CrossFieldCompressor supports 2D and 3D data")
        anchors = self._validate_anchors(target_data, anchor_arrays)

        # stage 1: prequantization (identical to the baseline)
        abs_eb = self.error_bound.resolve(target_data)
        quant_eb = effective_error_bound(abs_eb)
        codes = prequantize(target_data, quant_eb)

        # stage 2a: cross-field model
        if cfnn is None:
            cfnn = self._build_cfnn(len(anchors), target_data.ndim)
            cfnn.train(anchors, np.asarray(target_data, dtype=np.float64), self.training)
        elif not cfnn.is_trained:
            raise ValueError("a supplied CFNN must already be trained")
        # Round-trip the model through its serialised form (float16 weights) so
        # that the predictions used for residual coding are bit-identical to
        # what the decompressor will compute from the embedded weights.
        model_bytes = cfnn.to_bytes()
        inference_model = CFNN.from_bytes(model_bytes)

        predicted_diffs = inference_model.predict_differences(anchors)
        diff_codes = self._quantize_differences(predicted_diffs, quant_eb)

        # stage 2b: hybrid combination
        hybrid = HybridPredictor(ndim=target_data.ndim)
        with _obs.span("core.hybrid.fit_seconds", method=self.hybrid_method):
            hybrid.fit(codes, diff_codes, method=self.hybrid_method)
        weights = np.asarray(hybrid.weights, dtype=np.float64)
        prediction = weighted_predict_full(codes, diff_codes, weights)
        residuals = codes - prediction
        candidate_lorenzo = lorenzo_predict(codes)

        # stage 3: entropy coding.  The hybrid stream carries the embedded CFNN,
        # so its total size is compared against a plain Lorenzo encoding of the
        # same codes; if the local predictor alone is smaller (this happens when
        # the cross-field signal is weak and the model overhead dominates), the
        # compressor falls back to it — mirroring SZ's "best-fit predictor"
        # philosophy while keeping the error bound untouched.
        backend = get_backend(self.backend)
        sections, stream_meta = encode_integer_stream(
            residuals, self.entropy, self.backend, self.quant_radius
        )
        hybrid_total = sum(len(v) for v in sections.values())
        if self.include_model:
            model_section = backend.compress(model_bytes)
            hybrid_total += len(model_section)

        lorenzo_sections, lorenzo_meta = encode_integer_stream(
            codes - candidate_lorenzo, self.entropy, self.backend, self.quant_radius
        )
        lorenzo_total = sum(len(v) for v in lorenzo_sections.values())

        use_fallback = self.allow_fallback and lorenzo_total < hybrid_total
        if use_fallback:
            sections, stream_meta = lorenzo_sections, lorenzo_meta
            mode = "lorenzo-fallback"
        else:
            mode = "hybrid"
            if self.include_model:
                sections["model.cfnn"] = model_section
        _obs.count(f"core.mode.{mode}")

        metadata = {
            "format": self.format_name,
            "field_name": field_name,
            "shape": list(target_data.shape),
            "dtype": str(target_data.dtype),
            "error_bound": self.error_bound.to_dict(),
            "abs_error_bound": abs_eb,
            "stream": stream_meta,
            "hybrid": hybrid.to_dict(),
            "mode": mode,
            "n_anchors": len(anchors),
            "model_included": self.include_model and not use_fallback,
            "cfnn_parameters": cfnn.num_parameters,
            "hybrid_parameters": hybrid.num_parameters,
        }

        blob = CompressedBlob(metadata=metadata, sections=sections)
        payload = blob.to_bytes()
        result = CompressionResult(
            payload=payload,
            original_nbytes=int(target_data.nbytes),
            compressed_nbytes=len(payload),
            abs_error_bound=abs_eb,
            element_count=int(target_data.size),
            element_size=int(target_data.dtype.itemsize),
            section_sizes=blob.section_sizes(),
            metadata=metadata,
        )
        return result

    # ------------------------------------------------------------------ #
    # decompression
    # ------------------------------------------------------------------ #
    def decompress(
        self,
        payload: bytes,
        anchor_arrays: Sequence[np.ndarray],
        cfnn: Optional[CFNN] = None,
    ) -> np.ndarray:
        """Decompress a payload produced by :meth:`compress`.

        ``anchor_arrays`` must match the arrays used at compression time.  When
        the payload was produced with ``include_model=False`` the same trained
        :class:`CFNN` must be supplied via ``cfnn``.
        """
        blob = CompressedBlob.from_bytes(payload)
        metadata = blob.metadata
        if metadata.get("format") != self.format_name:
            raise ValueError(
                f"payload format {metadata.get('format')!r} is not {self.format_name!r}"
            )
        shape = tuple(metadata["shape"])
        dtype = np.dtype(metadata["dtype"])
        abs_eb = float(metadata["abs_error_bound"])
        quant_eb = effective_error_bound(abs_eb)
        backend = get_backend(metadata["stream"]["backend"])

        anchors = [ensure_array(a, "anchor", dtype=np.float64) for a in anchor_arrays]
        if len(anchors) != int(metadata["n_anchors"]):
            raise ValueError(
                f"payload was compressed with {metadata['n_anchors']} anchors, got {len(anchors)}"
            )
        for anchor in anchors:
            if anchor.shape != shape:
                raise ValueError("anchor arrays must match the compressed field's grid")

        residuals = decode_integer_stream(blob.sections, metadata["stream"]).reshape(shape)

        if metadata.get("mode") == "lorenzo-fallback":
            # the compressor determined that the pure local prediction encoded
            # smaller than the hybrid prediction (including the embedded model),
            # so the payload is a plain Lorenzo stream: no CFNN inference needed.
            weights = np.zeros(len(shape) + 1, dtype=np.float64)
            weights[0] = 1.0
            diff_codes = [np.zeros(shape, dtype=np.int64) for _ in range(len(shape))]
        else:
            if metadata.get("model_included", True):
                model = CFNN.from_bytes(backend.decompress(blob.get_section("model.cfnn")))
            else:
                if cfnn is None or not cfnn.is_trained:
                    raise ValueError(
                        "payload does not embed the CFNN; supply the trained model via `cfnn`"
                    )
                model = CFNN.from_bytes(cfnn.to_bytes())
            predicted_diffs = model.predict_differences(anchors)
            diff_codes = self._quantize_differences(predicted_diffs, quant_eb)
            weights = np.asarray(
                HybridPredictor.from_dict(metadata["hybrid"]).weights, dtype=np.float64
            )

        codes = decode_weighted_wavefront(residuals, diff_codes, weights)
        return dequantize(codes, quant_eb, dtype=dtype)
