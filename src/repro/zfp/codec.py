"""Fixed-accuracy ZFP-style compressor with a progressive payload layout.

Pipeline: tile the field into 4-wide blocks, transform each block with the
orthonormal DCT (batched over the whole field — see
:mod:`repro.zfp.transform`), quantize the coefficients with a conservative
step size that guarantees the requested point-wise error bound, and
entropy-code the integer coefficients with the same Huffman + lossless stage
as the SZ pipeline.

The coefficient step is ``2 * eb / sqrt(block_points)`` where ``block_points``
is the *actual* sample count of the block containing the coefficient: the
transform is orthonormal, so the L2 norm of the coefficient error equals the
L2 norm of the sample error, and the worst-case point-wise error is bounded by
that L2 norm — hence the per-point error never exceeds ``eb``.  Edge blocks
truncated by the field boundary hold fewer samples and get the correspondingly
larger (still bound-safe) step.  This is intentionally conservative (real ZFP
uses embedded bit-plane coding), which is why this codec serves as an ablation
baseline rather than a tuned competitor.

Two payload layouts share the container format (no format-version bump; the
layout is recorded in the blob metadata and in ``codec_params``):

- ``"grouped"`` (default): coefficients are reordered by significance level
  (:mod:`repro.zfp.layout`) and every level is entropy-coded as its own blob
  section with its byte length and energy in the metadata.  A *prefix* of the
  groups decodes to a valid coarse field — :meth:`ZFPLikeCompressor.decompress`
  takes ``max_groups`` and :meth:`~ZFPLikeCompressor.decompress_preview` maps
  a byte-budget fraction onto a group count and reports the error estimate.
- ``"interleaved"``: the original flat C-order stream.  Payloads written
  before the grouped layout existed carry no ``layout`` key and are
  auto-detected as interleaved; they decode bit-identically to the original
  scalar implementation (pinned by the ``mixed-codec`` golden archive).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encoding.container import CompressedBlob
from repro.encoding.entropy import get_entropy_coder
from repro.obs import recorder as _obs
from repro.sz.errors import ErrorBound
from repro.sz.pipeline import (
    CompressionResult,
    decode_integer_stream,
    decode_integer_streams,
    encode_integer_stream,
)
from repro.sz.quantizer import QUANT_RADIUS_DEFAULT, effective_error_bound
from repro.utils.validation import ensure_array, ensure_in
from repro.zfp.layout import groups_for_fraction, significance_plan
from repro.zfp.transform import field_transform_forward, field_transform_inverse

__all__ = ["ZFPLikeCompressor", "ZFP_LAYOUTS"]

ZFP_LAYOUTS = ("grouped", "interleaved")


class ZFPLikeCompressor:
    """Transform-based error-bounded compressor (simplified fixed-accuracy ZFP)."""

    format_name = "zfp-like"

    def __init__(
        self,
        error_bound: ErrorBound = ErrorBound.relative(1e-3),
        block_size: int = 4,
        entropy: str = "huffman",
        backend: str = "zlib",
        quant_radius: int = QUANT_RADIUS_DEFAULT,
        layout: str = "grouped",
    ) -> None:
        if not isinstance(error_bound, ErrorBound):
            raise TypeError("error_bound must be an ErrorBound instance")
        if block_size < 2:
            raise ValueError("block_size must be at least 2")
        get_entropy_coder(entropy)  # unknown names raise, listing the registry
        ensure_in(layout, ZFP_LAYOUTS, "layout")
        self.error_bound = error_bound
        self.block_size = int(block_size)
        self.entropy = entropy
        self.backend = backend
        self.quant_radius = int(quant_radius)
        self.layout = layout

    # ------------------------------------------------------------------ #
    def _step(self, abs_eb: float, ndim: int) -> float:
        """Scalar step for a full (untruncated) block — the legacy formula."""
        block_points = float(self.block_size**ndim)
        return 2.0 * effective_error_bound(abs_eb) / np.sqrt(block_points)

    @staticmethod
    def _step_array(abs_eb: float, point_counts: np.ndarray) -> np.ndarray:
        """Per-element step from each element's actual block point count.

        Same operation order as :meth:`_step`, so on fields with no ragged
        edges every entry is bitwise equal to the scalar step.
        """
        return 2.0 * effective_error_bound(abs_eb) / np.sqrt(point_counts)

    # ------------------------------------------------------------------ #
    def compress(self, data: np.ndarray, field_name: str = "") -> CompressionResult:
        """Compress ``data`` and return a :class:`~repro.sz.pipeline.CompressionResult`."""
        data = ensure_array(data, "data")
        if data.ndim not in (1, 2, 3):
            raise ValueError("ZFPLikeCompressor supports 1D, 2D and 3D data")
        recorder = _obs.get_recorder()

        with recorder.timer("zfp.transform.forward_seconds"):
            abs_eb = self.error_bound.resolve(data)
            plan = significance_plan(data.shape, self.block_size)
            transformed = field_transform_forward(data, self.block_size)
            if self.layout == "grouped":
                step_flat = self._step_array(abs_eb, plan.point_counts)
            else:
                # the interleaved decoder applies one scalar step everywhere, so
                # the encoder must quantize with it too (the legacy behaviour)
                step_flat = self._step(abs_eb, data.ndim)
            quantized = np.rint(transformed.ravel() / step_flat).astype(np.int64)
        recorder.count("zfp.transform.points", int(data.size))

        metadata = {
            "format": self.format_name,
            "field_name": field_name,
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "error_bound": self.error_bound.to_dict(),
            "abs_error_bound": abs_eb,
            "block_size": self.block_size,
            "step": self._step(abs_eb, data.ndim),
            "layout": self.layout,
        }

        sections: Dict[str, bytes] = {}
        if self.layout == "grouped":
            grouped = quantized[plan.perm]
            grouped_steps = step_flat[plan.perm]
            groups_meta: List[Dict] = []
            for g, sl in enumerate(plan.group_slices()):
                group_sections, stream_meta = encode_integer_stream(
                    grouped[sl],
                    self.entropy,
                    self.backend,
                    self.quant_radius,
                    prefix=f"g{g}",
                )
                sections.update(group_sections)
                values = grouped[sl].astype(np.float64) * grouped_steps[sl]
                groups_meta.append(
                    {
                        "level": int(plan.group_levels[g]),
                        "count": int(sl.stop - sl.start),
                        "bytes": int(sum(len(v) for v in group_sections.values())),
                        "energy": float(np.dot(values, values)),
                        "stream": stream_meta,
                    }
                )
            metadata["groups"] = groups_meta
        else:
            stream_sections, stream_meta = encode_integer_stream(
                quantized, self.entropy, self.backend, self.quant_radius
            )
            sections.update(stream_sections)
            metadata["stream"] = stream_meta

        blob = CompressedBlob(metadata=metadata, sections=sections)
        payload = blob.to_bytes()
        return CompressionResult(
            payload=payload,
            original_nbytes=int(data.nbytes),
            compressed_nbytes=len(payload),
            abs_error_bound=abs_eb,
            element_count=int(data.size),
            element_size=int(data.dtype.itemsize),
            section_sizes=blob.section_sizes(),
            metadata=metadata,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def payload_layout(metadata: Dict) -> str:
        """Layout of a parsed payload: missing key means a legacy interleaved one."""
        return str(metadata.get("layout", "interleaved"))

    def decompress(self, payload: bytes, max_groups: Optional[int] = None) -> np.ndarray:
        """Decompress a payload produced by :meth:`compress`.

        ``max_groups`` (grouped payloads only) decodes just the first ``N``
        significance groups — a coarse preview; ``None`` decodes everything.
        """
        array, _ = self._decode(payload, max_groups=max_groups)
        return array

    def decompress_preview(self, payload: bytes, fraction: float) -> Tuple[np.ndarray, Dict]:
        """Decode a coarse preview within a byte-budget ``fraction``.

        Picks the largest significance-group prefix whose entropy sections fit
        in ``fraction`` of the total entropy payload (always at least the
        block-means group) and returns ``(array, info)`` where ``info`` holds
        ``groups_decoded``, ``groups_total``, ``bytes_decoded``,
        ``bytes_total`` and ``rms_error_estimate`` (the orthonormal-transform
        energy of the dropped groups; 0.0 for a full decode).  Interleaved
        payloads have no decodable prefix and fall back to a full decode.
        """
        blob = CompressedBlob.from_bytes(payload)
        metadata = self._check_format(blob.metadata)
        if self.payload_layout(metadata) == "grouped":
            group_bytes = [int(g["bytes"]) for g in metadata["groups"]]
            max_groups = groups_for_fraction(group_bytes, fraction)
        else:
            max_groups = None
        return self._decode_blob(blob, max_groups=max_groups)

    # ------------------------------------------------------------------ #
    def _check_format(self, metadata: Dict) -> Dict:
        if metadata.get("format") != self.format_name:
            raise ValueError(
                f"payload format {metadata.get('format')!r} is not {self.format_name!r}"
            )
        return metadata

    def _decode(self, payload: bytes, max_groups: Optional[int] = None) -> Tuple[np.ndarray, Dict]:
        blob = CompressedBlob.from_bytes(payload)
        self._check_format(blob.metadata)
        return self._decode_blob(blob, max_groups=max_groups)

    def _decode_blob(
        self, blob: CompressedBlob, max_groups: Optional[int] = None
    ) -> Tuple[np.ndarray, Dict]:
        metadata = blob.metadata
        recorder = _obs.get_recorder()
        shape = tuple(metadata["shape"])
        dtype = np.dtype(metadata["dtype"])
        block_size = int(metadata["block_size"])
        layout = self.payload_layout(metadata)

        if layout == "grouped":
            coefficients, info = self._decode_grouped_stream(
                blob, metadata, shape, block_size, max_groups
            )
            abs_eb = float(metadata["abs_error_bound"])
            plan = significance_plan(shape, block_size)
            step = self._step_array(abs_eb, plan.point_counts).reshape(shape)
        else:
            coefficients = decode_integer_stream(blob.sections, metadata["stream"]).reshape(shape)
            # legacy payloads quantized every block with the scalar step
            step = float(metadata["step"])
            bytes_total = int(sum(blob.section_sizes().values()))
            info = {
                "groups_decoded": 1,
                "groups_total": 1,
                "bytes_decoded": bytes_total,
                "bytes_total": bytes_total,
                "rms_error_estimate": 0.0,
            }

        t0 = time.perf_counter()
        out = field_transform_inverse(
            coefficients.astype(np.float64) * step, block_size
        )
        if recorder.enabled:
            recorder.observe("zfp.transform.inverse_seconds", time.perf_counter() - t0)
            recorder.count("zfp.transform.points", int(out.size))
        return out.astype(dtype), info

    def _decode_grouped_stream(
        self,
        blob: CompressedBlob,
        metadata: Dict,
        shape: Tuple[int, ...],
        block_size: int,
        max_groups: Optional[int],
    ) -> Tuple[np.ndarray, Dict]:
        recorder = _obs.get_recorder()
        groups_meta = metadata["groups"]
        total_groups = len(groups_meta)
        if max_groups is None:
            take = total_groups
        else:
            if max_groups < 1:
                raise ValueError("max_groups must be at least 1")
            take = min(int(max_groups), total_groups)

        plan = significance_plan(shape, block_size)
        flat = np.zeros(int(np.prod(shape)) if shape else 0, dtype=np.int64)
        # the groups are consecutive runs of the significance order
        streams = decode_integer_streams(blob.sections, [g["stream"] for g in groups_meta[:take]])
        values = np.concatenate(streams) if streams else np.zeros(0, dtype=np.int64)
        flat[plan.perm[: values.size]] = values

        bytes_decoded = int(sum(int(g["bytes"]) for g in groups_meta[:take]))
        bytes_total = int(sum(int(g["bytes"]) for g in groups_meta))
        dropped_energy = float(sum(float(g["energy"]) for g in groups_meta[take:]))
        n_points = max(1, int(np.prod(shape)) if shape else 0)
        info = {
            "groups_decoded": take,
            "groups_total": total_groups,
            "bytes_decoded": bytes_decoded,
            "bytes_total": bytes_total,
            "rms_error_estimate": float(np.sqrt(dropped_energy / n_points)),
        }
        if recorder.enabled:
            recorder.count("zfp.preview.groups_decoded", take)
            recorder.count("zfp.preview.groups_skipped", total_groups - take)
            recorder.count("zfp.preview.bytes_decoded", bytes_decoded)
            recorder.count("zfp.preview.bytes_skipped", bytes_total - bytes_decoded)
        return flat.reshape(shape), info
