"""Baseline SZ-style compression pipeline.

Implements the three-stage prediction-based compressor described in paper
Section II-A, with the dual-quantization variant of Section III-D1 used as the
baseline throughout the evaluation:

1. prequantize the data onto the error-bound lattice,
2. predict every lattice code with a local predictor (Lorenzo by default) and
   form integer residuals,
3. entropy-code the residuals (canonical Huffman + a lossless byte backend)
   with verbatim storage of unpredictable outliers.

The residual encode/decode helpers are shared with the cross-field compressor
in :mod:`repro.core.compressor`, which only replaces stage 2.

When telemetry is enabled (``--profile`` / ``REPRO_TELEMETRY``) every stage is
timed separately — ``sz.quantize.prequantize_seconds`` /
``sz.quantize.dequantize_seconds``, ``sz.predict.<predictor>.encode_seconds`` /
``.decode_seconds`` and the ``sz.predict.points`` counter — so profiles show
the predict/quantize split next to the entropy stage; see
``docs/observability.md`` for the metric naming scheme.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.container import CompressedBlob
from repro.encoding.entropy import get_entropy_coder
from repro.encoding.lossless import get_backend
from repro.obs import recorder as _obs
from repro.encoding.rle import zigzag_decode, zigzag_encode
from repro.sz.errors import ErrorBound
from repro.sz.predictors import (
    InterpolationPredictor,
    RegressionPredictor,
    lorenzo_inverse,
    lorenzo_transform,
)
from repro.sz.quantizer import (
    QUANT_RADIUS_DEFAULT,
    dequantize,
    effective_error_bound,
    prequantize,
)
from repro.utils.validation import ensure_array, ensure_in

__all__ = [
    "CompressionResult",
    "SZCompressor",
    "encode_integer_stream",
    "decode_integer_stream",
    "decode_integer_streams",
]

_PREDICTORS = ("lorenzo", "regression", "interpolation")


# --------------------------------------------------------------------------- #
# result object
# --------------------------------------------------------------------------- #
@dataclass
class CompressionResult:
    """Outcome of one compression call: payload plus size accounting.

    Stage timings are recorded through :mod:`repro.obs`.
    """

    payload: bytes
    original_nbytes: int
    compressed_nbytes: int
    abs_error_bound: float
    element_count: int
    element_size: int
    section_sizes: Dict[str, int] = field(default_factory=dict)
    metadata: Dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Compression ratio: original bytes / compressed bytes."""
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes

    @property
    def bit_rate(self) -> float:
        """Average compressed bits per data point."""
        if self.element_count == 0:
            return 0.0
        return 8.0 * self.compressed_nbytes / self.element_count

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.original_nbytes / 1e6:.2f} MB -> {self.compressed_nbytes / 1e6:.3f} MB "
            f"(ratio {self.ratio:.2f}x, {self.bit_rate:.3f} bits/value, eb={self.abs_error_bound:.3g})"
        )


# --------------------------------------------------------------------------- #
# shared integer-residual entropy stage
# --------------------------------------------------------------------------- #
def encode_integer_stream(
    residuals: np.ndarray,
    entropy: str,
    backend_name: str,
    radius: int = QUANT_RADIUS_DEFAULT,
    prefix: str = "residual",
) -> Tuple[Dict[str, bytes], Dict]:
    """Entropy-code an integer residual array into named byte sections.

    Residuals with magnitude ``>= radius`` are replaced by an escape symbol and
    stored verbatim in side sections (SZ's "unpredictable data").  The symbol
    stream itself goes through the :mod:`repro.encoding.entropy` registry —
    ``entropy`` names any registered coder, and a coder that rejects the
    stream (Huffman on a huge alphabet) is swapped for its declared fallback.
    Returns the sections plus the metadata the decoder needs (entropy mode
    actually used, escape symbol, element count).
    """
    coder = get_entropy_coder(entropy)
    backend = get_backend(backend_name)
    residuals = np.asarray(residuals, dtype=np.int64).ravel()
    n = residuals.size

    outlier_mask = np.abs(residuals) >= radius
    outlier_positions = np.nonzero(outlier_mask)[0].astype(np.int64)
    outlier_values = residuals[outlier_mask]

    escape_symbol = 2 * radius
    symbols = zigzag_encode(np.where(outlier_mask, 0, residuals))
    symbols[outlier_mask] = escape_symbol

    if not coder.supports(symbols) and coder.fallback is not None:
        coder = get_entropy_coder(coder.fallback)

    recorder = _obs.get_recorder()
    encode_start = time.perf_counter()
    coder_sections, coder_meta = coder.encode(symbols, backend)
    if recorder.enabled:
        encode_seconds = time.perf_counter() - encode_start
        encoded_bytes = sum(len(value) for value in coder_sections.values())
        recorder.observe(f"entropy.{coder.name}.encode_seconds", encode_seconds)
        recorder.count(f"entropy.{coder.name}.symbols_in", int(symbols.size))
        recorder.count(f"entropy.{coder.name}.bytes_out", encoded_bytes)
    sections: Dict[str, bytes] = {
        f"{prefix}.{key}": value for key, value in coder_sections.items()
    }

    if outlier_positions.size:
        sections[f"{prefix}.outlier_positions"] = backend.compress(outlier_positions.tobytes())
        sections[f"{prefix}.outlier_values"] = backend.compress(outlier_values.tobytes())

    meta = {
        "entropy": coder.name,
        "backend": backend.name,
        "radius": int(radius),
        "escape_symbol": int(escape_symbol),
        "count": int(n),
        "outliers": int(outlier_positions.size),
        "prefix": prefix,
    }
    meta.update(coder_meta)
    return sections, meta


def decode_integer_stream(sections: Dict[str, bytes], meta: Dict) -> np.ndarray:
    """Inverse of :func:`encode_integer_stream`: reconstruct the residual array (1D)."""
    return decode_integer_streams(sections, [meta])[0]


def decode_integer_streams(sections: Dict[str, bytes], metas: Sequence[Dict]) -> List[np.ndarray]:
    """Decode the streams ``metas`` describe, all stored in ``sections``, in one pass.

    Streams that share an entropy coder and backend go to one
    :meth:`~repro.encoding.entropy.EntropyCoder.decode_many` call, and the
    escapes and the zigzag map are undone over all streams at once.  Each
    stream's stored outlier positions must be exactly the positions of its
    escape symbols, with one stored value each; otherwise ``ValueError``.
    Returns one residual array (1D) per meta.
    """
    if not metas:
        return []
    coded: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(metas)
    by_coder: Dict[Tuple[str, str], List[int]] = {}
    for k, meta in enumerate(metas):
        by_coder.setdefault((meta["entropy"], meta["backend"]), []).append(k)
    recorder = _obs.get_recorder()
    for (entropy, backend_name), members in by_coder.items():
        coder = get_entropy_coder(entropy)
        own = [_coder_sections(sections, metas[k].get("prefix", "residual")) for k in members]
        decode_start = time.perf_counter()
        decoded = coder.decode_many(own, [metas[k] for k in members], get_backend(backend_name))
        if recorder.enabled:
            decode_seconds = time.perf_counter() - decode_start
            recorder.observe(f"entropy.{coder.name}.decode_seconds", decode_seconds)
            recorder.count(f"entropy.{coder.name}.symbols_out", sum(int(d.size) for d in decoded))
            recorder.count(
                f"entropy.{coder.name}.bytes_in",
                sum(len(value) for sections_k in own for value in sections_k.values()),
            )
        for k, symbols in zip(members, decoded):
            coded[k] = symbols

    counts = [int(meta["count"]) for meta in metas]
    for symbols, n in zip(coded, counts):
        if symbols.size != n:
            raise ValueError(f"decoded {symbols.size} symbols, expected {n}")
    symbols = np.concatenate(coded) if len(coded) > 1 else coded[0]
    escapes = [int(meta["escape_symbol"]) for meta in metas]
    escape = escapes[0] if len(set(escapes)) == 1 else np.repeat(escapes, counts)
    # escape slots decode to junk here and are all overwritten below
    residuals = zigzag_decode(symbols)
    positions, values = _outliers(sections, metas)
    if not np.array_equal(positions, np.flatnonzero(symbols == escape)):
        raise ValueError("stored outlier positions do not match the escape symbols")
    residuals[positions] = values
    cuts = list(itertools.accumulate(counts))
    return [residuals[stop - n : stop] for n, stop in zip(counts, cuts)]


def _coder_sections(sections: Dict[str, bytes], prefix: str) -> Dict[str, bytes]:
    """The sections a stream's coder produced, unprefixed.

    The outlier side sections share the prefix but belong to
    :func:`decode_integer_streams`, not the coder.
    """
    marker = f"{prefix}."
    own = {f"{prefix}.outlier_positions", f"{prefix}.outlier_values"}
    return {
        key[len(marker):]: value
        for key, value in sections.items()
        if key.startswith(marker) and key not in own
    }


def _outliers(sections: Dict[str, bytes], metas: Sequence[Dict]) -> Tuple[np.ndarray, np.ndarray]:
    """Every stream's stored outlier positions and values, positions offset
    into the concatenated streams.

    A stored position outside its own stream, or a value count that differs
    from the position count, raises ``ValueError``.
    """
    position_bytes: List[bytes] = []
    value_bytes: List[bytes] = []
    counts: List[int] = []  # stored outliers per stream that has any
    sizes: List[int] = []  # that stream's symbol count
    bases: List[int] = []  # and its first index in the concatenation
    base = 0
    for meta in metas:
        if int(meta.get("outliers", 0)):
            backend = get_backend(meta["backend"])
            prefix = meta.get("prefix", "residual")
            stored = backend.decompress(sections[f"{prefix}.outlier_positions"])
            stored_values = backend.decompress(sections[f"{prefix}.outlier_values"])
            if len(stored) % 8 or len(stored_values) != len(stored):
                raise ValueError(
                    f"stream {prefix!r}: {len(stored)} bytes of outlier positions, "
                    f"{len(stored_values)} bytes of outlier values"
                )
            position_bytes.append(stored)
            value_bytes.append(stored_values)
            counts.append(len(stored) // 8)
            sizes.append(int(meta["count"]))
            bases.append(base)
        base += int(meta["count"])
    positions = np.frombuffer(b"".join(position_bytes), dtype=np.int64)
    if positions.size:
        if int(positions.min()) < 0 or np.any(positions >= np.repeat(sizes, counts)):
            raise ValueError("stored outlier position outside its stream")
        positions = positions + np.repeat(bases, counts)
    return positions, np.frombuffer(b"".join(value_bytes), dtype=np.int64)


# --------------------------------------------------------------------------- #
# the compressor
# --------------------------------------------------------------------------- #
class SZCompressor:
    """SZ3-style error-bounded lossy compressor (the paper's baseline).

    Parameters
    ----------
    error_bound:
        :class:`~repro.sz.errors.ErrorBound`; the paper uses value-range
        relative bounds between 5e-3 and 2e-4.
    predictor:
        ``"lorenzo"`` (default, the baseline configuration in the paper),
        ``"regression"`` or ``"interpolation"``.
    entropy:
        Any :mod:`repro.encoding.entropy` registry name — ``"huffman"``
        (default), ``"zlib"`` or ``"raw"`` out of the box.
    backend:
        Lossless byte backend applied after entropy coding (``"zlib"``/``"raw"``).
    quant_radius:
        Residuals at or above this magnitude are stored verbatim.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sz import SZCompressor, ErrorBound
    >>> data = np.random.default_rng(0).normal(size=(64, 64)).astype(np.float32)
    >>> comp = SZCompressor(error_bound=ErrorBound.relative(1e-3))
    >>> result = comp.compress(data)
    >>> recon = comp.decompress(result.payload)
    >>> bool(np.max(np.abs(recon - data)) <= result.abs_error_bound)
    True
    """

    format_name = "sz-baseline"

    def __init__(
        self,
        error_bound: ErrorBound = ErrorBound.relative(1e-3),
        predictor: str = "lorenzo",
        entropy: str = "huffman",
        backend: str = "zlib",
        quant_radius: int = QUANT_RADIUS_DEFAULT,
        regression_block_size: int = 6,
    ) -> None:
        if not isinstance(error_bound, ErrorBound):
            raise TypeError("error_bound must be an ErrorBound instance")
        ensure_in(predictor, _PREDICTORS, "predictor")
        get_entropy_coder(entropy)  # unknown names raise, listing the registry
        self.error_bound = error_bound
        self.predictor = predictor
        self.entropy = entropy
        self.backend = backend
        self.quant_radius = int(quant_radius)
        self.regression_block_size = int(regression_block_size)

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def compress(self, data: np.ndarray, field_name: str = "") -> CompressionResult:
        """Compress ``data`` and return a :class:`CompressionResult`."""
        data = ensure_array(data, "data")
        if data.ndim not in (1, 2, 3):
            raise ValueError("SZCompressor supports 1D, 2D and 3D data")
        recorder = _obs.get_recorder()

        with recorder.timer("sz.quantize.prequantize_seconds"):
            abs_eb = self.error_bound.resolve(data)
            codes = prequantize(data, effective_error_bound(abs_eb))

        extra_sections: Dict[str, bytes] = {}
        extra_meta: Dict = {}
        with recorder.timer(f"sz.predict.{self.predictor}.encode_seconds"):
            if self.predictor == "lorenzo":
                residuals = lorenzo_transform(codes)
            elif self.predictor == "interpolation":
                residuals = InterpolationPredictor().encode(codes)
            else:  # regression
                reg = RegressionPredictor(self.regression_block_size)
                residuals, coefficients = reg.encode(codes)
                backend = get_backend(self.backend)
                extra_sections["regression.coefficients"] = backend.compress(
                    coefficients.coefficients.astype(np.float32).tobytes()
                )
                extra_meta["regression"] = {
                    "block_size": self.regression_block_size,
                    "n_blocks": int(coefficients.coefficients.shape[0]),
                }
        recorder.count("sz.predict.points", int(data.size))

        sections, stream_meta = encode_integer_stream(
            residuals, self.entropy, self.backend, self.quant_radius
        )
        sections.update(extra_sections)

        metadata = {
            "format": self.format_name,
            "field_name": field_name,
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "error_bound": self.error_bound.to_dict(),
            "abs_error_bound": abs_eb,
            "predictor": self.predictor,
            "stream": stream_meta,
        }
        metadata.update(extra_meta)

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
    # decompression
    # ------------------------------------------------------------------ #
    def decompress(self, payload: bytes) -> np.ndarray:
        """Decompress a payload produced by :meth:`compress`."""
        blob = CompressedBlob.from_bytes(payload)
        metadata = blob.metadata
        if metadata.get("format") != self.format_name:
            raise ValueError(
                f"payload format {metadata.get('format')!r} is not {self.format_name!r}"
            )
        shape = tuple(metadata["shape"])
        dtype = np.dtype(metadata["dtype"])
        abs_eb = float(metadata["abs_error_bound"])
        predictor = metadata["predictor"]

        residuals = decode_integer_stream(blob.sections, metadata["stream"]).reshape(shape)

        recorder = _obs.get_recorder()
        predict_start = time.perf_counter()
        if predictor == "lorenzo":
            codes = lorenzo_inverse(residuals)
        elif predictor == "interpolation":
            codes = InterpolationPredictor().decode(residuals)
        elif predictor == "regression":
            from repro.sz.predictors import RegressionCoefficients

            reg_meta = metadata["regression"]
            backend = get_backend(metadata["stream"]["backend"])
            coeff_bytes = backend.decompress(blob.get_section("regression.coefficients"))
            ndim = len(shape)
            coeffs = np.frombuffer(coeff_bytes, dtype=np.float32).reshape(
                int(reg_meta["n_blocks"]), ndim + 1
            )
            reg = RegressionPredictor(int(reg_meta["block_size"]))
            codes = reg.decode(
                residuals,
                RegressionCoefficients(
                    tuple(int(reg_meta["block_size"]) for _ in range(ndim)), coeffs
                ),
            )
        else:  # pragma: no cover - guarded at construction
            raise ValueError(f"unknown predictor {predictor!r}")
        if recorder.enabled:
            recorder.observe(
                f"sz.predict.{predictor}.decode_seconds",
                time.perf_counter() - predict_start,
            )
            recorder.count("sz.predict.points", int(residuals.size))

        dequantize_start = time.perf_counter()
        reconstructed = dequantize(codes, effective_error_bound(abs_eb), dtype=dtype)
        if recorder.enabled:
            recorder.observe(
                "sz.quantize.dequantize_seconds", time.perf_counter() - dequantize_start
            )
        return reconstructed
