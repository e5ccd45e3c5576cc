"""Codec registry: one pluggable interface over every compressor in the repo.

The archive store compresses each chunk of each field with a *codec* — a named,
parameterised wrapper that turns an ndarray chunk into opaque bytes and back.
Wrapping the existing compressors (:class:`~repro.sz.pipeline.SZCompressor`,
:class:`~repro.zfp.codec.ZFPLikeCompressor`,
:class:`~repro.core.compressor.CrossFieldCompressor`, and the lossless byte
backends) behind one :class:`Codec` interface means new backends plug into the
store by calling :func:`register_codec` — the writer, reader and CLI never
change.

Codec parameters must be JSON-serialisable (they are stored in the archive
manifest so a reader can reconstruct the codec without out-of-band knowledge).
Error bounds travel as ``{"mode": ..., "value": ...}`` dictionaries; the
:class:`~repro.store.writer.ArchiveWriter` resolves relative bounds against the
*full* field before chunking, so every chunk honours the same absolute bound —
the same bound as a single-shot compression of the whole field.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Type, Union

import numpy as np

from repro.encoding.container import CompressedBlob
from repro.encoding.lossless import get_backend
from repro.sz.errors import ErrorBound
from repro.sz.quantizer import QUANT_RADIUS_DEFAULT

__all__ = [
    "Codec",
    "SZChunkCodec",
    "ZFPChunkCodec",
    "CrossFieldChunkCodec",
    "LosslessChunkCodec",
    "TemporalDeltaCodec",
    "register_codec",
    "get_codec",
    "check_codec_params",
    "codec_class",
    "available_codecs",
]


def _as_error_bound(value: Union[ErrorBound, Dict, float, None]) -> ErrorBound:
    """Accept an :class:`ErrorBound`, its dict form, or a bare float (relative)."""
    if value is None:
        return ErrorBound.relative(1e-3)
    if isinstance(value, ErrorBound):
        return value
    if isinstance(value, dict):
        return ErrorBound.from_dict(value)
    return ErrorBound.relative(float(value))


class Codec(ABC):
    """Interface every chunk codec must implement.

    Subclasses set :attr:`name` (the registry key), may flip
    :attr:`is_lossless` (exact byte round-trip, no error bound) and
    :attr:`requires_anchors` (decode needs aligned anchor-field chunks, as the
    cross-field compressor does), and must keep every constructor argument
    JSON-serialisable and reported by :meth:`params`.

    A codec that sets :attr:`supports_preview` also implements
    ``decode_preview(payload, fraction, anchors=None)``: a
    coarse decode within a byte-budget ``fraction``, returning ``(array,
    info)`` where ``info`` reports ``groups_decoded`` / ``groups_total`` /
    ``bytes_decoded`` / ``bytes_total`` / ``rms_error_estimate`` /
    ``fallback``.  The reader calls it for no other codec; their previews are
    the cached full decode, reported with ``fallback: True``.
    """

    #: Registry key.
    name: str = "abstract"
    #: True when decode reproduces the input bytes exactly.
    is_lossless: bool = False
    #: True when encode/decode need aligned anchor chunks.
    requires_anchors: bool = False
    #: True when :meth:`decode` accepts any bytes-like payload (memoryview
    #: included), letting the reader hand mmap-backed buffers in zero-copy.
    #: Codecs that require a real ``bytes`` object keep the default; the
    #: reader then materialises the payload before calling them.
    decode_accepts_buffer: bool = False
    #: True when the codec implements ``decode_preview``, reconstructing a
    #: coarse chunk from a payload prefix (progressive layouts).
    supports_preview: bool = False

    @abstractmethod
    def encode(self, chunk: np.ndarray, anchors: Optional[Sequence[np.ndarray]] = None) -> bytes:
        """Compress one chunk into opaque bytes."""

    @abstractmethod
    def decode(self, payload: bytes, anchors: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        """Inverse of :meth:`encode`.

        Decode is serial: the reader parallelises across chunks, never within one.
        """

    @abstractmethod
    def params(self) -> Dict:
        """JSON-serialisable constructor parameters (stored in the manifest)."""


class SZChunkCodec(Codec):
    """Chunk codec backed by the SZ3-style baseline pipeline.

    Decoding runs through the vectorised predictor paths in
    :mod:`repro.sz.predictors` (batched per-shape index tables, see
    ``docs/architecture.md`` "The wavefront batch decoder"); the
    ``tests/test_sz_parity.py`` harness pins them bit-identical to the scalar
    reference implementations, and the ``sz-hybrid`` golden archive pins the
    decoded bytes across releases.
    """

    name = "sz"
    decode_accepts_buffer = True

    def __init__(
        self,
        error_bound: Union[ErrorBound, Dict, float, None] = None,
        predictor: str = "lorenzo",
        entropy: str = "huffman",
        backend: str = "zlib",
        quant_radius: int = QUANT_RADIUS_DEFAULT,
    ) -> None:
        from repro.sz.pipeline import SZCompressor

        self.error_bound = _as_error_bound(error_bound)
        self.predictor = predictor
        self.entropy = entropy
        self.backend = backend
        self.quant_radius = int(quant_radius)
        self._compressor = SZCompressor(
            error_bound=self.error_bound,
            predictor=predictor,
            entropy=entropy,
            backend=backend,
            quant_radius=self.quant_radius,
        )

    def encode(self, chunk: np.ndarray, anchors: Optional[Sequence[np.ndarray]] = None) -> bytes:
        return self._compressor.compress(chunk).payload

    def decode(self, payload: bytes, anchors: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        return self._compressor.decompress(payload)

    def params(self) -> Dict:
        return {
            "error_bound": self.error_bound.to_dict(),
            "predictor": self.predictor,
            "entropy": self.entropy,
            "backend": self.backend,
            "quant_radius": self.quant_radius,
        }


class ZFPChunkCodec(Codec):
    """Chunk codec backed by the transform-based ZFP-like compressor.

    The default ``layout="grouped"`` stores each chunk's coefficients in
    significance-ordered groups (:mod:`repro.zfp.layout`), which makes chunk
    payloads prefix-decodable: :meth:`decode_preview` reconstructs a coarse
    chunk from the first groups only.  ``layout="interleaved"`` writes the
    legacy flat stream; payloads of either layout decode regardless of the
    codec's own ``layout`` setting (the blob metadata wins).
    """

    name = "zfp"
    decode_accepts_buffer = True
    supports_preview = True

    def __init__(
        self,
        error_bound: Union[ErrorBound, Dict, float, None] = None,
        block_size: int = 4,
        entropy: str = "huffman",
        backend: str = "zlib",
        layout: str = "grouped",
    ) -> None:
        from repro.zfp.codec import ZFPLikeCompressor

        self.error_bound = _as_error_bound(error_bound)
        self.block_size = int(block_size)
        self.entropy = entropy
        self.backend = backend
        self.layout = layout
        self._compressor = ZFPLikeCompressor(
            error_bound=self.error_bound,
            block_size=self.block_size,
            entropy=entropy,
            backend=backend,
            layout=layout,
        )

    def encode(self, chunk: np.ndarray, anchors: Optional[Sequence[np.ndarray]] = None) -> bytes:
        return self._compressor.compress(chunk).payload

    def decode(self, payload: bytes, anchors: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        return self._compressor.decompress(payload)

    def decode_preview(
        self,
        payload: bytes,
        fraction: float,
        anchors: Optional[Sequence[np.ndarray]] = None,
    ):
        return self._compressor.decompress_preview(payload, fraction)

    def params(self) -> Dict:
        return {
            "error_bound": self.error_bound.to_dict(),
            "block_size": self.block_size,
            "entropy": self.entropy,
            "backend": self.backend,
            "layout": self.layout,
        }


class CrossFieldChunkCodec(Codec):
    """Chunk codec backed by the paper's cross-field compressor.

    Encode and decode both receive the *reconstructed* chunks of the anchor
    fields (the store guarantees writer and reader see bit-identical anchors),
    so the CFNN predictions match on both sides.  Training hyper-parameters
    default to small values sized for per-chunk models; ``allow_fallback``
    keeps the output no larger than a plain Lorenzo stream when a chunk has
    weak cross-field signal.
    """

    name = "cross-field"
    requires_anchors = True
    decode_accepts_buffer = True

    def __init__(
        self,
        error_bound: Union[ErrorBound, Dict, float, None] = None,
        epochs: int = 4,
        n_patches: int = 32,
        entropy: str = "huffman",
        backend: str = "zlib",
        allow_fallback: bool = True,
        seed: int = 1234,
    ) -> None:
        from repro.core.compressor import CrossFieldCompressor
        from repro.core.training import TrainingConfig

        self.error_bound = _as_error_bound(error_bound)
        self.epochs = int(epochs)
        self.n_patches = int(n_patches)
        self.entropy = entropy
        self.backend = backend
        self.allow_fallback = bool(allow_fallback)
        self.seed = int(seed)
        self._compressor = CrossFieldCompressor(
            error_bound=self.error_bound,
            training=TrainingConfig(epochs=self.epochs, n_patches=self.n_patches, seed=self.seed),
            entropy=entropy,
            backend=backend,
            allow_fallback=self.allow_fallback,
        )

    def _check_anchors(self, anchors: Optional[Sequence[np.ndarray]]) -> List[np.ndarray]:
        if not anchors:
            raise ValueError("cross-field codec needs at least one anchor chunk")
        return [np.asarray(a, dtype=np.float64) for a in anchors]

    def encode(self, chunk: np.ndarray, anchors: Optional[Sequence[np.ndarray]] = None) -> bytes:
        return self._compressor.compress(chunk, self._check_anchors(anchors)).payload

    def decode(self, payload: bytes, anchors: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        return self._compressor.decompress(payload, self._check_anchors(anchors))

    def params(self) -> Dict:
        return {
            "error_bound": self.error_bound.to_dict(),
            "epochs": self.epochs,
            "n_patches": self.n_patches,
            "entropy": self.entropy,
            "backend": self.backend,
            "allow_fallback": self.allow_fallback,
            "seed": self.seed,
        }


class LosslessChunkCodec(Codec):
    """Exact chunk codec: raw array bytes through a lossless byte backend.

    The chunk bytes travel inside a :class:`CompressedBlob` whose metadata
    records shape and dtype, so decode needs no side information.
    """

    name = "lossless"
    is_lossless = True
    decode_accepts_buffer = True

    format_name = "lossless-chunk"

    def __init__(self, backend: str = "zlib") -> None:
        self.backend = backend
        self._backend = get_backend(backend)

    def encode(self, chunk: np.ndarray, anchors: Optional[Sequence[np.ndarray]] = None) -> bytes:
        chunk = np.ascontiguousarray(chunk)
        blob = CompressedBlob(
            metadata={
                "format": self.format_name,
                "shape": list(chunk.shape),
                "dtype": str(chunk.dtype),
                "backend": self._backend.name,
            }
        )
        blob.add_section("data", self._backend.compress(chunk.tobytes()))
        return blob.to_bytes()

    def decode(self, payload: bytes, anchors: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        blob = CompressedBlob.from_bytes(payload)
        metadata = blob.metadata
        if metadata.get("format") != self.format_name:
            raise ValueError(
                f"payload format {metadata.get('format')!r} is not {self.format_name!r}"
            )
        backend = get_backend(metadata["backend"])
        raw = backend.decompress(blob.get_section("data"))
        return np.frombuffer(raw, dtype=np.dtype(metadata["dtype"])).reshape(
            tuple(metadata["shape"])
        ).copy()

    def params(self) -> Dict:
        return {"backend": self.backend}


class TemporalDeltaCodec(Codec):
    """Residual coding against the previous timestep, through any base codec.

    The anchor chunk handed in by the store is the *decoded* chunk of the same
    field at the previous timestep (closed-loop prediction): encode compresses
    the residual ``chunk - previous`` with the ``base`` codec at the target
    error bound, decode adds the reconstructed residual back.  Because the
    base codec bounds ``|residual_hat - residual|``, the reconstruction
    satisfies ``|decoded - original| <= bound`` at *every* step — the bound
    does not drift along a delta chain.

    ``base`` must be a non-anchored codec (``sz`` / ``zfp`` / ``lossless`` /
    any registered equivalent); with a lossless base the round trip is exact.
    Chained deltas resolve recursively through the store's anchor machinery:
    reading step *t* decodes back to the nearest independent anchor step.
    """

    name = "temporal-delta"
    requires_anchors = True

    def __init__(
        self,
        error_bound: Union[ErrorBound, Dict, float, None] = None,
        base: str = "sz",
        base_params: Optional[Dict] = None,
    ) -> None:
        base_cls = codec_class(base)
        if base_cls.requires_anchors:
            raise ValueError(
                f"temporal-delta base codec must decode without anchors, got {base!r}"
            )
        self.base = base_cls.name
        self.base_params = dict(base_params or {})
        if base_cls.is_lossless:
            self.error_bound = None
            self._base = get_codec(base, **self.base_params)
        else:
            self.error_bound = _as_error_bound(error_bound)
            self._base = get_codec(base, error_bound=self.error_bound, **self.base_params)
        # residual payloads go straight to the base codec, so buffer support
        # is exactly whatever the base declares
        self.decode_accepts_buffer = getattr(self._base, "decode_accepts_buffer", False)

    def _previous(self, anchors: Optional[Sequence[np.ndarray]]) -> np.ndarray:
        if not anchors or len(anchors) != 1:
            raise ValueError(
                "temporal-delta codec needs exactly one anchor chunk "
                "(the decoded previous timestep)"
            )
        return np.asarray(anchors[0], dtype=np.float64)

    def encode(self, chunk: np.ndarray, anchors: Optional[Sequence[np.ndarray]] = None) -> bytes:
        residual = np.asarray(chunk, dtype=np.float64) - self._previous(anchors)
        return self._base.encode(np.ascontiguousarray(residual))

    def decode(self, payload: bytes, anchors: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        residual = self._base.decode(payload)
        return self._previous(anchors) + np.asarray(residual, dtype=np.float64)

    def params(self) -> Dict:
        payload: Dict = {"base": self.base, "base_params": self.base_params}
        if self.error_bound is not None:
            payload["error_bound"] = self.error_bound.to_dict()
        return payload


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[Codec]] = {}


def register_codec(cls: Type[Codec]) -> Type[Codec]:
    """Register a codec class under ``cls.name`` (usable as a decorator).

    Names are case-insensitive: the registry key is lowercased to match the
    lowercased lookups in :func:`get_codec` / :func:`codec_class`.
    """
    if not (isinstance(cls, type) and issubclass(cls, Codec)):
        raise TypeError("codec must subclass Codec")
    if not cls.name or cls.name == Codec.name:
        raise ValueError("codec class must define a unique `name`")
    _REGISTRY[cls.name.lower()] = cls
    return cls


def get_codec(name: Union[str, Codec], **params) -> Codec:
    """Instantiate a codec by registry name (instances pass through)."""
    if isinstance(name, Codec):
        return name
    check_codec_params(name, params)
    return codec_class(name)(**params)


def check_codec_params(name: str, params: Mapping) -> None:
    """Raise ``ValueError`` unless codec ``name``'s constructor takes every key of ``params``."""
    cls = codec_class(name)
    accepted = dict(inspect.signature(cls.__init__).parameters)
    accepted.pop("self", None)
    if any(p.kind is p.VAR_KEYWORD for p in accepted.values()):
        return
    for key in params:
        if key not in accepted:
            raise ValueError(
                f"codec {cls.name!r} does not accept parameter {key!r} "
                f"(accepted: {', '.join(accepted) or 'none'})"
            )


def codec_class(name: str) -> Type[Codec]:
    """Return the registered codec class for ``name`` without instantiating it."""
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown codec {name!r}; available: {available_codecs()}")
    return _REGISTRY[key]


def available_codecs() -> List[str]:
    """Names of all registered codecs."""
    return sorted(_REGISTRY)


for _cls in (
    SZChunkCodec,
    ZFPChunkCodec,
    CrossFieldChunkCodec,
    LosslessChunkCodec,
    TemporalDeltaCodec,
):
    register_codec(_cls)
