"""Pluggable entropy-coder layer: one registry over every symbol coder.

The SZ-style pipelines all end the same way — an integer symbol stream
(zigzagged residuals with escape markers) must become named byte sections and
back.  Historically each entropy mode lived in ``if entropy == ...`` branches
inside :func:`repro.sz.pipeline.encode_integer_stream`; this module lifts them
into first-class :class:`EntropyCoder` objects behind a registry, so

- every layer that accepts an ``entropy=`` knob (the SZ/ZFP/cross-field
  compressors, the store codecs, pipeline configs, the ``repro`` CLI)
  validates names against one source of truth instead of a hard-coded tuple,
- new coders plug in with :func:`register_entropy_coder` and are immediately
  usable across the whole stack.

Decoding is serial within a chunk; the store parallelises across chunks.
:meth:`EntropyCoder.decode_many` hands a coder every stream of one chunk at
once (a grouped-ZFP chunk holds one per significance level), so a coder can
decode them in one pass; the Huffman coder does.

A coder sees the symbol stream *after* outlier extraction and zigzag mapping
(that transform is shared, in :func:`~repro.sz.pipeline.encode_integer_stream`)
and produces unprefixed sections — the caller namespaces them per stream.
The lossless byte ``backend`` is handed in so coders decide what travels
through it; metadata returned by :meth:`EntropyCoder.encode` is merged into
the stream metadata and handed back verbatim on decode.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.encoding.huffman import MAX_ALPHABET, HuffmanCodec
from repro.encoding.lossless import LosslessBackend

__all__ = [
    "EntropyCoder",
    "HuffmanEntropyCoder",
    "ZlibEntropyCoder",
    "RawEntropyCoder",
    "register_entropy_coder",
    "get_entropy_coder",
    "available_entropy_coders",
    "HUFFMAN_SYMBOL_LIMIT",
]

#: If more distinct symbols than this appear, Huffman falls back to byte coding
#: (keeps the decoder lookup table and the length-limited code construction sane).
HUFFMAN_SYMBOL_LIMIT = 32768


class EntropyCoder(ABC):
    """Interface every entropy coder must implement.

    Subclasses set :attr:`name` (the registry key) and may set
    :attr:`fallback` — the registry name of the coder to use instead when
    :meth:`supports` rejects a stream (the Huffman coder delegates huge
    alphabets to ``"zlib"``).
    """

    #: Registry key.
    name: str = "abstract"
    #: Registry name substituted when :meth:`supports` returns False.
    fallback: Optional[str] = None

    def supports(self, symbols: np.ndarray) -> bool:
        """Whether this coder can encode ``symbols`` (1-D non-negative int64)."""
        return True

    @abstractmethod
    def encode(
        self, symbols: np.ndarray, backend: LosslessBackend
    ) -> Tuple[Dict[str, bytes], Dict]:
        """Encode a symbol stream into unprefixed named sections.

        Returns ``(sections, extra_meta)``; ``extra_meta`` is merged into the
        stream metadata and passed back to :meth:`decode`.
        """

    @abstractmethod
    def decode(
        self, sections: Dict[str, bytes], meta: Dict, backend: LosslessBackend
    ) -> np.ndarray:
        """Inverse of :meth:`encode`; returns the int64 symbol stream."""

    def decode_many(
        self, sections: Sequence[Dict[str, bytes]], metas: Sequence[Dict], backend: LosslessBackend
    ) -> List[np.ndarray]:
        """Decode several streams, ``sections[k]`` with ``metas[k]``.

        The default decodes them one by one; coders with a batch decoder
        override it.
        """
        return [self.decode(own, meta, backend) for own, meta in zip(sections, metas)]


class HuffmanEntropyCoder(EntropyCoder):
    """Canonical Huffman coding with checkpointed, vectorised decode.

    Sections: ``symbols`` (the checkpointed bit stream) and ``huffman_table``
    (sparse code lengths), both through the lossless backend.  Falls back to
    ``"zlib"`` when the stream has more than :data:`HUFFMAN_SYMBOL_LIMIT`
    distinct symbols or a symbol of at least
    :data:`~repro.encoding.huffman.MAX_ALPHABET`.
    """

    name = "huffman"
    fallback = "zlib"

    def __init__(self, checkpoint_interval: Optional[int] = None) -> None:
        self.codec = (
            HuffmanCodec()
            if checkpoint_interval is None
            else HuffmanCodec(checkpoint_interval=checkpoint_interval)
        )

    def supports(self, symbols: np.ndarray) -> bool:
        if symbols.size == 0:
            return True
        # a table over a wider alphabet is one HuffmanTable.from_bytes refuses
        if int(symbols.max()) >= MAX_ALPHABET:
            return False
        return np.count_nonzero(np.bincount(symbols)) <= HUFFMAN_SYMBOL_LIMIT

    def encode(
        self, symbols: np.ndarray, backend: LosslessBackend
    ) -> Tuple[Dict[str, bytes], Dict]:
        payload, table = self.codec.encode(symbols)
        return (
            {
                "symbols": backend.compress(payload),
                "huffman_table": backend.compress(table.to_bytes()),
            },
            {},
        )

    def decode(
        self, sections: Dict[str, bytes], meta: Dict, backend: LosslessBackend
    ) -> np.ndarray:
        return self.decode_many([sections], [meta], backend)[0]

    def decode_many(
        self, sections: Sequence[Dict[str, bytes]], metas: Sequence[Dict], backend: LosslessBackend
    ) -> List[np.ndarray]:
        """Every stream's table and bit stream in one :meth:`HuffmanCodec.decode_many` pass."""
        return self.codec.decode_many(
            [backend.decompress(own["symbols"]) for own in sections],
            [backend.decompress(own["huffman_table"]) for own in sections],
        )


class ZlibEntropyCoder(EntropyCoder):
    """No entropy stage of its own: int32 symbol bytes through the backend.

    The name is historical — with the default ``zlib`` backend the symbols are
    DEFLATE-compressed, which is what the entropy-backend ablation compares
    Huffman against.
    """

    name = "zlib"

    def encode(
        self, symbols: np.ndarray, backend: LosslessBackend
    ) -> Tuple[Dict[str, bytes], Dict]:
        return {"symbols": backend.compress(symbols.astype(np.int32).tobytes())}, {}

    def decode(
        self, sections: Dict[str, bytes], meta: Dict, backend: LosslessBackend
    ) -> np.ndarray:
        raw = backend.decompress(sections["symbols"])
        return np.frombuffer(raw, dtype=np.int32).astype(np.int64)


class RawEntropyCoder(EntropyCoder):
    """Verbatim int32 symbol bytes, bypassing the backend (ablation baseline)."""

    name = "raw"

    def encode(
        self, symbols: np.ndarray, backend: LosslessBackend
    ) -> Tuple[Dict[str, bytes], Dict]:
        return {"symbols": symbols.astype(np.int32).tobytes()}, {}

    def decode(
        self, sections: Dict[str, bytes], meta: Dict, backend: LosslessBackend
    ) -> np.ndarray:
        return np.frombuffer(sections["symbols"], dtype=np.int32).astype(np.int64)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[EntropyCoder]] = {}


def register_entropy_coder(cls: Type[EntropyCoder]) -> Type[EntropyCoder]:
    """Register a coder class under ``cls.name`` (usable as a decorator).

    Names are case-insensitive, matching the lowercased lookups in
    :func:`get_entropy_coder`.
    """
    if not (isinstance(cls, type) and issubclass(cls, EntropyCoder)):
        raise TypeError("entropy coder must subclass EntropyCoder")
    if not cls.name or cls.name == EntropyCoder.name:
        raise ValueError("entropy coder class must define a unique `name`")
    _REGISTRY[cls.name.lower()] = cls
    return cls


def get_entropy_coder(name: Union[str, EntropyCoder], **params) -> EntropyCoder:
    """Instantiate a coder by registry name (instances pass through)."""
    if isinstance(name, EntropyCoder):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown entropy coder {name!r}; available: {available_entropy_coders()}"
        )
    return _REGISTRY[key](**params)


def available_entropy_coders() -> List[str]:
    """Names of all registered entropy coders."""
    return sorted(_REGISTRY)


for _cls in (HuffmanEntropyCoder, ZlibEntropyCoder, RawEntropyCoder):
    register_entropy_coder(_cls)
