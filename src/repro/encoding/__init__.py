"""Entropy coding and byte-stream substrate for the compression pipeline.

Implements the third SZ stage ("customized Huffman coding and additional
lossless compression"): a canonical Huffman coder with vectorised encode
*and* decode, a pluggable entropy-coder registry
(:mod:`repro.encoding.entropy`), the zigzag integer transform, pluggable
lossless backends, and the on-disk container format for compressed payloads.
"""

from repro.encoding.huffman import HuffmanCodec, HuffmanTable
from repro.encoding.entropy import (
    EntropyCoder,
    HuffmanEntropyCoder,
    ZlibEntropyCoder,
    RawEntropyCoder,
    register_entropy_coder,
    get_entropy_coder,
    available_entropy_coders,
)
from repro.encoding.rle import zigzag_encode, zigzag_decode
from repro.encoding.lossless import (
    LosslessBackend,
    ZlibBackend,
    RawBackend,
    get_backend,
    available_backends,
)
from repro.encoding.container import CompressedBlob

__all__ = [
    "HuffmanCodec",
    "HuffmanTable",
    "EntropyCoder",
    "HuffmanEntropyCoder",
    "ZlibEntropyCoder",
    "RawEntropyCoder",
    "register_entropy_coder",
    "get_entropy_coder",
    "available_entropy_coders",
    "zigzag_encode",
    "zigzag_decode",
    "LosslessBackend",
    "ZlibBackend",
    "RawBackend",
    "get_backend",
    "available_backends",
    "CompressedBlob",
]
