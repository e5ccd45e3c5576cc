"""Bit-level layout of Huffman payloads: code words packed MSB-first.

The Huffman codec writes its own bit stream (there is no separate bit
writer): code words are concatenated most-significant bit first, the last
byte is zero-padded, and the v1 header records the exact bit count.  These
tests pin that wire layout with hand-built canonical tables.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import HuffmanCodec, HuffmanTable

#: Canonical codes of lengths (1, 2, 2): 0 -> "0", 1 -> "10", 2 -> "11".
SHORT = (1, 2, 2)
#: Canonical codes of lengths (1, 2, 3, 4, 4) are unary: "0", "10", "110", "1110", "1111".
UNARY = (1, 2, 3, 4, 4)


def _encode(symbols, lengths):
    """``(bit data, bit count, table)`` of a v1 payload under canonical ``lengths``."""
    table = HuffmanTable.from_lengths(np.asarray(lengths))
    payload, _ = HuffmanCodec().encode(np.asarray(symbols, dtype=np.int64), table=table, version=1)
    n_symbols, n_bits = struct.unpack_from("<QQ", payload)
    assert n_symbols == len(symbols)
    return payload[16:], n_bits, table


class TestBitWriter:
    def test_single_byte(self):
        data, n_bits, _ = _encode([1, 2, 0, 2, 0], SHORT)  # 10 11 0 11 0
        assert data == bytes([0b10110110])
        assert n_bits == 8

    def test_padding(self):
        data, n_bits, _ = _encode([1], SHORT)
        assert data == bytes([0b10000000])
        assert n_bits == 2

    def test_zero_bits_noop(self):
        payload, _ = HuffmanCodec().encode(np.zeros(0, dtype=np.int64), version=1)
        assert payload == struct.pack("<QQ", 0, 0)

    def test_value_too_large(self):
        with pytest.raises(ValueError, match="covers 3 symbols"):
            _encode([3], SHORT)

    def test_negative_value(self):
        with pytest.raises(ValueError, match="non-negative"):
            _encode([-1], SHORT)

    def test_long_value(self):
        # lengths 1..15 plus two 16-bit codes: symbol 16 is sixteen 1 bits,
        # straddling three bytes after the leading "0"
        lengths = list(range(1, 16)) + [16, 16]
        data, n_bits, table = _encode([0, 16], lengths)
        assert n_bits == 17
        assert data == bytes([0b01111111, 0b11111111, 0b10000000])
        payload = struct.pack("<QQ", 2, n_bits) + data
        assert list(HuffmanCodec().decode(payload, table)) == [0, 16]


class TestBitReader:
    def test_read_back(self):
        symbols = np.random.default_rng(0).integers(0, 5, size=300)
        data, n_bits, table = _encode(symbols, UNARY)
        payload = struct.pack("<QQ", symbols.size, n_bits) + data
        codec = HuffmanCodec()
        assert np.array_equal(codec.decode(payload, table), symbols)
        assert np.array_equal(codec.decode_reference(payload, table), symbols)

    def test_eof(self):
        data, n_bits, table = _encode([4, 4, 4], UNARY)  # 12 bits: two bytes
        truncated = struct.pack("<QQ", 3, n_bits) + data[:1]
        with pytest.raises(ValueError, match="truncated"):
            HuffmanCodec().decode(truncated, table)

    def test_seek(self):
        # a v2 payload records the bit offset of every interval-th symbol, so
        # a decoder can start mid-stream at a code-word boundary
        symbols = np.array([3, 0, 1, 4, 2, 0, 3])
        table = HuffmanTable.from_lengths(np.asarray(UNARY))
        payload, _ = HuffmanCodec(checkpoint_interval=2).encode(symbols, table=table)
        n_checkpoints = struct.unpack_from("<4sIQQI", payload)[4]
        deltas = np.frombuffer(payload, dtype="<u4", count=n_checkpoints, offset=28)
        bit_offsets = np.cumsum(table.lengths[symbols].astype(np.int64))
        assert np.array_equal(np.cumsum(deltas), bit_offsets[1::2][:n_checkpoints])

    def test_unary(self):
        data, n_bits, _ = _encode([0, 3, 1, 2], UNARY)  # 0 1110 10 110
        assert data == bytes([0b01110101, 0b10000000])
        assert n_bits == 10

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=200))
    def test_property_roundtrip(self, values):
        symbols = np.asarray(values, dtype=np.int64)
        codec = HuffmanCodec()
        payload, table = codec.encode(symbols, version=1)
        assert np.array_equal(codec.decode(payload, table), symbols)
        assert np.array_equal(codec.decode_reference(payload, table), symbols)
