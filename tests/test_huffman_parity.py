"""Cross-implementation parity harness for the vectorised Huffman table and encoder.

Table construction (two-queue merge, length limiting, RFC 1951 canonical
codes, the decoder LUT as a repeat) and the word-scatter encoder promise the
*same bytes* as the scalar implementations they replaced.  Those scalar
versions live here as the oracle: the ``heapq`` code lengths, the Kraft
``while`` loop, the ``sorted`` canonical codes, the per-symbol LUT and the
bit-plane encoder.  Hypothesis drives both through peaked, uniform,
power-of-two and length-limited histograms and streams of up to 70 000
symbols, and asserts exact equality of lengths, codes, LUTs and v1/v2 payload
bytes — the same pattern as ``tests/test_sz_parity.py``.
"""

import heapq
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import (
    _V2_HEADER,
    HuffmanCodec,
    HuffmanTable,
    _canonical_codes,
    _huffman_code_lengths,
    _limit_code_lengths,
)

COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------- #
# scalar oracles
# --------------------------------------------------------------------------- #
def heap_code_lengths(frequencies):
    """Code lengths from a ``heapq`` merge of ``(freq, counter, symbols)`` nodes."""
    freq = np.asarray(frequencies, dtype=np.int64)
    symbols = np.nonzero(freq)[0]
    lengths = np.zeros(freq.shape[0], dtype=np.int64)
    if symbols.size == 1:
        lengths[symbols[0]] = 1
        return lengths
    heap = [(int(freq[s]), counter, [int(s)]) for counter, s in enumerate(symbols)]
    counter = len(heap)
    heapq.heapify(heap)
    depth = {int(s): 0 for s in symbols}
    while len(heap) > 1:
        f1, _, group1 = heapq.heappop(heap)
        f2, _, group2 = heapq.heappop(heap)
        for s in group1 + group2:
            depth[s] += 1
        heapq.heappush(heap, (f1 + f2, counter, group1 + group2))
        counter += 1
    for s, d in depth.items():
        lengths[s] = d
    return lengths


def kraft_limit_lengths(lengths, max_length):
    """Clamp, then lengthen the shortest code below the limit while Kraft > 1."""
    lengths = lengths.copy()
    used = lengths > 0
    if not np.any(lengths > max_length):
        return lengths
    lengths[used & (lengths > max_length)] = max_length

    def kraft(ls):
        return np.sum(1.0 / np.exp2(ls[ls > 0]))

    while kraft(lengths) > 1.0 + 1e-12:
        candidates = np.where(used & (lengths < max_length))[0]
        shortest = candidates[np.argmin(lengths[candidates])]
        lengths[shortest] += 1
    return lengths


def sorted_canonical_codes(lengths):
    """Canonical codes by walking ``sorted((length, symbol))`` over the alphabet."""
    codes = np.zeros(lengths.shape[0], dtype=np.uint32)
    order = sorted((int(length), int(sym)) for sym, length in enumerate(lengths) if length > 0)
    code = 0
    prev_length = 0
    for length, sym in order:
        code <<= length - prev_length
        codes[sym] = code
        code += 1
        prev_length = length
    return codes


def per_symbol_lut(table, lut_bits):
    """The decoder LUT written one code's window range at a time."""
    lut_symbols = np.zeros(1 << lut_bits, dtype=np.int64)
    lut_lengths = np.zeros(1 << lut_bits, dtype=np.int32)
    for sym in np.nonzero(table.lengths)[0]:
        length = int(table.lengths[sym])
        prefix = int(table.codes[sym]) << (lut_bits - length)
        count = 1 << (lut_bits - length)
        lut_symbols[prefix : prefix + count] = sym
        lut_lengths[prefix : prefix + count] = length
    return lut_symbols, lut_lengths


def bit_plane_payload(symbols, table, version=2, interval=1024):
    """The payload built one bit plane at a time with ``np.bitwise_or.at``."""
    symbols = np.asarray(symbols, dtype=np.int64)
    lengths = table.lengths[symbols].astype(np.int64)
    codes = table.codes[symbols].astype(np.uint32)
    bit_offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    total_bits = int(bit_offsets[-1] + lengths[-1])
    buffer = np.zeros((total_bits + 7) // 8, dtype=np.uint8)
    for bit in range(int(lengths.max())):
        mask = lengths > bit
        shift = lengths[mask] - 1 - bit
        bit_values = (codes[mask] >> shift.astype(np.uint32)) & 1
        set_positions = bit_offsets[mask][bit_values.astype(bool)] + bit
        np.bitwise_or.at(
            buffer, set_positions // 8, (1 << (7 - set_positions % 8)).astype(np.uint8)
        )
    if version == 1:
        return struct.pack("<QQ", symbols.size, total_bits) + buffer.tobytes()
    checkpoints = bit_offsets[interval::interval]
    deltas = np.diff(checkpoints, prepend=0).astype("<u4")
    header = _V2_HEADER.pack(b"HFV2", interval, symbols.size, total_bits, checkpoints.size)
    return header + deltas.tobytes() + buffer.tobytes()


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def histograms(draw):
    """``(frequencies, max_length)``; ``max_length`` below the tree depth forces limiting."""
    kind = draw(st.sampled_from(["peaked", "uniform", "power-of-two", "limited", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_length = draw(st.sampled_from([8, 12, 16]))
    if kind == "peaked":
        n = draw(st.integers(1, 3000))
        centre = draw(st.integers(0, n - 1))
        scale = draw(st.floats(0.5, 200.0))
        freq = np.floor(1e6 * np.exp(-np.abs(np.arange(n) - centre) / scale)).astype(np.int64)
    elif kind == "uniform":
        n = draw(st.integers(1, min(1 << max_length, 4096)))
        freq = np.full(n, draw(st.integers(1, 1000)), dtype=np.int64)
    elif kind == "power-of-two":
        n = draw(st.integers(1, 40))
        freq = np.left_shift(1, rng.permutation(n)).astype(np.int64)
    elif kind == "limited":
        # Fibonacci-like tails build trees far deeper than max_length
        n = draw(st.integers(max_length + 2, min(1 << max_length, 300)))
        freq = np.array([1, 1] + [0] * (n - 2), dtype=np.int64)
        for i in range(2, n):
            freq[i] = min(freq[i - 1] + freq[i - 2], 1 << 40)
        freq = freq[rng.permutation(n)]
    else:
        n = draw(st.integers(1, 5000))
        freq = rng.integers(0, 50, size=n) * (rng.random(n) < 0.1)
    if not np.any(freq):
        freq[rng.integers(freq.size)] = 1
    while np.count_nonzero(freq) > 1 << max_length:  # no code set exists below that
        max_length += 4
    return freq, max_length


@st.composite
def streams(draw):
    """A symbol stream of up to 70 000 symbols and a checkpoint interval."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 70_000))
    kind = draw(st.sampled_from(["poisson", "uniform", "geometric", "escape-heavy"]))
    if kind == "poisson":
        symbols = rng.poisson(draw(st.floats(0.05, 30.0)), size=n)
    elif kind == "uniform":
        symbols = rng.integers(0, draw(st.integers(1, 5000)), size=n)
    elif kind == "geometric":
        symbols = rng.geometric(draw(st.floats(0.02, 0.9)), size=n) - 1
    else:
        symbols = rng.poisson(1.0, size=n)
        symbols[rng.random(n) < 0.02] = 65536
    interval = draw(st.sampled_from([1, 7, 64, 1024]))
    return symbols.astype(np.int64), interval


# --------------------------------------------------------------------------- #
# table construction parity
# --------------------------------------------------------------------------- #
class TestTableParity:
    @COMMON_SETTINGS
    @given(histograms())
    def test_lengths_and_codes_identical(self, case):
        freq, max_length = case
        used = np.flatnonzero(freq)
        heap = heap_code_lengths(freq)
        assert np.array_equal(_huffman_code_lengths(freq[used]), heap[used])
        limited = kraft_limit_lengths(heap, max_length)
        assert np.array_equal(_limit_code_lengths(heap[used], max_length), limited[used])
        assert np.array_equal(_canonical_codes(limited), sorted_canonical_codes(limited))
        table = HuffmanTable.from_frequencies(freq, max_length)
        assert np.array_equal(table.lengths, limited.astype(np.uint8))
        assert np.array_equal(table.codes, sorted_canonical_codes(limited))
        rebuilt = HuffmanTable.from_bytes(table.to_bytes())
        assert np.array_equal(rebuilt.codes, table.codes)

    @COMMON_SETTINGS
    @given(histograms(), st.integers(0, 4))
    def test_lut_identical(self, case, extra_bits):
        freq, max_length = case
        table = HuffmanTable.from_frequencies(freq, max_length)
        lut_bits = max(table.max_length, 1) + min(extra_bits, 16 - max(table.max_length, 1))
        expected = per_symbol_lut(table, lut_bits)
        actual = HuffmanCodec._build_lut(table, lut_bits)
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])

    def test_incomplete_code_set_lut_has_zero_tail(self):
        table = HuffmanTable.from_lengths(np.array([1, 0, 3, 3]))  # Kraft 3/4
        expected = per_symbol_lut(table, 4)
        actual = HuffmanCodec._build_lut(table, 4)
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])
        assert not actual[1][12:].any()

    def test_forced_limiting_at_every_max_length(self):
        freq = np.left_shift(1, np.arange(40)).astype(np.int64)
        for max_length in (6, 8, 12, 16):
            heap = heap_code_lengths(freq)
            limited = _limit_code_lengths(heap, max_length)  # every symbol is used
            assert np.array_equal(limited, kraft_limit_lengths(heap, max_length))
            assert limited.max() == max_length


# --------------------------------------------------------------------------- #
# encoder parity
# --------------------------------------------------------------------------- #
class TestEncodeParity:
    @COMMON_SETTINGS
    @given(streams(), st.sampled_from([1, 2]))
    def test_payload_bytes_identical(self, case, version):
        symbols, interval = case
        codec = HuffmanCodec(checkpoint_interval=interval)
        payload, table = codec.encode(symbols, version=version)
        assert payload == bit_plane_payload(symbols, table, version, interval)
        assert np.array_equal(codec.decode(payload, table), symbols)

    @pytest.mark.parametrize("version", [1, 2])
    def test_straddling_code_at_every_word_offset(self, version):
        # lengths 1..31, 32, 32: symbol k is k one-bits and a zero, so `offset`
        # one-bit symbols put the next code's first bit at every word offset
        table = HuffmanTable.from_lengths(np.array(list(range(1, 32)) + [32, 32]))
        codec = HuffmanCodec(max_length=32, checkpoint_interval=3)
        for offset in range(64):
            for long_symbol in (1, 16, 30, 31, 32):
                symbols = np.array([0] * offset + [long_symbol] * 3 + [5, 0, 32])
                payload, _ = codec.encode(symbols, table=table, version=version)
                assert payload == bit_plane_payload(symbols, table, version, 3)

    def test_straddling_round_trip_through_decoder(self):
        table = HuffmanTable.from_lengths(np.array(list(range(1, 16)) + [16, 16]))
        codec = HuffmanCodec(checkpoint_interval=5)
        for offset in range(64):
            symbols = np.array([0] * offset + [16, 15, 16, 3, 0])
            payload, _ = codec.encode(symbols, table=table)
            assert payload == bit_plane_payload(symbols, table, 2, 5)
            assert np.array_equal(codec.decode(payload, table), symbols)
