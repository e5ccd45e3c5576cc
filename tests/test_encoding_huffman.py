"""Unit tests for the canonical Huffman codec."""

import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import MAX_ALPHABET, HuffmanCodec, HuffmanTable


class TestHuffmanTable:
    def test_prefix_free(self):
        freq = np.array([50, 20, 10, 5, 5, 5, 3, 2])
        table = HuffmanTable.from_frequencies(freq)
        codes = [
            format(int(c), f"0{int(l)}b")
            for c, l in zip(table.codes, table.lengths)
            if l > 0
        ]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_kraft_inequality(self):
        freq = np.array([100, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        table = HuffmanTable.from_frequencies(freq)
        lengths = table.lengths[table.lengths > 0]
        assert np.sum(1.0 / np.exp2(lengths)) <= 1.0 + 1e-12

    def test_single_symbol(self):
        table = HuffmanTable.from_frequencies(np.array([0, 10, 0]))
        assert table.lengths[1] == 1

    def test_length_limit(self):
        # wildly skewed distribution forces long codes that must be clamped
        freq = np.array([2**i for i in range(30)][::-1])
        table = HuffmanTable.from_frequencies(freq, max_length=12)
        assert table.max_length <= 12

    def test_serialization_roundtrip(self):
        freq = np.array([7, 3, 0, 11, 2])
        table = HuffmanTable.from_frequencies(freq)
        rebuilt = HuffmanTable.from_bytes(table.to_bytes())
        assert np.array_equal(rebuilt.lengths, table.lengths)
        assert np.array_equal(rebuilt.codes, table.codes)

    def test_serialization_wire_format_is_packed_struct_pairs(self):
        # the vectorised serializer must stay byte-identical to the original
        # per-symbol struct loop: <II> header then packed <IB> pairs
        import struct

        freq = np.array([7, 3, 0, 11, 2, 0, 0, 9])
        table = HuffmanTable.from_frequencies(freq)
        used = np.nonzero(table.lengths)[0]
        reference = struct.pack("<II", table.alphabet_size, used.size) + b"".join(
            struct.pack("<IB", int(sym), int(table.lengths[sym])) for sym in used
        )
        assert table.to_bytes() == reference

    def test_serialization_truncated_rejected(self):
        table = HuffmanTable.from_frequencies(np.array([4, 4, 2]))
        payload = table.to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            HuffmanTable.from_bytes(payload[:6])
        with pytest.raises(ValueError, match="truncated"):
            HuffmanTable.from_bytes(payload[:-3])

    def test_serialization_symbol_outside_alphabet_rejected(self):
        import struct

        payload = struct.pack("<II", 2, 1) + struct.pack("<IB", 9, 1)
        with pytest.raises(ValueError, match="alphabet"):
            HuffmanTable.from_bytes(payload)

    def test_serialization_large_table_roundtrip(self):
        rng = np.random.default_rng(5)
        freq = rng.integers(0, 50, size=4000)
        freq[rng.integers(0, 4000, size=100)] = 0
        freq[0] = 1  # at least one used symbol
        table = HuffmanTable.from_frequencies(freq)
        rebuilt = HuffmanTable.from_bytes(table.to_bytes())
        assert np.array_equal(rebuilt.lengths, table.lengths)
        assert np.array_equal(rebuilt.codes, table.codes)

    def test_expected_bits(self):
        freq = np.array([4, 4])
        table = HuffmanTable.from_frequencies(freq)
        assert table.expected_bits(freq) == 8.0

    def test_all_zero_histogram_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTable.from_frequencies(np.zeros(4, dtype=np.int64))


def _table_bytes(alphabet_size, entries):
    """A serialized table: ``<II`` header then packed ``<IB`` (symbol, length) pairs."""
    return struct.pack("<II", alphabet_size, len(entries)) + b"".join(
        struct.pack("<IB", symbol, length) for symbol, length in entries
    )


class TestHostileTables:
    """Untrusted table bytes raise ``ValueError`` in bounded time and memory."""

    @pytest.mark.parametrize("alphabet_size", [MAX_ALPHABET + 1, 1 << 29, (1 << 32) - 1])
    def test_huge_alphabet_rejected_before_allocating(self, alphabet_size):
        payload = _table_bytes(alphabet_size, [(0, 1)])
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="alphabet"):
                HuffmanTable.from_bytes(payload)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 1 << 20

    def test_huge_alphabet_rejected_by_from_lengths(self):
        with pytest.raises(ValueError, match="alphabet"):
            HuffmanTable.from_lengths(np.zeros(MAX_ALPHABET + 1, dtype=np.uint8))

    def test_largest_alphabet_accepted(self):
        table = HuffmanTable.from_bytes(_table_bytes(MAX_ALPHABET, [(0, 1), (MAX_ALPHABET - 1, 1)]))
        assert table.alphabet_size == MAX_ALPHABET
        assert table.codes[MAX_ALPHABET - 1] == 1

    @pytest.mark.parametrize("length", [33, 40, 255])
    def test_overlong_code_rejected(self, length):
        with pytest.raises(ValueError, match="exceeds 32 bits"):
            HuffmanTable.from_bytes(_table_bytes(4, [(0, 1), (1, length)]))
        lengths = np.array([1, length, 0, 0], dtype=np.uint8)
        with pytest.raises(ValueError, match="exceeds 32 bits"):
            HuffmanTable.from_lengths(lengths)

    def test_oversubscribed_code_set_rejected(self):
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanTable.from_bytes(_table_bytes(3, [(0, 1), (1, 1), (2, 1)]))
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanTable.from_lengths(np.array([2, 2, 2, 2, 2]))

    def test_complete_and_incomplete_code_sets_accepted(self):
        # Kraft sums of exactly 1 and below 1 are both valid prefix codes
        assert HuffmanTable.from_lengths(np.array([1, 2, 2])).codes.tolist() == [0, 2, 3]
        assert HuffmanTable.from_lengths(np.array([2, 0, 3])).codes.tolist() == [0, 0, 2]
        assert HuffmanTable.from_lengths(np.full(2**16, 16)).max_length == 16

    def test_decoder_rejects_codes_wider_than_its_lookup_table(self):
        table = HuffmanTable.from_lengths(np.array(list(range(1, 20)) + [20]))
        payload, _ = HuffmanCodec(max_length=20).encode(np.array([19, 0]), table=table)
        with pytest.raises(ValueError, match="lookup width"):
            HuffmanCodec().decode(payload, table)

    @pytest.mark.parametrize(
        "entries, match",
        [
            ([(1, 1), (1, 2)], "ascending"),  # a repeated symbol
            ([(2, 1), (1, 2)], "ascending"),
            ([(0, 0), (1, 1)], "length 0"),
        ],
        ids=["repeated-symbol", "descending", "zero-length"],
    )
    def test_malformed_entries_rejected_by_both_parsers(self, entries, match):
        table_bytes = _table_bytes(4, entries)
        with pytest.raises(ValueError, match=match):
            HuffmanTable.from_bytes(table_bytes)
        payload, _ = HuffmanCodec().encode(np.array([1, 1, 2]), table=HuffmanTable.from_lengths(
            np.array([0, 1, 2, 0])
        ))
        with pytest.raises(ValueError, match=match):
            HuffmanCodec().decode_many([payload], [table_bytes])

    def test_batch_parser_names_the_offending_table(self):
        good = HuffmanTable.from_lengths(np.array([1, 1])).to_bytes()
        payload, _ = HuffmanCodec().encode(np.array([0, 1, 1]))
        with pytest.raises(ValueError, match="alphabet of 2"):
            HuffmanCodec().decode_many([payload] * 2, [good, _table_bytes(2, [(0, 1), (5, 1)])])
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanCodec().decode_many([payload] * 2, [good, _table_bytes(3, [(0, 1), (1, 1), (2, 1)])])


class TestHostilePayloads:
    """Headers that declare more symbols than bits raise before any allocation."""

    HEADERS = {
        # a v1 header of 2**33 symbols over 8 bits
        "v1": struct.pack("<QQ", 1 << 33, 8) + b"\x00",
        # interval 2**32 - 1 needs no checkpoint for 2**31 symbols
        "v2": struct.pack("<4sIQQI", b"HFV2", (1 << 32) - 1, 1 << 31, 64, 0) + b"\x00" * 8,
    }

    @pytest.mark.parametrize("version", sorted(HEADERS))
    @pytest.mark.parametrize("path", ["decode", "decode_reference"])
    def test_more_symbols_than_bits_rejected(self, version, path):
        codec = HuffmanCodec()
        table = HuffmanTable.from_lengths(np.array([1, 1]))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="symbols in"):
                getattr(codec, path)(self.HEADERS[version], table)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 1 << 20


class TestHuffmanCodec:
    def test_round_trip_skewed(self):
        rng = np.random.default_rng(0)
        symbols = rng.poisson(2.0, size=5000).astype(np.int64)
        codec = HuffmanCodec()
        payload, table = codec.encode(symbols)
        decoded = codec.decode(payload, table)
        assert np.array_equal(decoded, symbols)

    def test_round_trip_uniform(self):
        rng = np.random.default_rng(1)
        symbols = rng.integers(0, 200, size=3000)
        codec = HuffmanCodec()
        payload, table = codec.encode(symbols)
        assert np.array_equal(codec.decode(payload, table), symbols)

    def test_compresses_skewed_data(self):
        rng = np.random.default_rng(2)
        symbols = rng.poisson(0.3, size=20000)
        codec = HuffmanCodec()
        payload, _ = codec.encode(symbols)
        assert len(payload) < symbols.size  # far fewer than 1 byte per symbol

    def test_empty_stream(self):
        codec = HuffmanCodec()
        payload, table = codec.encode(np.array([], dtype=np.int64))
        assert codec.decode(payload, table).size == 0

    def test_single_symbol_stream(self):
        codec = HuffmanCodec()
        symbols = np.full(100, 7, dtype=np.int64)
        payload, table = codec.encode(symbols)
        assert np.array_equal(codec.decode(payload, table), symbols)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            HuffmanCodec().encode(np.array([-1, 2]))

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            HuffmanCodec().encode(np.array([1.5, 2.0]))

    def test_more_symbols_than_codes_of_max_length(self):
        with pytest.raises(ValueError, match=r"300 symbols, only 256 codes of <= 8 bits"):
            HuffmanCodec(max_length=8).encode(np.arange(300))
        payload, table = HuffmanCodec(max_length=8).encode(np.arange(256))
        assert table.max_length == 8
        assert np.array_equal(HuffmanCodec(max_length=8).decode(payload, table), np.arange(256))

    def test_external_table_missing_symbol(self):
        codec = HuffmanCodec()
        _, table = codec.encode(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            codec.encode(np.array([0, 1, 2, 99]), table)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=400))
    def test_property_roundtrip(self, values):
        symbols = np.asarray(values, dtype=np.int64)
        codec = HuffmanCodec()
        payload, table = codec.encode(symbols)
        assert np.array_equal(codec.decode(payload, table), symbols)

    def test_vectorised_decode_matches_reference(self):
        rng = np.random.default_rng(9)
        codec = HuffmanCodec(checkpoint_interval=128)
        for symbols in (
            rng.poisson(1.0, size=10000),
            rng.integers(0, 1000, size=8000),
            np.zeros(500, dtype=np.int64),
        ):
            payload, table = codec.encode(symbols)
            assert np.array_equal(
                codec.decode(payload, table), codec.decode_reference(payload, table)
            )
