"""Tests for the pluggable entropy-coder registry and the checkpointed decoder."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.entropy import (
    EntropyCoder,
    HuffmanEntropyCoder,
    available_entropy_coders,
    get_entropy_coder,
    register_entropy_coder,
)
from repro.encoding.huffman import DEFAULT_CHECKPOINT_INTERVAL, MAX_ALPHABET, HuffmanCodec
from repro.encoding.lossless import get_backend
from repro.sz.pipeline import decode_integer_stream, encode_integer_stream


class TestRegistry:
    def test_builtin_coders_registered(self):
        assert {"huffman", "zlib", "raw"} <= set(available_entropy_coders())

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="huffman"):
            get_entropy_coder("lzma")

    def test_lookup_is_case_insensitive(self):
        assert get_entropy_coder("HUFFMAN").name == "huffman"

    def test_instances_pass_through(self):
        coder = HuffmanEntropyCoder()
        assert get_entropy_coder(coder) is coder

    def test_register_rejects_non_coders(self):
        with pytest.raises(TypeError):
            register_entropy_coder(dict)

    def test_register_requires_name(self):
        class Anonymous(EntropyCoder):
            def encode(self, symbols, backend):  # pragma: no cover - never called
                return {}, {}

            def decode(self, sections, meta, backend):  # pragma: no cover
                return np.zeros(0, dtype=np.int64)

        with pytest.raises(ValueError, match="unique"):
            register_entropy_coder(Anonymous)

    def test_custom_coder_round_trips_through_stream_helpers(self):
        class NibbleCoder(EntropyCoder):
            """Toy coder: symbols stored as uint32 through the backend."""

            name = "test-nibble"

            def encode(self, symbols, backend):
                return {"symbols": backend.compress(symbols.astype(np.uint32).tobytes())}, {}

            def decode(self, sections, meta, backend):
                # the stream helpers must hand a coder exactly its own
                # sections — outlier side sections stay with the caller
                assert set(sections) == {"symbols"}
                raw = backend.decompress(sections["symbols"])
                return np.frombuffer(raw, dtype=np.uint32).astype(np.int64)

        register_entropy_coder(NibbleCoder)
        try:
            # 10**6 exceeds the default quant radius, so outlier sections exist
            residuals = np.array([0, 3, -2, 1, 0, -1, 5, 10**6], dtype=np.int64)
            sections, meta = encode_integer_stream(residuals, "test-nibble", "zlib")
            assert meta["entropy"] == "test-nibble"
            assert meta["outliers"] == 1
            assert np.array_equal(decode_integer_stream(sections, meta), residuals)
        finally:
            from repro.encoding import entropy as entropy_module

            entropy_module._REGISTRY.pop("test-nibble", None)

    def test_huffman_fallback_on_huge_alphabet(self):
        # > HUFFMAN_SYMBOL_LIMIT distinct residual values: the stream helper
        # must swap in the declared fallback coder and record it in the meta
        residuals = np.arange(40000, dtype=np.int64) - 20000
        sections, meta = encode_integer_stream(residuals, "huffman", "zlib", radius=10**9)
        assert meta["entropy"] == "zlib"
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)

    def test_huffman_fallback_on_symbol_beyond_table_alphabet(self):
        # one zigzagged residual >= MAX_ALPHABET would need a table the reader
        # refuses, so the stream helper must fall back to zlib
        residuals = np.zeros(1000, dtype=np.int64)
        residuals[::7] = 1
        residuals[500] = MAX_ALPHABET // 2 + 3
        assert not HuffmanEntropyCoder().supports(residuals * 2)
        assert HuffmanEntropyCoder().supports(np.array([0, MAX_ALPHABET - 1]))
        assert HuffmanEntropyCoder().supports(np.zeros(0, dtype=np.int64))
        sections, meta = encode_integer_stream(residuals, "huffman", "zlib", radius=10**9)
        assert meta["entropy"] == "zlib"
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)


class TestStreamHelpers:
    @pytest.mark.parametrize("entropy", ["huffman", "zlib", "raw"])
    def test_round_trip_every_coder(self, entropy, rng):
        residuals = rng.integers(-40, 40, size=2000).astype(np.int64)
        sections, meta = encode_integer_stream(residuals, entropy, "zlib")
        assert meta["entropy"] == entropy
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)

    def test_unknown_entropy_rejected(self):
        with pytest.raises(ValueError, match="entropy"):
            encode_integer_stream(np.zeros(4, dtype=np.int64), "bogus", "zlib")


class TestCheckpointedPayload:
    def test_v2_payload_layout(self):
        codec = HuffmanCodec(checkpoint_interval=100)
        symbols = np.arange(250) % 7
        payload, _ = codec.encode(symbols)
        magic, interval, n_symbols, total_bits, n_checkpoints = struct.unpack_from(
            "<4sIQQI", payload, 0
        )
        assert magic == b"HFV2"
        assert interval == 100
        assert n_symbols == 250
        assert n_checkpoints == 2  # symbols 100 and 200
        deltas = np.frombuffer(payload, dtype="<u4", count=2, offset=28)
        assert 0 < int(deltas.sum()) < total_bits

    def test_v1_payload_has_no_header_magic(self):
        codec = HuffmanCodec()
        payload, _ = codec.encode(np.arange(50) % 5, version=1)
        assert payload[:4] != b"HFV2"
        n_symbols, _ = struct.unpack_from("<QQ", payload, 0)
        assert n_symbols == 50

    def test_cross_version_compatibility(self, rng):
        # v1 payloads decode with the new decoder; v2 payloads decode with the
        # scalar reference loop; both match the symbols bit-exactly
        codec = HuffmanCodec(checkpoint_interval=64)
        symbols = rng.poisson(2.0, size=5000).astype(np.int64)
        payload_v1, table = codec.encode(symbols, version=1)
        payload_v2, _ = codec.encode(symbols, table)
        assert np.array_equal(codec.decode(payload_v1, table), symbols)
        assert np.array_equal(codec.decode(payload_v2, table), symbols)
        assert np.array_equal(codec.decode_reference(payload_v2, table), symbols)

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            HuffmanCodec(checkpoint_interval=0)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            HuffmanCodec(checkpoint_interval=1 << 27)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            HuffmanCodec().encode(np.arange(4), version=3)


class TestCorruptPayloads:
    @pytest.fixture()
    def encoded(self, rng):
        codec = HuffmanCodec(checkpoint_interval=50)
        symbols = rng.poisson(1.5, size=1000).astype(np.int64)
        payload, table = codec.encode(symbols)
        return codec, payload, table

    def test_truncated_header(self, encoded):
        codec, payload, table = encoded
        with pytest.raises(ValueError):
            codec.decode(payload[:20], table)

    def test_truncated_checkpoint_list(self, encoded):
        codec, payload, table = encoded
        with pytest.raises(ValueError):
            codec.decode(payload[:30], table)

    def test_truncated_bit_data(self, encoded):
        codec, payload, table = encoded
        with pytest.raises(ValueError, match="truncated"):
            codec.decode(payload[: len(payload) - 8], table)

    def test_zero_checkpoint_delta(self, encoded):
        codec, payload, table = encoded
        mangled = bytearray(payload)
        mangled[28:32] = b"\x00\x00\x00\x00"  # first delta -> 0
        with pytest.raises(ValueError, match="increasing"):
            codec.decode(bytes(mangled), table)

    def test_checkpoint_past_stream_end(self, encoded):
        codec, payload, table = encoded
        mangled = bytearray(payload)
        mangled[28:32] = struct.pack("<I", 0xFFFFFF)  # first delta -> huge
        with pytest.raises(ValueError):
            codec.decode(bytes(mangled), table)

    def test_checkpoint_count_mismatch(self, encoded):
        codec, payload, table = encoded
        mangled = bytearray(payload)
        mangled[24:28] = struct.pack("<I", 3)  # claim 3 checkpoints, 19 stored
        with pytest.raises(ValueError, match="checkpoint"):
            codec.decode(bytes(mangled), table)

    def test_misaligned_checkpoint_offset(self, encoded):
        # a plausible-but-wrong offset: the sub-block walker misses its
        # recorded end bit and the decoder must refuse rather than emit noise
        codec, payload, table = encoded
        mangled = bytearray(payload)
        (delta,) = struct.unpack_from("<I", payload, 28)
        struct.pack_into("<I", mangled, 28, delta + 1)
        with pytest.raises(ValueError):
            codec.decode(bytes(mangled), table)

    def test_corrupt_bit_data(self, encoded):
        codec, payload, table = encoded
        mangled = bytearray(payload)
        mangled[-40:] = b"\xff" * 40
        with pytest.raises(ValueError):
            codec.decode(bytes(mangled), table)


class TestPropertyRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(0, 500), min_size=1, max_size=600),
        interval=st.integers(1, 128),
        version=st.sampled_from([1, 2]),
    )
    def test_random_alphabets_and_intervals(self, values, interval, version):
        symbols = np.asarray(values, dtype=np.int64)
        codec = HuffmanCodec(checkpoint_interval=interval)
        payload, table = codec.encode(symbols, version=version)
        assert np.array_equal(codec.decode(payload, table), symbols)
        assert np.array_equal(codec.decode_reference(payload, table), symbols)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 400),
        symbol=st.integers(0, 1000),
        interval=st.integers(1, 64),
    )
    def test_single_symbol_alphabet(self, n, symbol, interval):
        # degenerate 1-bit code: every checkpoint lands on a bit multiple of 1
        symbols = np.full(n, symbol, dtype=np.int64)
        codec = HuffmanCodec(checkpoint_interval=interval)
        payload, table = codec.encode(symbols)
        assert np.array_equal(codec.decode(payload, table), symbols)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_wavefront_matches_doubling(self, data):
        # enough sub-blocks to force the lockstep wavefront, compared against
        # a single-span doubling decode of the same stream (v1 layout)
        values = data.draw(st.lists(st.integers(0, 30), min_size=200, max_size=2000))
        symbols = np.asarray(values, dtype=np.int64)
        interval = data.draw(st.integers(1, max(1, len(values) // 40)))
        codec = HuffmanCodec(checkpoint_interval=interval)
        payload_v2, table = codec.encode(symbols)
        payload_v1, _ = codec.encode(symbols, table, version=1)
        assert np.array_equal(
            codec.decode(payload_v2, table), codec.decode(payload_v1, table)
        )

    def test_empty_stream_both_paths(self):
        codec = HuffmanCodec()
        payload, table = codec.encode(np.array([], dtype=np.int64))
        assert codec.decode(payload, table).size == 0
        assert codec.decode_reference(payload, table).size == 0

    def test_giant_span_falls_back_to_bounded_memory_path(self):
        # a v1 payload past _SPAN_BITS_LIMIT must not materialise the
        # O(total_bits) doubling temporaries; the scalar loop handles it.
        # Craft the payload directly: one used symbol with a 16-bit code word
        # of all zeros, so an all-zero bit stream decodes to that symbol and
        # the last code word ends exactly on the stream's last bit.
        from repro.encoding.huffman import _SPAN_BITS_LIMIT, HuffmanTable

        codec = HuffmanCodec()
        table = HuffmanTable.from_lengths(np.array([0, 0, 0, 16]))
        total_bits = _SPAN_BITS_LIMIT + 16
        n_symbols = total_bits // 16
        payload = struct.pack("<QQ", n_symbols, total_bits) + b"\x00" * (total_bits // 8)
        decoded = codec.decode(payload, table)
        assert np.array_equal(decoded, np.full(n_symbols, 3))

    @settings(max_examples=15, deadline=None)
    @given(values=st.lists(st.integers(0, 50), min_size=1, max_size=200))
    def test_default_interval_unreached(self, values):
        # streams shorter than the default interval carry zero checkpoints
        symbols = np.asarray(values, dtype=np.int64)
        assert len(values) < DEFAULT_CHECKPOINT_INTERVAL
        codec = HuffmanCodec()
        payload, table = codec.encode(symbols)
        _, _, _, _, n_checkpoints = struct.unpack_from("<4sIQQI", payload, 0)
        assert n_checkpoints == 0
        assert np.array_equal(codec.decode(payload, table), symbols)
