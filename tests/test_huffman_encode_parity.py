"""Parity of the batched Huffman encoder against the per-stream encoder it replaced.

:meth:`HuffmanCodec.encode_many` builds the tables of several streams from one
histogram, their canonical codes from one sort and their bit streams from one
word scatter, each stream starting on a fresh 64-bit word;
:func:`~repro.sz.pipeline.encode_integer_streams` splits outliers and zigzags
once over a chunk's streams and hands each coder its streams in one call.
The per-stream versions they replaced live here as the oracle: one table and
one word scatter per stream, and the outlier split, coder choice and section
layout of a single stream.  Hypothesis drives both through batches of 1–9
streams — empty, single-symbol, peaked, escape-heavy and wide-alphabet ones,
a stream with more distinct symbols than Huffman takes mixed into a Huffman
batch, v1 and v2 payloads at intervals 1, 5 and 1024 — and asserts that
payloads, tables, sections (in order) and metadata are equal byte for byte.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.encoding.entropy import HUFFMAN_SYMBOL_LIMIT, get_entropy_coder
from repro.encoding.huffman import _V2_HEADER, MAX_ALPHABET, HuffmanCodec, HuffmanTable
from repro.encoding.lossless import get_backend
from repro.encoding.rle import zigzag_encode
from repro.sz.errors import ErrorBound
from repro.sz.pipeline import encode_integer_streams
from repro.zfp import codec as zfp_codec
from repro.zfp.codec import ZFPLikeCompressor

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

INTERVALS = [1, 5, 1024]


# --------------------------------------------------------------------------- #
# per-stream oracles
# --------------------------------------------------------------------------- #
def reference_encode(symbols, table=None, version=2, interval=1024, max_length=16):
    """One stream, one table, one word scatter: the encoder before batching."""
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        empty = HuffmanTable(lengths=np.zeros(1, dtype=np.uint8), codes=np.zeros(1, dtype=np.uint32))
        return struct.pack("<QQ", 0, 0), table if table is not None else empty
    symbols = symbols.ravel().astype(np.int64)
    if table is None:
        table = HuffmanTable.from_frequencies(np.bincount(symbols), max_length)
    lengths = table.lengths[symbols].astype(np.int64)
    codes = table.codes[symbols].astype(np.uint64)

    pos = np.cumsum(lengths)
    total_bits = int(pos[-1])
    deltas = np.diff(pos[::interval] - lengths[::interval]).astype("<u4")
    pos -= 1
    word = pos >> 6
    pos &= 63
    straddle = np.flatnonzero(pos + 1 < lengths)
    leading = (codes[straddle] >> pos[straddle].view(np.uint64)) >> 1
    np.subtract(63, pos, out=pos)
    codes <<= pos.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
    words = np.zeros(int(word[-1]) + 1, dtype=np.uint64)
    words[word[starts]] = np.add.reduceat(codes, starts)
    words[word[straddle] - 1] |= leading
    data = words.astype(">u8").view(np.uint8)[: (total_bits + 7) // 8].tobytes()
    if version == 1:
        return struct.pack("<QQ", symbols.size, total_bits) + data, table
    header = _V2_HEADER.pack(b"HFV2", interval, symbols.size, total_bits, deltas.size)
    return header + deltas.tobytes() + data, table


def reference_supports(symbols):
    """Huffman takes a stream below MAX_ALPHABET with at most the symbol limit of distinct symbols."""
    if symbols.size == 0:
        return True
    if int(symbols.max()) >= MAX_ALPHABET:
        return False
    return np.count_nonzero(np.bincount(symbols)) <= HUFFMAN_SYMBOL_LIMIT


def reference_integer_stream(residuals, coder, backend_name, radius, prefix):
    """One residual stream's sections and metadata, coded on its own."""
    backend = get_backend(backend_name)
    residuals = np.asarray(residuals, dtype=np.int64).ravel()
    outlier_mask = np.abs(residuals) >= radius
    outlier_positions = np.nonzero(outlier_mask)[0].astype(np.int64)
    outlier_values = residuals[outlier_mask]
    escape_symbol = 2 * radius
    symbols = zigzag_encode(np.where(outlier_mask, 0, residuals))
    symbols[outlier_mask] = escape_symbol

    if coder.name == "huffman" and not reference_supports(symbols):
        coder = get_entropy_coder("zlib")
    if coder.name == "huffman":
        payload, table = reference_encode(symbols, interval=coder.codec.checkpoint_interval)
        own = {"symbols": backend.compress(payload), "huffman_table": backend.compress(table.to_bytes())}
    else:
        own, _ = coder.encode(symbols, backend)
    sections = {f"{prefix}.{key}": value for key, value in own.items()}
    if outlier_positions.size:
        sections[f"{prefix}.outlier_positions"] = backend.compress(outlier_positions.tobytes())
        sections[f"{prefix}.outlier_values"] = backend.compress(outlier_values.tobytes())
    meta = {
        "entropy": coder.name,
        "backend": backend.name,
        "radius": int(radius),
        "escape_symbol": int(escape_symbol),
        "count": int(residuals.size),
        "outliers": int(outlier_positions.size),
        "prefix": prefix,
    }
    return sections, meta


def assert_same_stream(got, want):
    """Sections equal in content and order, metadata equal down to key order."""
    (sections, meta), (ref_sections, ref_meta) = got, want
    assert list(sections.items()) == list(ref_sections.items())
    assert json.dumps(meta) == json.dumps(ref_meta)


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def symbol_streams(draw):
    """One non-negative symbol stream of a drawn shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "single", "peaked", "peaked", "uniform", "wide", "deep"]))
    n = draw(st.integers(1, 3000))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "single":
        return np.full(n, draw(st.integers(0, 70000)), dtype=np.int64)
    if kind == "peaked":
        return rng.poisson(draw(st.floats(0.05, 30.0)), size=n)
    if kind == "uniform":
        return rng.integers(0, draw(st.integers(1, 5000)), size=n)
    if kind == "wide":
        # a sparse alphabet reaching its largest allowed symbol
        symbols = rng.poisson(2.0, size=n)
        symbols[rng.integers(0, n, size=draw(st.integers(1, 4)))] = MAX_ALPHABET - 1
        return symbols
    # Fibonacci frequencies: code lengths run into the length limit
    fib = [1, 1]
    while len(fib) < 21:
        fib.append(fib[-1] + fib[-2])
    return rng.permutation(np.repeat(np.arange(21), fib))


@st.composite
def residual_streams(draw):
    """One residual stream: empty, constant, smooth, escape-heavy or too wide for Huffman."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "single", "smooth", "smooth", "escapes", "distinct"]))
    n = draw(st.integers(1, 4096))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "single":
        return np.full(n, draw(st.integers(-50, 50)), dtype=np.int64)
    if kind == "smooth":
        return np.rint(rng.normal(0.0, draw(st.floats(0.1, 50.0)), size=n)).astype(np.int64)
    if kind == "escapes":
        residuals = rng.integers(-3, 4, size=n)
        spikes = rng.random(n) < draw(st.floats(0.05, 0.9))
        residuals[spikes] = rng.integers(-(10**7), 10**7, size=int(spikes.sum()))
        return residuals
    # more distinct symbols than Huffman takes: the stream must fall back to zlib
    return rng.permutation(np.arange(-17000, 17000))


# --------------------------------------------------------------------------- #
# parity
# --------------------------------------------------------------------------- #
class TestCodecParity:
    @SETTINGS
    @given(
        st.lists(symbol_streams(), min_size=1, max_size=9),
        st.sampled_from([1, 2]),
        st.sampled_from(INTERVALS),
    )
    def test_batch_matches_per_stream_encode(self, streams, version, interval):
        codec = HuffmanCodec(checkpoint_interval=interval)
        encoded = codec.encode_many(streams, version=version)
        assert len(encoded) == len(streams)
        for symbols, (payload, table_bytes) in zip(streams, encoded):
            want_payload, want_table = reference_encode(symbols, version=version, interval=interval)
            assert payload == want_payload
            assert table_bytes == want_table.to_bytes()
            assert np.array_equal(codec.decode(payload, HuffmanTable.from_bytes(table_bytes)), symbols)

    @SETTINGS
    @given(
        st.lists(symbol_streams(), min_size=1, max_size=9),
        st.sampled_from([1, 2]),
        st.sampled_from(INTERVALS),
    )
    def test_supplied_tables_match_per_stream_encode(self, streams, version, interval):
        # every stream coded with a table that also codes two symbols it lacks
        tables = []
        for symbols in streams:
            histogram = np.bincount(symbols, minlength=symbols.max(initial=0) + 3)
            histogram[-2:] += 1
            tables.append(HuffmanTable.from_frequencies(histogram))
        codec = HuffmanCodec(checkpoint_interval=interval)
        encoded = codec.encode_many(streams, tables, version=version)
        for symbols, table, (payload, table_bytes) in zip(streams, tables, encoded):
            want_payload, _ = reference_encode(symbols, table, version=version, interval=interval)
            assert payload == want_payload
            assert table_bytes == table.to_bytes()

    @SETTINGS
    @given(symbol_streams(), st.sampled_from([1, 2]))
    def test_encode_is_the_one_stream_batch(self, symbols, version):
        codec = HuffmanCodec()
        payload, table = codec.encode(symbols, version=version)
        want_payload, want_table = reference_encode(symbols, version=version)
        assert payload == want_payload
        assert np.array_equal(table.lengths, want_table.lengths)
        assert np.array_equal(table.codes, want_table.codes)

    def test_supplied_table_must_cover_every_symbol(self):
        codec = HuffmanCodec()
        small = HuffmanTable.from_frequencies(np.array([3, 1]))
        with pytest.raises(ValueError, match="covers 2 symbols"):
            codec.encode_many([np.array([0, 1]), np.array([0, 2])], [small, small])
        gap = HuffmanTable.from_lengths(np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="symbol 1 has no code"):
            codec.encode_many([np.array([0, 2, 1])], [gap])

    def test_hostile_inputs_raise(self):
        codec = HuffmanCodec()
        with pytest.raises(TypeError):
            codec.encode_many([np.array([1, 2]), np.array([0.5])])
        with pytest.raises(ValueError, match="non-negative"):
            codec.encode_many([np.array([1, 2]), np.array([-1])])
        with pytest.raises(ValueError, match="below"):
            codec.encode_many([np.array([MAX_ALPHABET])])
        with pytest.raises(ValueError, match="version"):
            codec.encode_many([np.array([1])], version=3)
        with pytest.raises(ValueError, match="tables"):
            codec.encode_many([np.array([1])], [])


class TestIntegerStreamParity:
    @SETTINGS
    @given(
        st.lists(residual_streams(), min_size=1, max_size=9),
        st.sampled_from(["huffman", "huffman", "zlib", "raw"]),
        st.sampled_from(INTERVALS),
        st.sampled_from([1, 3, 100, 32768, 2**20]),
        st.sampled_from(["zlib", "raw"]),
    )
    def test_batch_matches_per_stream_reference(self, streams, entropy, interval, radius, backend):
        coder = get_entropy_coder(entropy)
        if entropy == "huffman":
            coder.codec = HuffmanCodec(checkpoint_interval=interval)
        prefixes = [f"g{k}" for k in range(len(streams))]
        encoded = encode_integer_streams(streams, coder, backend, radius, prefixes)
        assert len(encoded) == len(streams)
        for residuals, prefix, got in zip(streams, prefixes, encoded):
            assert_same_stream(got, reference_integer_stream(residuals, coder, backend, radius, prefix))

    def test_too_many_distinct_symbols_fall_back_inside_a_huffman_batch(self):
        rng = np.random.default_rng(0)
        streams = [
            rng.integers(-4, 5, size=500),
            rng.permutation(np.arange(-17000, 17000)),  # 34 000 distinct symbols
            np.zeros(0, dtype=np.int64),
            np.array([600_000, 1, -1]),  # a symbol past MAX_ALPHABET at this radius
        ]
        encoded = encode_integer_streams(streams, "huffman", "zlib", 2**20, ["a", "b", "c", "d"])
        assert [meta["entropy"] for _, meta in encoded] == ["huffman", "zlib", "huffman", "zlib"]
        coder = get_entropy_coder("huffman")
        for residuals, prefix, got in zip(streams, "abcd", encoded):
            assert_same_stream(got, reference_integer_stream(residuals, coder, "zlib", 2**20, prefix))

    def test_prefixes_must_match_the_streams(self):
        with pytest.raises(ValueError, match="prefixes"):
            encode_integer_streams([np.arange(3)], "huffman", "zlib", 4, ["a", "b"])


# --------------------------------------------------------------------------- #
# one pass per chunk
# --------------------------------------------------------------------------- #
def _smooth_field():
    rng = np.random.default_rng(3)
    return np.cumsum(rng.normal(size=(40, 36)), axis=0).astype(np.float32)


class TestOnePassPerChunk:
    def test_one_huffman_encode_call_per_grouped_zfp_chunk(self, monkeypatch):
        calls = []
        original = HuffmanCodec.encode_many

        def counting(self, streams, tables=None, version=2):
            calls.append(len(streams))
            return original(self, streams, tables, version)

        monkeypatch.setattr(HuffmanCodec, "encode_many", counting)
        result = ZFPLikeCompressor(ErrorBound.absolute(1e-2)).compress(_smooth_field())
        groups = len(result.metadata["groups"])
        assert groups > 2
        assert calls == [groups]

    @pytest.mark.parametrize("bound", [1e-1, 1e-2, 1e-5])
    def test_grouped_payload_matches_per_group_reference(self, monkeypatch, bound):
        comp = ZFPLikeCompressor(ErrorBound.absolute(bound))
        batched = comp.compress(_smooth_field()).payload

        def per_group(streams, entropy, backend, radius, prefixes):
            coder = get_entropy_coder(entropy)
            return [
                reference_integer_stream(residuals, coder, backend, radius, prefix)
                for residuals, prefix in zip(streams, prefixes)
            ]

        monkeypatch.setattr(zfp_codec, "encode_integer_streams", per_group)
        assert comp.compress(_smooth_field()).payload == batched
