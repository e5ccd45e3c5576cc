"""Parity of the batched Huffman decoder against the per-symbol reference.

:meth:`HuffmanCodec.decode_many` decodes several streams in one pass: one
concatenated lookup table, one pointer-doubling walk over every stream, and
the lockstep wavefront for streams with many checkpointed sub-blocks.
:meth:`HuffmanCodec.decode_reference` decodes one stream a symbol at a time
and checks the same things.  Hypothesis drives both through batches of 1–9
streams that mix v1 and v2 payloads, small and default checkpoint intervals,
complete and incomplete code sets and code lengths up to 16, with one stream
taking the wavefront, and asserts equal symbols.  Corrupted batches (a
flipped bit, a truncated payload, a shifted checkpoint) must raise
``ValueError`` exactly when some stream's reference decode does.
"""

import os
import struct
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import (
    _V2_HEADER,
    DEFAULT_CHECKPOINT_INTERVAL,
    HuffmanCodec,
    HuffmanTable,
    _parse_tables,
)
from repro.sz.errors import ErrorBound
from repro.zfp.codec import ZFPLikeCompressor

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CODEC = HuffmanCodec()


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def encoded_streams(draw, wavefront=False):
    """``(payload, table)`` for one stream; ``wavefront`` forces >= 32 full sub-blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if wavefront:
        version = 2
        interval = draw(st.sampled_from([3, 7, 16]))
        n = 32 * interval + draw(st.integers(0, interval - 1))
    else:
        version = draw(st.sampled_from([1, 2]))
        interval = draw(st.sampled_from([1, 5, 64, DEFAULT_CHECKPOINT_INTERVAL]))
        n = draw(st.sampled_from([0, 1, draw(st.integers(2, 1500))]))
    kind = draw(st.sampled_from(["peaked", "uniform", "deep", "incomplete"]))
    if kind == "deep":
        # Fibonacci frequencies build codes up to the 16-bit limit; symbols
        # are drawn uniformly so the long codes occur
        freq = np.array([1, 1] + [0] * 28, dtype=np.int64)
        for i in range(2, freq.size):
            freq[i] = freq[i - 1] + freq[i - 2]
        table = HuffmanTable.from_frequencies(freq, 16)
        symbols = rng.integers(0, freq.size, size=n)
    else:
        if kind == "uniform":
            symbols = rng.integers(0, draw(st.integers(1, 400)), size=n)
        else:
            symbols = rng.poisson(draw(st.floats(0.1, 20.0)), size=n)
        table = None
        if kind == "incomplete" and n:
            # lengthening codes keeps a prefix code but leaves the Kraft sum below 1
            lengths = HuffmanTable.from_frequencies(np.bincount(symbols)).lengths.copy()
            used = np.flatnonzero(lengths)
            longer = used[rng.random(used.size) < 0.5]
            lengths[longer] = np.minimum(lengths[longer] + rng.integers(1, 4, longer.size), 16)
            table = HuffmanTable.from_lengths(lengths)
    codec = HuffmanCodec(checkpoint_interval=interval)
    payload, table = codec.encode(symbols, table=table, version=version)
    return payload, table


@st.composite
def batches(draw):
    """1–9 encoded streams; about half the batches hold one wavefront stream."""
    streams = draw(st.lists(encoded_streams(), min_size=1, max_size=9))
    if draw(st.booleans()):
        streams.insert(draw(st.integers(0, len(streams))), draw(encoded_streams(wavefront=True)))
        streams = streams[:9]
    return streams


def corrupt(draw, payload):
    """One flipped bit (mostly in the code words), a truncation, or a shifted checkpoint."""
    kind = draw(st.sampled_from(["flip", "flip", "flip", "truncate", "shift"]))
    mangled = bytearray(payload)
    checkpoints = struct.unpack_from("<I", payload, 24)[0] if payload[:4] == b"HFV2" else 0
    data_at = _V2_HEADER.size + 4 * checkpoints if payload[:4] == b"HFV2" else 16
    if kind == "shift" and checkpoints:
        at = _V2_HEADER.size + 4 * draw(st.integers(0, checkpoints - 1))
        (delta,) = struct.unpack_from("<I", payload, at)
        shift = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        struct.pack_into("<I", mangled, at, max(delta + shift, 0))
    elif kind == "truncate":
        del mangled[draw(st.integers(0, len(payload) - 1)) :]
    else:
        first = 8 * data_at if len(payload) > data_at and draw(st.booleans()) else 0
        bit = draw(st.integers(first, 8 * len(payload) - 1))
        mangled[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(mangled)


def decode_batch(streams):
    return CODEC.decode_many([p for p, _ in streams], [t.to_bytes() for _, t in streams])


# --------------------------------------------------------------------------- #
# parity
# --------------------------------------------------------------------------- #
class TestBatchParity:
    @SETTINGS
    @given(batches())
    def test_batch_matches_per_stream_reference(self, streams):
        expected = [CODEC.decode_reference(payload, table) for payload, table in streams]
        actual = decode_batch(streams)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @SETTINGS
    @given(st.data())
    def test_corruption_raises_iff_some_reference_decode_raises(self, data):
        streams = data.draw(batches())
        k = data.draw(st.integers(0, len(streams) - 1))
        streams[k] = (corrupt(data.draw, streams[k][0]), streams[k][1])
        expected, reference_raised = [], False
        for payload, table in streams:
            try:
                expected.append(CODEC.decode_reference(payload, table))
            except ValueError:
                reference_raised = True
        try:
            actual = decode_batch(streams)
        except ValueError:
            assert reference_raised
        else:
            assert not reference_raised
            for got, want in zip(actual, expected):
                assert np.array_equal(got, want)

    def test_concatenated_lookup_table_holds_every_table(self):
        tables = [
            HuffmanTable.from_lengths(np.array([1, 0, 3, 3])),  # incomplete: zero tail
            HuffmanTable.from_frequencies(np.arange(1, 40)),
            HuffmanTable.from_lengths(np.array([0, 0, 1])),
        ]
        lut_symbols, lut_lengths, offsets, widths = _parse_tables(
            [table.to_bytes() for table in tables], 16
        )
        for table, offset, width in zip(tables, offsets, widths):
            assert width == max(table.max_length, 1)
            lut = slice(offset, offset + (1 << int(width)))
            for sym in np.flatnonzero(table.lengths):
                length = int(table.lengths[sym])
                first = int(table.codes[sym]) << (int(width) - length)
                window = slice(first, first + (1 << (int(width) - length)))
                assert (lut_symbols[lut][window] == sym).all()
                assert (lut_lengths[lut][window] == length).all()
            assert int(lut_lengths[lut].astype(bool).sum()) == sum(
                1 << (int(width) - int(length)) for length in table.lengths if length
            )


# --------------------------------------------------------------------------- #
# one pass per chunk
# --------------------------------------------------------------------------- #
def _grouped_payload():
    rng = np.random.default_rng(3)
    data = np.cumsum(rng.normal(size=(40, 36)), axis=0).astype(np.float32)
    comp = ZFPLikeCompressor(ErrorBound.absolute(1e-2))
    return comp, comp.compress(data)


class TestOnePassPerChunk:
    def test_one_huffman_decode_call_per_grouped_zfp_chunk(self, monkeypatch):
        comp, result = _grouped_payload()
        groups = len(result.metadata["groups"])
        assert groups > 2
        calls = []
        original = HuffmanCodec.decode_many

        def counting(self, payloads, tables):
            calls.append(len(payloads))
            return original(self, payloads, tables)

        monkeypatch.setattr(HuffmanCodec, "decode_many", counting)
        full = comp.decompress(result.payload)
        assert calls == [groups]
        calls.clear()
        coarse = comp.decompress(result.payload, max_groups=2)
        assert calls == [2]
        calls.clear()
        comp.decompress_preview(result.payload, 1e-9)
        assert calls == [1]
        assert full.shape == coarse.shape

    def test_numpy_call_count_does_not_grow_with_streams(self):
        rng = np.random.default_rng(5)
        encoded = [
            HuffmanCodec().encode(rng.poisson(1.0 + k, size=300)) for k in range(9)
        ]

        def numpy_calls(count):
            payloads = [payload for payload, _ in encoded[:count]]
            tables = [table.to_bytes() for _, table in encoded[:count]]
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "c_call":
                    owner = getattr(arg, "__self__", None)
                    module = getattr(arg, "__module__", None) or ""
                    if isinstance(owner, np.ndarray) or isinstance(arg, np.ufunc) or (
                        module.startswith("numpy")
                    ):
                        calls += 1
                elif event == "call" and f"{os.sep}numpy{os.sep}" in frame.f_code.co_filename:
                    calls += 1

            sys.setprofile(profile)
            try:
                decoded = CODEC.decode_many(payloads, tables)
            finally:
                sys.setprofile(None)
            assert len(decoded) == count
            return calls

        assert numpy_calls(9) == numpy_calls(1)
