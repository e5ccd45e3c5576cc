"""Canonical Huffman coding for quantization codes.

SZ-style compressors emit one small integer "quantization code" per data point
(centred on the zero-error bin), whose distribution is heavily peaked — exactly
the regime where Huffman coding shines.  The codec maps any array of
non-negative integers to bytes and back, for the SZ baseline, the ZFP-like
coder and the cross-field compressor alike (via :mod:`repro.encoding.entropy`):

- the table: length-limited code lengths from a two-queue merge (so the
  decoder needs a single lookup table), then canonical codes as in DEFLATE
  (RFC 1951 §3.2.2), so that only the lengths are stored;
- the encoder builds the tables of all of a chunk's streams from one
  histogram and scatters their code words into one array of 64-bit words
  (:meth:`HuffmanCodec.encode_many`);
- the decoder runs the lookup table as a state machine over bit positions
  with NumPy batch gathers that release the GIL: a lockstep wavefront over
  the sub-blocks a v2 (``HFV2``) payload checkpoints, or pointer doubling
  over all of a chunk's streams at once (:meth:`HuffmanCodec.decode_many`).

``docs/entropy.md`` walks through both directions and the v1/v2 wire formats.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "HuffmanTable",
    "HuffmanCodec",
    "MAX_ALPHABET",
    "MAX_CODE_LENGTH",
    "DEFAULT_CHECKPOINT_INTERVAL",
]

#: Maximum code length: keeps the decoder lookup table at 2**16 entries.
MAX_CODE_LENGTH = 16

#: Largest alphabet a table may declare (the default quantisation radius gives
#: at most 65 537 symbols): a hostile table cannot allocate gigabytes.
MAX_ALPHABET = 1 << 20

#: Symbols per independently decodable v2 sub-block.  Small enough that a
#: large stream yields hundreds of sub-blocks (the wavefront decoder's batch
#: width), large enough that the recorded offsets stay ~1% of the payload.
DEFAULT_CHECKPOINT_INTERVAL = 1024

#: Below this many sub-blocks the wavefront decoder's batch width cannot
#: amortise its per-step dispatch; pointer doubling wins.
_WAVEFRONT_MIN_BLOCKS = 32

#: Lookup-table entries one :meth:`HuffmanCodec.decode_many` pass may build
#: (16 tables of 16-bit codes, about 9 MB); more streams take more passes.
_LUT_ENTRIES_PER_PASS = 1 << 20

#: Widest lookup window the decoder reads: a bit window is a shift of the
#: 32-bit word at its byte, which holds 25 bits past any bit offset.
_MAX_WINDOW_BITS = 25

#: Pointer doubling materialises O(total_bits) temporaries (about 23 bytes
#: per stream bit on peaked streams, 30 with 1-bit codes); streams past this
#: limit that cannot take the O(total_bits/8) wavefront fall back to the
#: scalar loop, which is slow but O(n_symbols), and one walk takes at most
#: this many bits.  2**25 bits = 4 MB of payload — far beyond any chunk this
#: codebase writes.
_SPAN_BITS_LIMIT = 1 << 25

#: v2 payload magic.  v1 payloads start with the symbol count (little-endian
#: u64), so a collision would require a stream of exactly 0x...32564648
#: symbols — far beyond any payload this codec can produce in practice.
_MAGIC_V2 = b"HFV2"

#: v2 fixed header: magic, checkpoint interval (u32), n_symbols (u64),
#: n_bits (u64), checkpoint count (u32); followed by one u32 bit-offset
#: *delta* per checkpoint (offsets are strictly increasing, and one
#: sub-block spans at most ``interval * MAX_CODE_LENGTH`` bits, so deltas
#: always fit), then the bit data.
_V2_HEADER = struct.Struct("<4sIQQI")

#: Sparse table serialization entry: ``(symbol:u4, length:u1)``, packed.
_TABLE_ENTRY_DTYPE = np.dtype([("symbol", "<u4"), ("length", "u1")])


# --------------------------------------------------------------------------- #
# code construction
# --------------------------------------------------------------------------- #
def _huffman_code_lengths(freq: np.ndarray) -> np.ndarray:
    """Huffman code lengths for the (positive) frequencies of the used symbols.

    A two-queue merge: leaves sorted by (frequency, symbol), merged nodes in
    creation order (their frequencies never decrease), the leaf first on a tie
    — merge for merge the heap keyed on (frequency, creation counter).
    """
    n = freq.size
    if n == 1:
        return np.ones(1, dtype=np.int64)
    order = np.argsort(freq, kind="stable")
    # both queues end in a sentinel above every node, so they never run dry
    sentinel = int(freq.sum()) + 1
    leaves = freq[order].tolist() + [sentinel]
    merged = [sentinel] * n
    parent = [0] * (2 * n - 1)  # leaves in queue order, then merged nodes
    i = j = 0
    for node in range(n - 1):
        total = 0
        for _ in (0, 1):
            if leaves[i] <= merged[j]:
                total += leaves[i]
                parent[i] = node
                i += 1
            else:
                total += merged[j]
                parent[n + j] = node
                j += 1
        merged[node] = total
    depth = [0] * (n - 1)  # parents are created after their children
    for node in range(n - 3, -1, -1):
        depth[node] = depth[parent[n + node]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = [depth[p] + 1 for p in parent[:n]]
    return lengths


def _limit_code_lengths(lengths: np.ndarray, max_length: int) -> np.ndarray:
    """zlib's bit-length adjustment of the used symbols' code lengths.

    Clamp to ``max_length``; while the Kraft sum (exact, in units of
    ``2**-max_length``) exceeds 1, lengthen the first shortest code below the limit.
    """
    if lengths.size > 1 << max_length:
        n_codes = 1 << max_length
        raise ValueError(f"{lengths.size} symbols, only {n_codes} codes of <= {max_length} bits")
    lengths = np.minimum(lengths, max_length)
    excess = int(np.left_shift(1, max_length - lengths).sum()) - (1 << max_length)
    while excess > 0:  # then some code is still below the limit
        shortest = int(np.argmin(lengths))
        excess -= 1 << (max_length - 1 - int(lengths[shortest]))
        lengths[shortest] += 1
    return lengths


def _canonical_order(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The used symbols and their code lengths, ordered by (length, symbol)."""
    used = np.flatnonzero(lengths)
    symbols = used[np.argsort(lengths[used], kind="stable")]
    return symbols, lengths[symbols].astype(np.int64)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code words (RFC 1951 §3.2.2) without walking the alphabet.

    Lengths above 32 bits or a Kraft sum above 1 raise ``ValueError``.
    """
    codes = np.zeros(lengths.shape[0], dtype=np.uint32)
    symbols, sorted_lengths = _canonical_order(lengths)
    longest = int(sorted_lengths[-1]) if symbols.size else 0
    if longest > 32:
        raise ValueError(f"Huffman code length {longest} exceeds 32 bits")
    if np.left_shift(1, longest - sorted_lengths).sum() > 1 << longest:
        raise ValueError("Huffman code lengths oversubscribe the code space (Kraft sum > 1)")
    codes[symbols] = _sorted_codes(sorted_lengths, [symbols.size])
    return codes


def _sorted_codes(sorted_lengths: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """The code words of tables whose entries are in canonical order.

    ``sorted_lengths`` holds ``counts[k]`` code lengths of table ``k`` after
    those of the tables before it, each table's in (length, symbol) order.
    In that order a code is the Kraft sum of the codes before it in its
    table, scaled to its own length.
    """
    shift = int(sorted_lengths.max(initial=0)) - sorted_lengths
    room = np.left_shift(1, shift)  # each code's share, in units of 2**-longest
    kraft = np.cumsum(room) - room
    counts = [count for count in counts if count]
    firsts = list(itertools.accumulate(counts, initial=0))[:-1]
    return _shifted(kraft, counts, (-kraft[firsts]).tolist()) >> shift  # restart every table


@dataclass
class HuffmanTable:
    """Canonical Huffman table: per-symbol code lengths and code words."""

    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_frequencies(
        cls, frequencies: np.ndarray, max_length: int = MAX_CODE_LENGTH
    ) -> "HuffmanTable":
        """Build a length-limited canonical table from a symbol histogram."""
        freq = np.asarray(frequencies, dtype=np.int64)
        used = np.flatnonzero(freq)
        if used.size == 0:
            raise ValueError("cannot build a Huffman table from an all-zero histogram")
        lengths = np.zeros(freq.shape[0], dtype=np.uint8)
        lengths[used] = _limit_code_lengths(_huffman_code_lengths(freq[used]), max_length)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanTable":
        """Rebuild the canonical table from code lengths alone (decoder side).

        Alphabets above :data:`MAX_ALPHABET` raise ``ValueError``, as do the
        lengths :func:`_canonical_codes` rejects.
        """
        lengths = np.asarray(lengths, dtype=np.uint8)
        if lengths.shape[0] > MAX_ALPHABET:
            raise ValueError(f"Huffman table alphabet {lengths.shape[0]} exceeds {MAX_ALPHABET}")
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @property
    def alphabet_size(self) -> int:
        """Number of representable symbols (including unused ones)."""
        return int(self.lengths.shape[0])

    @property
    def max_length(self) -> int:
        """Longest code length in the table."""
        return int(self.lengths.max()) if self.lengths.size else 0

    # ------------------------------------------------------------------ #
    # serialization: (alphabet_size, sparse symbol->length pairs)
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize the table as sparse ``(symbol, length)`` pairs."""
        used = np.nonzero(self.lengths)[0]
        entries = np.empty(used.size, dtype=_TABLE_ENTRY_DTYPE)
        entries["symbol"] = used
        entries["length"] = self.lengths[used]
        return struct.pack("<II", self.alphabet_size, used.size) + entries.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "HuffmanTable":
        """Inverse of :meth:`to_bytes`; malformed tables raise ``ValueError``."""
        alphabet_size, n_used = _table_header(payload)
        entries = np.frombuffer(payload, dtype=_TABLE_ENTRY_DTYPE, count=n_used, offset=8)
        symbols = entries["symbol"].astype(np.int64)
        _check_entries(symbols, entries["length"], np.zeros(n_used, np.intp), np.array([alphabet_size]))
        lengths = np.zeros(alphabet_size, dtype=np.uint8)
        lengths[symbols] = entries["length"]
        return cls.from_lengths(lengths)


def _table_header(payload: bytes) -> Tuple[int, int]:
    """``(alphabet_size, n_entries)`` of a serialized table, checked against its length."""
    if len(payload) < 8:
        raise ValueError("truncated Huffman table")
    alphabet_size, n_used = struct.unpack_from("<II", payload, 0)
    if alphabet_size > MAX_ALPHABET:
        raise ValueError(f"Huffman table alphabet {alphabet_size} exceeds {MAX_ALPHABET}")
    if len(payload) < 8 + n_used * _TABLE_ENTRY_DTYPE.itemsize:
        raise ValueError("truncated Huffman table")
    return alphabet_size, n_used


def _check_entries(
    symbols: np.ndarray, lengths: np.ndarray, table_of: np.ndarray, alphabets: np.ndarray
) -> None:
    """Reject table entries :meth:`HuffmanTable.to_bytes` never writes.

    ``symbols``/``lengths`` hold the entries of several tables, entry ``i``
    belonging to table ``table_of[i]`` (tables in order).  Every symbol must
    lie inside its table's alphabet, the symbols of a table must be strictly
    ascending (so none is listed twice), and no length may be 0; otherwise
    ``ValueError``.
    """
    if not symbols.size:
        return
    if not lengths.all():
        raise ValueError("corrupt Huffman table: an entry has code length 0")
    outside = symbols >= alphabets[table_of]
    if outside.any():
        first = int(np.argmax(outside))
        raise ValueError(
            f"Huffman table entry names symbol {int(symbols[first])} outside "
            f"the declared alphabet of {int(alphabets[table_of[first]])}"
        )
    # symbols are now below MAX_ALPHABET, so the table index ranks above them
    if np.any(np.diff(symbols + table_of * MAX_ALPHABET) <= 0):
        raise ValueError("corrupt Huffman table: symbols not strictly ascending")


# --------------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------------- #
class HuffmanCodec:
    """Encode/decode arrays of non-negative integers with canonical Huffman codes.

    Parameters
    ----------
    max_length:
        Length limit for code construction (and the decoder LUT width).
    checkpoint_interval:
        Symbols per v2 sub-block; the encoder records one bit-offset
        checkpoint every ``checkpoint_interval`` symbols.
    """

    def __init__(
        self,
        max_length: int = MAX_CODE_LENGTH,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if not 1 <= max_length <= 32:
            raise ValueError("max_length must be in [1, 32]")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if checkpoint_interval > 1 << 26:
            # keeps every checkpoint delta below 2**32 (one sub-block spans at
            # most interval * 32 bits); streams that want no checkpoints at
            # all should encode with version=1 instead
            raise ValueError("checkpoint_interval must be <= 2**26")
        self.max_length = max_length
        self.checkpoint_interval = int(checkpoint_interval)

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def encode(
        self,
        symbols: np.ndarray,
        table: Optional[HuffmanTable] = None,
        version: int = 2,
    ) -> Tuple[bytes, HuffmanTable]:
        """Encode ``symbols`` (non-negative ints); returns ``(payload, table)``.

        ``version=2`` (the default) emits the checkpointed ``HFV2`` layout;
        ``version=1`` emits the legacy header-only layout, byte-identical to
        payloads written before checkpoints existed.  One stream runs the same
        pass as :meth:`encode_many`.
        """
        payload, table_bytes = self.encode_many(
            [symbols], None if table is None else [table], version
        )[0]
        return payload, table if table is not None else HuffmanTable.from_bytes(table_bytes)

    def encode_many(
        self,
        streams: Sequence[np.ndarray],
        tables: Optional[Sequence[HuffmanTable]] = None,
        version: int = 2,
    ) -> List[Tuple[bytes, bytes]]:
        """Encode several symbol streams in one pass; one ``(payload, table bytes)`` each.

        Without ``tables`` every stream gets its own length-limited canonical
        table, built from one histogram of all streams (:func:`_build_tables`);
        with them, stream ``k`` is coded with ``tables[k]``.  The table bytes
        are the :meth:`HuffmanTable.to_bytes` form, and ``version`` is
        :meth:`encode`'s.  The code words of every stream are scattered into
        one array of 64-bit words, each stream starting on a fresh word, so
        apart from the per-table code lengths the NumPy call count does not
        grow with the number of streams.  Symbols of :data:`MAX_ALPHABET` or
        more need a supplied table; otherwise ``ValueError``.
        """
        if version not in (1, 2):
            raise ValueError(f"unknown Huffman payload version {version!r}")
        if tables is not None and len(tables) != len(streams):
            raise ValueError(f"{len(streams)} symbol streams but {len(tables)} tables")
        arrays = [_stream_symbols(stream) for stream in streams]
        sizes = [array.size for array in arrays]
        symbols = np.concatenate(arrays or [np.zeros(0, dtype=np.int64)])
        starts = list(itertools.accumulate(sizes, initial=0))[:-1]
        live = [k for k, n in enumerate(sizes) if n]
        live_starts = [starts[k] for k in live]
        alphabets = [0] * len(sizes)  # largest symbol + 1
        if live:
            if symbols.min() < 0:
                raise ValueError("Huffman symbols must be non-negative")
            for k, top in zip(live, np.maximum.reduceat(symbols, live_starts).tolist()):
                alphabets[k] = top + 1

        # every symbol's code length and code word
        if tables is None:
            if max(alphabets, default=0) > MAX_ALPHABET:
                raise ValueError(f"Huffman symbols must be below {MAX_ALPHABET} without a table")
            table_bytes, lengths, codes = _build_tables(symbols, sizes, alphabets, self.max_length)
        else:
            for alphabet, table in zip(alphabets, tables):
                if alphabet > table.alphabet_size:
                    raise ValueError(
                        f"supplied table covers {table.alphabet_size} symbols, data needs {alphabet}"
                    )
            table_bytes = [table.to_bytes() for table in tables]
            covered = [table.alphabet_size for table in tables]
            slot = _shifted(symbols, sizes, list(itertools.accumulate(covered, initial=0)))
            lengths = np.concatenate([table.lengths for table in tables] or [np.zeros(0, np.uint8)])
            lengths = lengths[slot].astype(np.int64)
            if np.any(lengths == 0):
                missing = int(symbols[np.argmax(lengths == 0)])
                raise ValueError(f"symbol {missing} has no code in the supplied table")
            codes = np.concatenate([table.codes for table in tables] or [np.zeros(0, np.uint32)])
            codes = codes[slot].astype(np.uint64)

        # each stream starts on a fresh 64-bit word: pad the bits before it
        bits = [0] * len(sizes)
        if live:
            for k, n_bits in zip(live, np.add.reduceat(lengths, live_starts).tolist()):
                bits[k] = n_bits
        first_word = list(itertools.accumulate(((n + 63) >> 6 for n in bits), initial=0))
        bits_before = itertools.accumulate(bits, initial=0)
        padding = [64 * word - before for word, before in zip(first_word, bits_before)]
        pos = _shifted(np.cumsum(lengths), sizes, padding)  # one past each code's last bit

        interval = self.checkpoint_interval
        n_deltas = [max(n - 1, 0) // interval for n in sizes]
        deltas = b""
        if version == 2 and any(n_deltas):
            # the bits between consecutive interval-th codes of each stream,
            # followed by that stream's tail (not a checkpoint delta)
            at = np.concatenate([np.arange(starts[k], starts[k] + sizes[k], interval) for k in live])
            deltas = np.add.reduceat(lengths, at).astype("<u4").tobytes()

        # word scatter: codes go MSB-first into the 64-bit word of their last
        # bit, summed per word (they never overlap, so the sum is their OR); a
        # straddling code ORs its leading bits into the word before.  Every word
        # holds the last bit of some code (no code is 64 bits long), so the
        # per-word sums are the words.  O(n_symbols)
        words = np.zeros(0, dtype=np.uint64)
        if symbols.size:
            pos -= 1
            word = pos >> 6
            pos &= 63  # each code's last bit, counted from the MSB of its word
            straddle = np.flatnonzero(pos + 1 < lengths)
            leading = (codes[straddle] >> pos[straddle].view(np.uint64)) >> 1
            np.subtract(63, pos, out=pos)  # the left shift that puts the code there
            codes <<= pos.view(np.uint64)
            words = np.add.reduceat(codes, np.searchsorted(word, np.arange(first_word[-1])))
            words[word[straddle] - 1] |= leading
        data = words.astype(">u8").tobytes()

        out: List[Tuple[bytes, bytes]] = []
        delta_at = 0
        for n, n_bits, word_at, n_delta, table in zip(sizes, bits, first_word, n_deltas, table_bytes):
            if n == 0:
                out.append((struct.pack("<QQ", 0, 0), table))
                continue
            body = data[8 * word_at : 8 * word_at + (n_bits + 7) // 8]
            if version == 1:
                out.append((struct.pack("<QQ", n, n_bits) + body, table))
                continue
            header = _V2_HEADER.pack(_MAGIC_V2, interval, n, n_bits, n_delta)
            out.append((header + deltas[delta_at : delta_at + 4 * n_delta] + body, table))
            delta_at += 4 * (n_delta + 1)
        return out

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def decode(self, payload: bytes, table: HuffmanTable) -> np.ndarray:
        """Decode a payload produced by :meth:`encode` back to an int64 array.

        Both payload versions are detected from the bytes themselves.  One
        stream runs the same pass as :meth:`decode_many`.
        """
        return self.decode_many([payload], [table.to_bytes()])[0]

    def decode_many(self, payloads: Sequence[bytes], tables: Sequence[bytes]) -> List[np.ndarray]:
        """Decode several payloads, each with its serialized table, in one pass.

        ``tables[k]`` is the :meth:`HuffmanTable.to_bytes` form of the table
        ``payloads[k]`` was encoded with.  Every table is parsed into one
        concatenated lookup table, and every stream without enough full
        sub-blocks for the wavefront is decoded by one pointer-doubling walk
        over all of them (:func:`_decode_spans`), so the NumPy call count
        does not grow with the number of streams.  Any malformed table or
        payload raises ``ValueError``.
        """
        if len(payloads) != len(tables):
            raise ValueError(f"{len(payloads)} Huffman payloads but {len(tables)} tables")
        # every table's lookup table is built up front: bound their total size
        per_pass = max(1, _LUT_ENTRIES_PER_PASS >> min(self.max_length, _MAX_WINDOW_BITS))
        if len(payloads) > per_pass:
            out: List[np.ndarray] = []
            for start in range(0, len(payloads), per_pass):
                stop = start + per_pass
                out += self.decode_many(payloads[start:stop], tables[start:stop])
            return out
        lut_symbols, lut_lengths, offsets, widths = _parse_tables(tables, self.max_length)
        headers = [_payload_header(payload) for payload in payloads]
        checkpoints = _checkpoint_offsets(payloads, headers)
        luts = (lut_symbols, lut_lengths, offsets, widths)

        out = [np.zeros(0, dtype=np.int64)] * len(payloads)
        wavefronts = {}
        spans: List[_Span] = []
        cp_end = 0
        for k, (payload, (n_symbols, total_bits, interval, n_cp, data_at)) in enumerate(
            zip(payloads, headers)
        ):
            cp_start, cp_end = cp_end, cp_end + n_cp
            if n_symbols == 0:
                continue
            data = memoryview(payload)[data_at : data_at + (total_bits + 7) // 8]
            # the lockstep wavefront runs only over *full* sub-blocks, so every
            # cursor retires the same number of symbols; a partial tail block
            # joins the doubling walk
            n_full = n_symbols // interval if n_cp else 0
            if n_full >= _WAVEFRONT_MIN_BLOCKS:
                bounds = np.concatenate(([0], checkpoints[cp_start:cp_end], [total_bits]))
                lut = slice(int(offsets[k]), int(offsets[k]) + (1 << int(widths[k])))
                wavefronts[k] = _decode_wavefront(
                    data, lut_symbols[lut], lut_lengths[lut], bounds[: n_full + 1],
                    int(widths[k]), interval,
                )
                tail = n_symbols - n_full * interval
                if tail:
                    lo = int(bounds[n_full])
                    spans.append(
                        _Span(k, data[lo >> 3 :], lo & 7, total_bits - lo, tail, tail, cp_end, cp_end)
                    )
            elif total_bits > _SPAN_BITS_LIMIT:
                # a giant stream with too few checkpoints for the wavefront (deep
                # legacy v1 payloads, mostly): bounded memory beats speed
                out[k] = self.decode_reference(payload, HuffmanTable.from_bytes(tables[k]))
            else:
                spans.append(_Span(k, data, 0, total_bits, n_symbols, interval, cp_start, cp_end))

        for batch in _span_batches(spans):
            for span, symbols in zip(batch, _decode_spans(batch, checkpoints, luts)):
                out[span.stream] = symbols
        for k, symbols in wavefronts.items():
            out[k] = np.concatenate((symbols, out[k])) if out[k].size else symbols
        return out

    def decode_reference(self, payload: bytes, table: HuffmanTable) -> np.ndarray:
        """Scalar per-symbol decode: the pre-vectorisation reference loop.

        Kept as the correctness oracle for the vectorised decoder (property
        tests compare against it) and as the baseline in the entropy-backend
        decode-throughput benchmark.  Handles both payload versions and
        checks what the fast path checks: no dead window, the last code
        ending exactly on the stream's last bit, and every recorded
        checkpoint on the code word it names.
        """
        header = _payload_header(payload)
        n_symbols, total_bits, interval, _, data_at = header
        checkpoints = _checkpoint_offsets([payload], [header]).tolist()
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int64)

        lut_bits = min(max(table.max_length, 1), self.max_length)
        if table.max_length > lut_bits:
            raise ValueError("code length exceeds decoder lookup width")
        # the lookup table written one code's window range at a time
        lut_sym_list = [0] * (1 << lut_bits)
        lut_len_list = [0] * (1 << lut_bits)
        for sym in np.flatnonzero(table.lengths).tolist():
            length = int(table.lengths[sym])
            first = int(table.codes[sym]) << (lut_bits - length)
            count = 1 << (lut_bits - length)
            lut_sym_list[first : first + count] = [sym] * count
            lut_len_list[first : first + count] = [length] * count

        data = payload[data_at:]
        out = np.empty(n_symbols, dtype=np.int64)
        acc = 0
        n_acc = 0
        pos = 0
        consumed = 0
        data_len = len(data)
        mask = (1 << lut_bits) - 1
        for i in range(n_symbols):
            if i and i % interval == 0 and consumed != checkpoints[i // interval - 1]:
                raise ValueError("corrupt Huffman payload: checkpoints do not match the stream")
            while n_acc < lut_bits and pos < data_len:
                acc = (acc << 8) | data[pos]
                pos += 1
                n_acc += 8
            if n_acc >= lut_bits:
                window = (acc >> (n_acc - lut_bits)) & mask
            else:
                window = (acc << (lut_bits - n_acc)) & mask
            sym = lut_sym_list[window]
            length = lut_len_list[window]
            if length == 0 or length > n_acc:
                raise ValueError("corrupt Huffman stream")
            n_acc -= length
            acc &= (1 << n_acc) - 1
            consumed += length
            out[i] = sym
        if consumed != total_bits:
            raise ValueError("corrupt Huffman stream")
        return out


# --------------------------------------------------------------------------- #
# encode internals
# --------------------------------------------------------------------------- #
def _stream_symbols(symbols) -> np.ndarray:
    """One stream's symbols as a flat int64 array; floating-point input raises ``TypeError``."""
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.issubdtype(symbols.dtype, np.floating):
        raise TypeError("Huffman symbols must be integers")
    return symbols.ravel().astype(np.int64, copy=False)


def _shifted(values: np.ndarray, sizes: Sequence[int], shifts: Sequence[int]) -> np.ndarray:
    """``values`` (runs of ``sizes[k]`` end to end) with ``shifts[k]`` added to run ``k``."""
    shifts = shifts[: len(sizes)]
    if not any(shifts):
        return values
    return values + np.repeat(shifts, sizes)


def _build_tables(
    symbols: np.ndarray, sizes: Sequence[int], alphabets: Sequence[int], max_length: int
) -> Tuple[List[bytes], np.ndarray, np.ndarray]:
    """Every stream's canonical table from one histogram of all of them.

    ``symbols`` holds the streams end to end, ``sizes[k]`` of them for
    stream ``k``, whose symbols lie below ``alphabets[k]``.  Each stream's
    symbols are offset by the alphabets before it, so one ``bincount`` is
    every histogram.  Code lengths are :meth:`HuffmanTable.from_frequencies`'s,
    one table at a time; the canonical codes of all tables come from one
    stable sort by (table, length, symbol).  Returns each stream's serialized
    table and every input symbol's code length and code word.
    """
    bases = list(itertools.accumulate(alphabets, initial=0))
    keys = _shifted(symbols, sizes, bases)
    histogram = np.bincount(keys, minlength=bases[-1])
    used = np.flatnonzero(histogram)  # in (table, symbol) order
    stops = np.searchsorted(used, bases[1:]).tolist()
    counts = [stop - start for start, stop in zip([0] + stops, stops)]
    frequencies = histogram[used]
    lengths = np.empty(used.size, dtype=np.int64)
    for stop, count in zip(stops, counts):
        if count:
            lengths[stop - count : stop] = _limit_code_lengths(
                _huffman_code_lengths(frequencies[stop - count : stop]), max_length
            )

    order = np.argsort(_shifted(lengths, counts, range(0, 64 * len(counts), 64)), kind="stable")
    codes = np.empty(used.size, dtype=np.uint64)
    codes[order] = _sorted_codes(lengths[order], counts)

    entries = np.empty(used.size, dtype=_TABLE_ENTRY_DTYPE)
    entries["symbol"] = _shifted(used, counts, [-base for base in bases])
    entries["length"] = lengths
    entry_bytes = entries.tobytes()
    size = _TABLE_ENTRY_DTYPE.itemsize
    tables = [
        struct.pack("<II", max(alphabet, 1), count) + entry_bytes[size * (stop - count) : size * stop]
        for alphabet, stop, count in zip(alphabets, stops, counts)
    ]
    histogram[used] = np.arange(used.size)  # the histogram becomes each key's entry
    slot = histogram[keys]
    return tables, lengths[slot], codes[slot]


# --------------------------------------------------------------------------- #
# decode internals
# --------------------------------------------------------------------------- #
def _parse_tables(
    tables: Sequence[bytes], max_width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check serialized tables and build their concatenated lookup table.

    The checks are :meth:`HuffmanTable.from_bytes`'s, run over every table's
    entries at once; a longest code wider than ``max_width`` raises too.
    Returns :func:`_lookup_tables`'s arrays plus each table's width.
    """
    headers = [_table_header(table) for table in tables]
    counts = np.array([count for _, count in headers], dtype=np.intp)
    entries = np.frombuffer(
        b"".join(
            memoryview(table)[8 : 8 + count * _TABLE_ENTRY_DTYPE.itemsize]
            for table, (_, count) in zip(tables, headers)
        ),
        dtype=_TABLE_ENTRY_DTYPE,
    )
    symbols = entries["symbol"].astype(np.int64)
    lengths = entries["length"].astype(np.int64)
    table_of = np.repeat(np.arange(len(tables)), counts)
    _check_entries(symbols, lengths, table_of, np.array([alphabet for alphabet, _ in headers]))

    # canonical order: by table, then code length, then symbol
    order = np.argsort(table_of * 256 + lengths, kind="stable")
    symbols, lengths = symbols[order], lengths[order]
    used = counts > 0
    longest = np.zeros(len(tables), dtype=np.int64)
    longest[used] = lengths[np.cumsum(counts)[used] - 1]
    widest = int(longest.max(initial=0))
    if widest > 32:
        raise ValueError(f"Huffman code length {widest} exceeds 32 bits")
    if widest > min(max_width, _MAX_WINDOW_BITS):
        raise ValueError("code length exceeds decoder lookup width")
    widths = np.maximum(longest, 1)
    return _lookup_tables(symbols, lengths, table_of, counts, widths) + (widths,)


def _lookup_tables(
    symbols: np.ndarray,
    lengths: np.ndarray,
    table_of: np.ndarray,
    counts: np.ndarray,
    widths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefix lookup tables of several canonical codes, built from their used symbols.

    ``symbols``/``lengths`` hold every table's entries in canonical order
    (by table, then length, then symbol), ``counts[k]`` of them for table
    ``k`` (``table_of`` names each entry's table), whose lookup table maps
    each ``widths[k]``-bit window to (symbol, code length).  In canonical
    order each code's window range starts where the previous one ends, so a
    table repeats every symbol ``2**(width - length)`` times; an incomplete
    code set leaves a (symbol 0, length 0) tail, and an oversubscribed one
    (Kraft sum > 1) raises ``ValueError``.  Returns ``(lut_symbols,
    lut_lengths, offsets)``: table ``k`` starts at ``offsets[k]``.
    """
    repeats = np.left_shift(1, widths[table_of] - lengths)
    ends = np.cumsum(counts)
    covered = np.concatenate(([0], np.cumsum(repeats)))
    spans = np.left_shift(1, widths)
    tails = spans - (covered[ends] - covered[ends - counts])
    if np.any(tails < 0):
        raise ValueError("Huffman code lengths oversubscribe the code space (Kraft sum > 1)")
    # each table's entries, then its tail slot
    slot = np.arange(symbols.size) + table_of
    n_slots = symbols.size + counts.size
    ext_symbols = np.zeros(n_slots, dtype=np.int64)
    ext_symbols[slot] = symbols
    ext_lengths = np.zeros(n_slots, dtype=np.uint8)
    ext_lengths[slot] = lengths
    ext_repeats = np.empty(n_slots, dtype=np.int64)
    ext_repeats[slot] = repeats
    ext_repeats[ends + np.arange(counts.size)] = tails
    offsets = np.cumsum(spans) - spans
    return np.repeat(ext_symbols, ext_repeats), np.repeat(ext_lengths, ext_repeats), offsets


def _payload_header(payload: bytes) -> Tuple[int, int, int, int, int]:
    """Split either payload version into ``(n_symbols, total_bits, interval,
    n_checkpoints, data_offset)``, checked against the payload's length.

    v1 payloads have no checkpoints and an interval covering the whole
    stream.  Every code word is at least one bit, so a header that declares
    more symbols than bits raises here, before anything is allocated.
    """
    if payload[:4] == _MAGIC_V2:
        if len(payload) < _V2_HEADER.size:
            raise ValueError("truncated Huffman payload")
        _, interval, n_symbols, total_bits, n_checkpoints = _V2_HEADER.unpack_from(payload, 0)
        if interval < 1:
            raise ValueError("corrupt Huffman payload: checkpoint interval < 1")
        expected = (n_symbols - 1) // interval if n_symbols else 0
        if n_checkpoints != expected:
            raise ValueError(
                f"corrupt Huffman payload: {n_checkpoints} checkpoints recorded, "
                f"{expected} expected for {n_symbols} symbols every {interval}"
            )
        data_offset = _V2_HEADER.size + 4 * n_checkpoints
        if len(payload) < data_offset:
            raise ValueError("truncated Huffman payload")
    else:
        if len(payload) < 16:
            raise ValueError("truncated Huffman payload")
        n_symbols, total_bits = struct.unpack_from("<QQ", payload, 0)
        interval, n_checkpoints, data_offset = max(n_symbols, 1), 0, 16
    if n_symbols > total_bits:
        raise ValueError(f"corrupt Huffman payload: {n_symbols} symbols in {total_bits} bits")
    if n_symbols and (len(payload) - data_offset) * 8 < total_bits:
        raise ValueError("truncated Huffman payload")
    return n_symbols, total_bits, interval, n_checkpoints, data_offset


def _checkpoint_offsets(payloads: Sequence[bytes], headers: Sequence[Tuple]) -> np.ndarray:
    """Every payload's checkpoint bit offsets, concatenated in payload order.

    Delta-coded checkpoints must be strictly increasing and stay inside their
    stream, else ``ValueError``.
    """
    counts = [header[3] for header in headers]
    if not any(counts):
        return np.zeros(0, dtype=np.int64)
    deltas = np.frombuffer(
        b"".join(
            memoryview(payload)[_V2_HEADER.size : _V2_HEADER.size + 4 * count]
            for payload, count in zip(payloads, counts)
        ),
        dtype="<u4",
    ).astype(np.int64)
    if int(deltas.min()) == 0:
        raise ValueError("corrupt Huffman payload: checkpoints not increasing")
    offsets = np.cumsum(deltas)
    ends = np.cumsum(counts)
    if len(counts) > 1:
        # restart the running sum at every payload's first checkpoint
        offsets -= np.repeat(np.concatenate(([0], offsets))[ends - counts], counts)
    last = [end - 1 for end, count in zip(ends.tolist(), counts) if count]
    total_bits = [header[1] for header in headers if header[3]]
    if np.any(offsets[last] >= total_bits):
        raise ValueError("corrupt Huffman payload: checkpoint past the end of the stream")
    return offsets


class _Span(NamedTuple):
    """One run of code words for the doubling walk: a whole stream, or a wavefront's tail."""

    stream: int
    data: memoryview  # starts at the byte holding the span's first bit
    first_bit: int
    n_bits: int
    n_symbols: int
    interval: int
    cp_start: int  # this span's checkpoints: checkpoints[cp_start:cp_end]
    cp_end: int


def _span_batches(spans: Sequence[_Span]) -> Iterator[List[_Span]]:
    """Consecutive runs of ``spans`` that one :func:`_decode_spans` walk takes.

    The walk materialises O(bits) temporaries, plus one position per symbol
    of the longest span for every span of the run: a run holds at most
    :data:`_SPAN_BITS_LIMIT` bits (a lone span may hold more), and the
    positions that pad its shorter spans to the longest cost at most two
    bytes per bit.
    """
    batch: List[_Span] = []
    bits = symbols = longest = 0
    for span in spans:
        grown = max(longest, span.n_symbols)
        padding = (len(batch) + 1) * grown - (symbols + span.n_symbols)
        if batch and (
            bits + span.n_bits > _SPAN_BITS_LIMIT or 4 * padding > bits + span.n_bits
        ):
            yield batch
            batch, bits, symbols, grown = [], 0, 0, span.n_symbols
        batch.append(span)
        bits += span.n_bits
        symbols += span.n_symbols
        longest = grown
    if batch:
        yield batch


#: Bit offsets within a byte, as the left shifts that drop the earlier bits.
_BIT_SHIFTS = np.arange(8, dtype=np.uint32)


def _fused_words(buffer: bytes, count: int, dtype=np.uint32) -> np.ndarray:
    """``count`` big-endian u32 words starting at every byte of ``buffer``.

    Word ``b`` holds bits ``8b .. 8b+31`` MSB-first, so any window of up to
    25 bits at bit ``p`` is a shift of word ``p // 8``; ``buffer`` must hold
    ``count + 3`` bytes.
    """
    return np.ndarray((count,), dtype=">u4", buffer=buffer, strides=(1,)).astype(dtype)


def _decode_spans(
    spans: Sequence[_Span], checkpoints: np.ndarray, luts: Tuple[np.ndarray, ...]
) -> List[np.ndarray]:
    """Decode every span with one pointer-doubling walk; one array per span.

    The spans' bytes are placed end to end and every bit position of all of
    them is resolved to "the code word starting here is ``step`` bits long"
    in one batch of lookups, with each span's own table and width.  The jump
    table ``p -> p + step[p]`` is iterated from every span's first bit at
    once with pointer doubling: it is composed with itself to get ``2m``
    symbols from ``m``, and each round resolves the positions of ``m``
    further symbols per span with a single batch gather.

    Dead windows (step 0) jump to themselves and the positions past the last
    span are dead, so a span's positions never decrease, and a walk that
    leaves its span or hits a dead window stays out or stuck.  That reduces
    the per-span checks to its last code word: it must be live and end
    exactly on the span's end bit, and then every position lies inside its
    own span on a live window.  Recorded checkpoints (span-relative bit
    offsets of every ``interval``-th symbol) are cross-checked against the
    derived positions, so a corrupted checkpoint list fails loudly even on
    the path that does not need it.
    """
    lut_symbols, lut_lengths, offsets, widths = luts
    tables = np.array([span.stream for span in spans], dtype=np.intp)
    span_bytes = [(span.first_bit + span.n_bits + 7) >> 3 for span in spans]
    bases = list(itertools.accumulate(span_bytes, initial=0))[:-1]  # each span's first byte
    n_bytes = sum(span_bytes)
    # windows that start inside a span may read this many bytes past it
    reach = (int(widths.max()) + 7) // 8
    buffer = b"".join(span.data[:size] for span, size in zip(spans, span_bytes))
    fused = _fused_words(buffer + bytes(reach + 3), n_bytes + reach)
    span_bytes[-1] += reach

    # a window is the word at its byte, shifted by its bit offset and its
    # table's width, plus its table's offset into the concatenated LUT
    shift = np.repeat((32 - widths[tables]).astype(np.uint32), span_bytes)
    base = np.repeat(offsets[tables].astype(np.uint32), span_bytes)
    windows = fused[:, None] << _BIT_SHIFTS
    windows >>= shift[:, None]
    windows += base[:, None]
    step = np.take(lut_lengths, windows.ravel())
    del windows  # recomputed at the code-word positions only
    step[8 * n_bytes :] = 0
    jump = np.arange(step.size, dtype=np.intp)
    jump += step
    spare = np.empty_like(jump)

    firsts = np.array([8 * at + span.first_bit for at, span in zip(bases, spans)], dtype=np.intp)
    counts = np.array([span.n_symbols for span in spans], dtype=np.intp)
    longest = int(counts.max())
    positions = np.empty((len(spans), longest), dtype=np.intp)
    positions[:, 0] = firsts
    filled = 1
    while filled < longest:
        take = min(filled, longest - filled)
        positions[:, filled : filled + take] = jump[positions[:, :take]]
        filled += take
        if filled < longest:
            np.take(jump, jump, out=spare, mode="clip")
            jump, spare = spare, jump

    last = positions[np.arange(len(spans)), counts - 1]
    last_step = step[last]
    if np.any(last_step == 0) or np.any(last + last_step != firsts + [span.n_bits for span in spans]):
        raise ValueError("corrupt Huffman stream")
    n_cps = [span.cp_end - span.cp_start for span in spans]
    if any(n_cps):
        # the position of every interval-th symbol, against the recorded checkpoints
        n_cps = np.array(n_cps, dtype=np.intp)
        owner = np.repeat(np.arange(len(spans)), n_cps)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(n_cps) - n_cps, n_cps)
        intervals = np.array([span.interval for span in spans], dtype=np.intp)
        cp_starts = np.array([span.cp_start for span in spans], dtype=np.intp)
        derived = positions[owner, (rank + 1) * intervals[owner]] - firsts[owner]
        if np.any(derived != checkpoints[cp_starts[owner] + rank]):
            raise ValueError("corrupt Huffman payload: checkpoints do not match the stream")

    del jump, spare, step
    at = positions.ravel() if counts.min() == longest else positions[np.arange(longest) < counts[:, None]]
    byte = at >> 3
    windows = fused[byte]
    offset = at.astype(np.uint32)
    offset &= 7
    windows <<= offset
    windows >>= shift[byte]
    windows += base[byte]
    del at, byte, offset, positions
    symbols = np.take(lut_symbols, windows)
    cuts = list(itertools.accumulate(span.n_symbols for span in spans))
    return [symbols[stop - span.n_symbols : stop] for span, stop in zip(spans, cuts)]


def _decode_wavefront(
    data: memoryview,
    lut_symbols: np.ndarray,
    lut_lengths: np.ndarray,
    bounds: np.ndarray,
    width: int,
    interval: int,
) -> np.ndarray:
    """Decode a contiguous run of *full* checkpointed sub-blocks in lockstep.

    ``bounds`` holds the sub-blocks' first bits and, last, the end bit of
    the final one.  One decode cursor per sub-block advances through the LUT
    state machine simultaneously: each round gathers every cursor's bit
    window, emits every cursor's symbol, and steps every cursor by its code
    length — a handful of batch operations per *symbol index*, not per
    symbol.  The checkpoint interval bounds the round count while the number
    of sub-blocks provides the batch width.

    The loop body carries no bounds checks: a corrupt cursor drifts at most
    ``interval * width`` bits past its start (the zero tail covers that) and
    is caught afterwards, when every cursor must sit exactly on its
    sub-block's recorded end bit.
    """
    pad = 4 + (interval * width + 7) // 8
    fused = _fused_words(bytes(data) + bytes(pad + 3), len(data) + pad, np.intp)
    shifts = 32 - width - np.arange(8, dtype=np.intp)
    mask = (1 << width) - 1
    cursors = bounds[:-1].astype(np.intp)
    out = np.empty((interval, cursors.size), dtype=np.int64)
    for i in range(interval):
        window = (fused[cursors >> 3] >> shifts[cursors & 7]) & mask
        out[i] = lut_symbols[window]
        cursors += lut_lengths[window]
    if not np.array_equal(cursors, bounds[1:]):
        raise ValueError("corrupt Huffman stream")
    return out.T.ravel()
