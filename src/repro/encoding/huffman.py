"""Canonical Huffman coding for quantization codes.

SZ-style compressors emit one small integer "quantization code" per data point
(centred on the zero-error bin), whose distribution is heavily peaked — exactly
the regime where Huffman coding shines.  The codec maps any array of
non-negative integers to bytes and back, for the SZ baseline, the ZFP-like
coder and the cross-field compressor alike (via :mod:`repro.encoding.entropy`):

- the table: length-limited code lengths from a two-queue merge (so the
  decoder needs a single lookup table), then canonical codes as in DEFLATE
  (RFC 1951 §3.2.2), so that only the lengths are stored;
- the encoder scatters code words into 64-bit words;
- the decoder runs the lookup table as a state machine over bit positions
  with NumPy batch gathers that release the GIL: a lockstep wavefront over
  the sub-blocks a v2 (``HFV2``) payload checkpoints, or pointer doubling.

``docs/entropy.md`` walks through both directions and the v1/v2 wire formats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

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

#: Pointer doubling materialises O(total_bits) temporaries (~16 bytes per
#: stream bit); streams past this limit that cannot take the O(total_bits/8)
#: wavefront fall back to the scalar loop, which is slow but O(n_symbols).
#: 2**25 bits = 4 MB of payload — far beyond any chunk this codebase writes.
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

    A code is its length's first code plus the symbol's rank within that
    length; lengths above 32 bits or a Kraft sum above 1 raise ``ValueError``.
    """
    codes = np.zeros(lengths.shape[0], dtype=np.uint32)
    symbols, sorted_lengths = _canonical_order(lengths)
    longest = int(sorted_lengths[-1]) if symbols.size else 0
    if longest > 32:
        raise ValueError(f"Huffman code length {longest} exceeds 32 bits")
    count = np.bincount(sorted_lengths, minlength=longest + 1)
    shift = longest - np.arange(longest + 1)
    room = count << shift  # the codes of each length, in units of 2**-longest
    if room.sum() > 1 << longest:
        raise ValueError("Huffman code lengths oversubscribe the code space (Kraft sum > 1)")
    # first code of each length (the RFC's next_code) minus the rank of its first symbol
    offset = ((np.cumsum(room) - room) >> shift) - (np.cumsum(count) - count)
    codes[symbols] = offset[sorted_lengths] + np.arange(symbols.size)
    return codes


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

    def expected_bits(self, frequencies: np.ndarray) -> float:
        """Total encoded bits for a stream with the given symbol histogram."""
        freq = np.asarray(frequencies, dtype=np.float64)
        if freq.shape[0] != self.alphabet_size:
            raise ValueError("histogram size does not match the alphabet")
        return float(np.sum(freq * self.lengths))

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
        """Inverse of :meth:`to_bytes`."""
        if len(payload) < 8:
            raise ValueError("truncated Huffman table")
        alphabet_size, n_used = struct.unpack_from("<II", payload, 0)
        if alphabet_size > MAX_ALPHABET:
            raise ValueError(f"Huffman table alphabet {alphabet_size} exceeds {MAX_ALPHABET}")
        if len(payload) < 8 + n_used * _TABLE_ENTRY_DTYPE.itemsize:
            raise ValueError("truncated Huffman table")
        entries = np.frombuffer(payload, dtype=_TABLE_ENTRY_DTYPE, count=n_used, offset=8)
        symbols = entries["symbol"].astype(np.int64)
        if symbols.size and int(symbols.max()) >= alphabet_size:
            raise ValueError(
                f"Huffman table entry names symbol {int(symbols.max())} outside "
                f"the declared alphabet of {alphabet_size}"
            )
        lengths = np.zeros(alphabet_size, dtype=np.uint8)
        lengths[symbols] = entries["length"]
        return cls.from_lengths(lengths)


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
        payloads written before checkpoints existed.
        """
        if version not in (1, 2):
            raise ValueError(f"unknown Huffman payload version {version!r}")
        symbols = np.asarray(symbols)
        if symbols.size == 0:
            empty = HuffmanTable(lengths=np.zeros(1, dtype=np.uint8), codes=np.zeros(1, dtype=np.uint32))
            return struct.pack("<QQ", 0, 0), table if table is not None else empty
        if symbols.ndim != 1:
            symbols = symbols.ravel()
        if np.issubdtype(symbols.dtype, np.floating):
            raise TypeError("Huffman symbols must be integers")
        if symbols.min() < 0:
            raise ValueError("Huffman symbols must be non-negative")
        symbols = symbols.astype(np.int64, copy=False)
        alphabet = int(symbols.max()) + 1
        if table is None:
            table = HuffmanTable.from_frequencies(np.bincount(symbols), self.max_length)
        elif table.alphabet_size < alphabet:
            raise ValueError(
                f"supplied table covers {table.alphabet_size} symbols, data needs {alphabet}"
            )

        lengths = table.lengths[symbols].astype(np.int64)
        if np.any(lengths == 0):
            missing = int(symbols[np.argmax(lengths == 0)])
            raise ValueError(f"symbol {missing} has no code in the supplied table")
        codes = table.codes[symbols].astype(np.uint64)

        pos = np.cumsum(lengths)  # one past each code's last bit
        total_bits = int(pos[-1])
        # v2 checkpoint deltas: differences of every interval-th code offset
        interval = self.checkpoint_interval
        deltas = np.diff(pos[::interval] - lengths[::interval]).astype("<u4")

        # word scatter: codes go MSB-first into the 64-bit word of their last
        # bit, summed per word (they never overlap, so the sum is their OR); a
        # straddling code ORs its leading bits into the word before.  O(n_symbols)
        pos -= 1
        word = pos >> 6
        pos &= 63  # each code's last bit, counted from the MSB of its word
        straddle = np.flatnonzero(pos + 1 < lengths)
        leading = (codes[straddle] >> pos[straddle].view(np.uint64)) >> 1
        np.subtract(63, pos, out=pos)  # the left shift that puts the code there
        codes <<= pos.view(np.uint64)
        starts = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
        words = np.zeros(int(word[-1]) + 1, dtype=np.uint64)
        words[word[starts]] = np.add.reduceat(codes, starts)
        words[word[straddle] - 1] |= leading
        data = words.astype(">u8").view(np.uint8)[: (total_bits + 7) // 8].tobytes()

        if version == 1:
            return struct.pack("<QQ", symbols.size, total_bits) + data, table
        header = _V2_HEADER.pack(_MAGIC_V2, interval, symbols.size, total_bits, deltas.size)
        return header + deltas.tobytes() + data, table

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def decode(
        self,
        payload: bytes,
        table: HuffmanTable,
        scheduler=None,
    ) -> np.ndarray:
        """Decode a payload produced by :meth:`encode` back to an int64 array.

        Both payload versions are detected from the bytes themselves.  For a
        v2 payload with more than one checkpointed sub-block, ``scheduler``
        (a :class:`~repro.parallel.engine.ChunkScheduler` or anything with its
        ``imap_unordered``) fans the sub-block decodes out across workers;
        without one the sub-blocks decode sequentially (still vectorised).
        """
        n_symbols, total_bits, interval, checkpoints, data = self._parse_payload(payload)
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int64)
        if len(data) * 8 < total_bits:
            raise ValueError("truncated Huffman payload")

        lut_bits = min(max(table.max_length, 1), self.max_length)
        lut_symbols, lut_lengths = self._build_lut(table, lut_bits)

        # sub-block bit boundaries (monotonicity is enforced by
        # _parse_payload: delta-coded checkpoints are strictly increasing)
        bounds = np.concatenate(([0], checkpoints, [total_bits])).astype(np.int64)
        # the lockstep wavefront runs only over *full* sub-blocks, so every
        # cursor retires the same number of symbols; a partial tail block is
        # decoded separately by the doubling span
        n_full = n_symbols // interval if checkpoints.size else 0

        if n_full >= _WAVEFRONT_MIN_BLOCKS and total_bits < np.iinfo(np.int32).max:
            # corrupt cursors may drift past the stream end until the final
            # boundary check; padding keeps every drifted window in bounds
            pad = 4 + (interval * lut_bits + 7) // 8
            fused = self._fuse_bytes(data, total_bits, pad)
            out = np.empty(n_symbols, dtype=np.int64)
            out[: n_full * interval] = self._decode_blocks_wavefront(
                fused, lut_symbols, lut_lengths, bounds, n_full, lut_bits, interval, scheduler
            )
            tail = n_symbols - n_full * interval
            if tail:
                tail_lo = int(bounds[n_full])
                windows = self._window_values(fused, tail_lo, total_bits, lut_bits)
                out[n_full * interval :] = self._decode_span(
                    lut_lengths[windows], windows, lut_symbols, tail
                )
            return out

        if total_bits > _SPAN_BITS_LIMIT:
            # a giant stream with too few checkpoints for the wavefront (deep
            # legacy v1 payloads, mostly): bounded memory beats speed
            return self.decode_reference(payload, table)

        # few blocks: the sub-blocks are contiguous in the bit stream, so the
        # checkpoints cannot pay for themselves — decode the whole stream as
        # one span with pointer doubling (still validating the recorded
        # checkpoints against the code-word positions the span derives)
        fused = self._fuse_bytes(data, total_bits)
        windows = self._window_values(fused, 0, total_bits, lut_bits)
        return self._decode_span(
            lut_lengths[windows], windows, lut_symbols, n_symbols,
            interval=interval, checkpoints=checkpoints,
        )

    def _decode_blocks_wavefront(
        self,
        fused: np.ndarray,
        lut_symbols: np.ndarray,
        lut_lengths: np.ndarray,
        bounds: np.ndarray,
        n_full: int,
        lut_bits: int,
        interval: int,
        scheduler,
    ) -> np.ndarray:
        """Decode the full checkpointed sub-blocks in lockstep (optionally fanned out).

        Contiguous runs of sub-blocks form groups; each group is one wavefront
        (see :meth:`_decode_wavefront`).  With a scheduler, groups are sized to
        its worker count and submitted through ``imap_unordered`` — each group
        decode is NumPy batch work that releases the GIL, so groups genuinely
        overlap on a thread backend.
        """
        n_groups = 1
        if scheduler is not None:
            jobs = int(getattr(scheduler, "effective_jobs", 1) or 1)
            n_groups = max(1, min(jobs, n_full // _WAVEFRONT_MIN_BLOCKS))

        def decode_group(span: Tuple[int, int]) -> np.ndarray:
            lo, hi = span
            return self._decode_wavefront(
                fused, lut_symbols, lut_lengths, bounds[lo:hi], bounds[lo + 1 : hi + 1],
                lut_bits, interval,
            )

        if n_groups == 1:
            return decode_group((0, n_full))
        edges = np.linspace(0, n_full, n_groups + 1).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
        out = np.empty(n_full * interval, dtype=np.int64)
        for index, decoded in scheduler.imap_unordered(decode_group, spans):
            sym_start = spans[index][0] * interval
            out[sym_start : sym_start + decoded.size] = decoded
        return out

    # ------------------------------------------------------------------ #
    # decode internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_payload(payload: bytes):
        """Split either payload version into its decode inputs.

        Returns ``(n_symbols, total_bits, interval, checkpoints, bit_data)``;
        v1 payloads come back with an empty checkpoint list and an interval
        covering the whole stream.
        """
        if payload[:4] == _MAGIC_V2:
            if len(payload) < _V2_HEADER.size:
                raise ValueError("truncated Huffman payload")
            _, interval, n_symbols, total_bits, n_checkpoints = _V2_HEADER.unpack_from(
                payload, 0
            )
            if interval < 1:
                raise ValueError("corrupt Huffman payload: checkpoint interval < 1")
            expected = (n_symbols - 1) // interval if n_symbols else 0
            if n_checkpoints != expected:
                raise ValueError(
                    f"corrupt Huffman payload: {n_checkpoints} checkpoints recorded, "
                    f"{expected} expected for {n_symbols} symbols every {interval}"
                )
            offset = _V2_HEADER.size
            end = offset + 4 * n_checkpoints
            if len(payload) < end:
                raise ValueError("truncated Huffman payload")
            deltas = np.frombuffer(payload, dtype="<u4", count=n_checkpoints, offset=offset)
            if n_checkpoints and int(deltas.min()) == 0:
                raise ValueError("corrupt Huffman payload: checkpoints not increasing")
            checkpoints = np.cumsum(deltas.astype(np.int64))
            if n_checkpoints and int(checkpoints[-1]) >= total_bits:
                raise ValueError("corrupt Huffman payload: checkpoint past the end of the stream")
            return n_symbols, total_bits, interval, checkpoints, payload[end:]
        if len(payload) < 16:
            raise ValueError("truncated Huffman payload")
        n_symbols, total_bits = struct.unpack_from("<QQ", payload, 0)
        return n_symbols, total_bits, max(n_symbols, 1), np.zeros(0, np.int64), payload[16:]

    @staticmethod
    def _fuse_bytes(data: bytes, total_bits: int, pad_bytes: int = 4) -> np.ndarray:
        """Fuse four staggered byte lanes into one u32 per byte position.

        ``fused[b]`` holds bits ``8b .. 8b+31`` of the stream MSB-first, so any
        ``lut_bits <= 16``-wide window at bit ``p`` is a shift of
        ``fused[p // 8]``.  Padding zeros beyond the stream match the scalar
        reference decoder's behaviour at the tail; ``pad_bytes`` sizes the
        zero tail (the wavefront decoder asks for enough that even a corrupt,
        drifting cursor stays in bounds until it is caught).
        """
        raw = np.frombuffer(data, dtype=np.uint8)
        n_bytes = (total_bits + 7) // 8
        padded = np.zeros(n_bytes + max(pad_bytes, 4), dtype=np.uint8)
        padded[:n_bytes] = raw[:n_bytes]
        lanes = padded.astype(np.uint32)
        return (
            (lanes[:-3] << np.uint32(24))
            | (lanes[1:-2] << np.uint32(16))
            | (lanes[2:-1] << np.uint32(8))
            | lanes[3:]
        )

    @staticmethod
    def _window_values(fused: np.ndarray, start: int, stop: int, lut_bits: int) -> np.ndarray:
        """``lut_bits``-wide bit windows at every bit position in ``[start, stop)``."""
        positions = np.arange(start, stop, dtype=np.int64)
        shifts = (np.uint32(32 - lut_bits) - (positions & 7).astype(np.uint32)).astype(np.uint32)
        mask = np.uint32((1 << lut_bits) - 1)
        return ((fused[positions >> 3] >> shifts) & mask).astype(np.int32)

    @staticmethod
    def _decode_wavefront(
        fused: np.ndarray,
        lut_symbols: np.ndarray,
        lut_lengths: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        lut_bits: int,
        interval: int,
    ) -> np.ndarray:
        """Decode a contiguous run of *full* checkpointed sub-blocks in lockstep.

        One decode cursor per sub-block advances through the LUT state machine
        simultaneously: each round gathers every cursor's bit window, emits
        every cursor's symbol, and steps every cursor by its code length — a
        handful of batch operations per *symbol index*, not per symbol.  The
        checkpoint interval bounds the round count while the number of
        sub-blocks provides the batch width.

        The loop body carries no bounds checks: a corrupt cursor drifts at
        most ``interval * lut_bits`` bits past the stream (the caller pads
        ``fused`` accordingly) and is caught afterwards, when every cursor
        must sit exactly on its sub-block's recorded end bit.
        """
        shift_lut = np.uint32(32 - lut_bits) - np.arange(8, dtype=np.uint32)
        mask = np.uint32((1 << lut_bits) - 1)
        lengths32 = lut_lengths.astype(np.int32)
        cur = starts.astype(np.int32)
        out = np.empty((interval, starts.size), dtype=np.int64)
        for i in range(interval):
            window = (fused[cur >> 3] >> shift_lut[cur & 7]) & mask
            out[i] = lut_symbols[window]
            cur = cur + lengths32[window]
        if not np.array_equal(cur, stops.astype(np.int32)):
            raise ValueError("corrupt Huffman stream")
        return out.T.ravel()

    @staticmethod
    def _decode_span(
        step: np.ndarray,
        windows: np.ndarray,
        lut_symbols: np.ndarray,
        n_symbols: int,
        interval: Optional[int] = None,
        checkpoints: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decode one contiguous span of ``n_symbols`` code words.

        ``step``/``windows`` cover exactly the span's bit range.  The jump
        table ``p -> p + step[p]`` is iterated from bit 0 with pointer
        doubling: the jump table for ``m`` symbols is composed with itself to
        get ``2m``, and each round resolves the positions of ``m`` further
        symbols with a single batch gather.

        ``checkpoints`` (span-relative bit offsets of every ``interval``-th
        symbol, when the payload recorded any) are cross-checked against the
        derived code-word positions, so a corrupted checkpoint list fails
        loudly even on the span path that does not need it.
        """
        n_bits = step.shape[0]
        index_dtype = np.int32 if n_bits < np.iinfo(np.int32).max else np.int64
        jump = np.arange(n_bits, dtype=index_dtype)
        jump += step.astype(index_dtype)
        # dead positions (no code word starts here) and overruns both land on
        # the sentinel slot n_bits, which maps to itself
        jump[step == 0] = n_bits
        np.minimum(jump, n_bits, out=jump)
        jump = np.append(jump, index_dtype(n_bits))

        positions = np.empty(n_symbols, dtype=index_dtype)
        positions[0] = 0
        filled = 1
        while filled < n_symbols:
            take = min(filled, n_symbols - filled)
            positions[filled : filled + take] = jump[positions[:take]]
            filled += take
            if filled < n_symbols:
                jump = jump[jump]

        if int(positions[-1]) >= n_bits:
            raise ValueError("corrupt Huffman stream")
        lengths_at = step[positions]
        if np.any(lengths_at == 0):
            raise ValueError("corrupt Huffman stream")
        if int(positions[-1]) + int(lengths_at[-1]) != n_bits:
            raise ValueError("corrupt Huffman stream")
        if checkpoints is not None and checkpoints.size:
            derived = positions[interval::interval][: checkpoints.size].astype(np.int64)
            if not np.array_equal(derived, checkpoints):
                raise ValueError("corrupt Huffman payload: checkpoints do not match the stream")
        return lut_symbols[windows[positions]]

    def decode_reference(self, payload: bytes, table: HuffmanTable) -> np.ndarray:
        """Scalar per-symbol decode: the pre-vectorisation reference loop.

        Kept as the correctness oracle for the vectorised decoder (property
        tests compare against it) and as the baseline in the entropy-backend
        decode-throughput benchmark.  Handles both payload versions.
        """
        n_symbols, total_bits, _, _, data = self._parse_payload(payload)
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int64)
        if len(data) * 8 < total_bits:
            raise ValueError("truncated Huffman payload")

        lut_bits = min(max(table.max_length, 1), self.max_length)
        lut_symbols, lut_lengths = self._build_lut(table, lut_bits)

        out = np.empty(n_symbols, dtype=np.int64)
        acc = 0
        n_acc = 0
        pos = 0
        data_len = len(data)
        mask = (1 << lut_bits) - 1
        lut_sym_list = lut_symbols.tolist()
        lut_len_list = lut_lengths.tolist()
        for i in range(n_symbols):
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
            out[i] = sym
        return out

    @staticmethod
    def _build_lut(table: HuffmanTable, lut_bits: int) -> Tuple[np.ndarray, np.ndarray]:
        """Build a prefix lookup table mapping every ``lut_bits`` window to (symbol, length).

        In canonical order each code's window range starts where the previous
        one ends, so the table repeats every symbol ``2**(lut_bits - length)``
        times; an incomplete code set leaves a zero tail.
        """
        symbols, lengths = _canonical_order(table.lengths)
        if lengths.size and int(lengths[-1]) > lut_bits:
            raise ValueError("code length exceeds decoder lookup width")
        repeats = np.left_shift(1, lut_bits - lengths)
        # a (symbol 0, length 0) entry repeated over the rest pads an incomplete code set
        repeats = np.append(repeats, (1 << lut_bits) - repeats.sum())
        lut_lengths = np.repeat(np.append(lengths, 0), repeats).astype(np.int32)
        return np.repeat(np.append(symbols, 0), repeats), lut_lengths
