"""Unit tests for the compressed-payload container format."""

import gc
import struct
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest

from repro.encoding.container import CompressedBlob
from repro.store import ArchiveReader


class TestCompressedBlob:
    def test_round_trip(self):
        blob = CompressedBlob(metadata={"shape": [4, 4], "eb": 1e-3})
        blob.add_section("residuals", b"\x01\x02\x03")
        blob.add_section("model", b"weights")
        rebuilt = CompressedBlob.from_bytes(blob.to_bytes())
        assert rebuilt.metadata == {"shape": [4, 4], "eb": 1e-3}
        assert rebuilt.get_section("residuals") == b"\x01\x02\x03"
        assert rebuilt.get_section("model") == b"weights"

    def test_empty_sections_ok(self):
        blob = CompressedBlob(metadata={"x": 1})
        rebuilt = CompressedBlob.from_bytes(blob.to_bytes())
        assert rebuilt.metadata["x"] == 1

    def test_crc_detects_corruption(self):
        blob = CompressedBlob(metadata={"a": 1})
        blob.add_section("data", b"abcdefgh")
        payload = bytearray(blob.to_bytes())
        payload[-3] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            CompressedBlob.from_bytes(bytes(payload))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            CompressedBlob.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_too_small(self):
        with pytest.raises(ValueError):
            CompressedBlob.from_bytes(b"\x00")

    def test_missing_section(self):
        blob = CompressedBlob()
        with pytest.raises(KeyError):
            blob.get_section("nothing")

    def test_contains(self):
        blob = CompressedBlob()
        blob.add_section("a", b"1")
        assert "a" in blob and "b" not in blob

    def test_section_sizes(self):
        blob = CompressedBlob(metadata={"k": "v"})
        blob.add_section("a", b"12345")
        sizes = blob.section_sizes()
        assert sizes["a"] == 5
        assert sizes["__metadata__"] > 0

    def test_rejects_non_bytes_section(self):
        with pytest.raises(TypeError):
            CompressedBlob().add_section("bad", 123)

    def test_nbytes_matches_serialized_length(self):
        blob = CompressedBlob(metadata={"a": 1})
        blob.add_section("x", b"\x00" * 100)
        assert blob.nbytes == len(blob.to_bytes())

    def test_nbytes_matches_across_shapes(self):
        cases = [
            CompressedBlob(),
            CompressedBlob(metadata={"unicode": "é", "nested": {"k": [1, 2, 3]}}),
        ]
        multi = CompressedBlob(metadata={"n": 3})
        multi.add_section("empty", b"")
        multi.add_section("named-é", b"\x01" * 7)
        multi.add_section("big", b"\xff" * 4096)
        cases.append(multi)
        for blob in cases:
            assert blob.nbytes == len(blob.to_bytes())


class TestCorruptionPaths:
    """Every malformed input must raise a clear ValueError, never crash oddly."""

    @staticmethod
    def _payload():
        blob = CompressedBlob(metadata={"field": "T", "shape": [8, 8]})
        blob.add_section("residuals", b"\x01\x02\x03\x04\x05\x06\x07\x08")
        blob.add_section("model", b"weights-bytes")
        return blob.to_bytes()

    def test_truncated_header(self):
        payload = self._payload()
        for cut in (0, 1, 5, 12):  # header is 13 bytes
            with pytest.raises(ValueError, match="too small"):
                CompressedBlob.from_bytes(payload[:cut])

    def test_truncated_body(self):
        payload = self._payload()
        for cut in (len(payload) - 1, len(payload) // 2, 14):
            with pytest.raises(ValueError, match="CRC|truncated"):
                CompressedBlob.from_bytes(payload[:cut])

    def test_flipped_bit_crc_mismatch(self):
        payload = bytearray(self._payload())
        for position in (13, len(payload) // 2, len(payload) - 1):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0x01
            with pytest.raises(ValueError, match="CRC"):
                CompressedBlob.from_bytes(bytes(corrupted))

    def test_unknown_magic(self):
        payload = bytearray(self._payload())
        payload[:4] = b"ZZZZ"
        with pytest.raises(ValueError, match="magic"):
            CompressedBlob.from_bytes(bytes(payload))

    def test_unsupported_version(self):
        payload = bytearray(self._payload())
        payload[4] = 99
        with pytest.raises(ValueError, match="version"):
            CompressedBlob.from_bytes(bytes(payload))



# --------------------------------------------------------------------------- #
# mutation corpus seeded from the golden archives' chunk payloads
# --------------------------------------------------------------------------- #
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
_HEADER = struct.Struct("<4sBII")  # magic, version, n_sections, crc32 of the body
_SECTION = struct.Struct("<HQ")  # name length, payload length
_U32 = struct.Struct("<I")


def _golden_seeds():
    """The first chunk payload of every field of every committed golden archive."""
    seeds = []
    for path in sorted(GOLDEN_DIR.glob("*.xfa")):
        raw = path.read_bytes()
        with ArchiveReader(path) as reader:
            for entry in reader.fields():
                chunk = entry.chunks[0]
                payload = raw[chunk.offset : chunk.offset + chunk.length]
                seeds.append(pytest.param(payload, id=f"{path.stem}/{entry.name}"))
    return seeds


def _layout(payload: bytes):
    """Walk a well-formed payload: its header/length fields and field boundaries.

    Returns ``(fields, boundaries, names)``: ``fields`` lists ``(label, offset,
    struct, value)`` for ``n_sections``, ``meta_len`` and each section's
    ``name_len`` / ``payload_len``; ``boundaries`` every offset where a field,
    the metadata, a name or a section payload ends; ``names`` each section
    name's ``(offset, length)``.
    """
    _, _, n_sections, _ = _HEADER.unpack_from(payload, 0)
    fields = [("n_sections", 5, struct.Struct("<I"), n_sections)]
    boundaries = [4, 5, 9, _HEADER.size]
    offset = _HEADER.size
    (meta_len,) = _U32.unpack_from(payload, offset)
    fields.append(("meta_len", offset, _U32, meta_len))
    offset += _U32.size
    boundaries.append(offset)
    offset += meta_len
    boundaries.append(offset)
    names = []
    for k in range(n_sections):
        name_len, payload_len = _SECTION.unpack_from(payload, offset)
        fields.append((f"name_len[{k}]", offset, struct.Struct("<H"), name_len))
        fields.append((f"payload_len[{k}]", offset + 2, struct.Struct("<Q"), payload_len))
        boundaries += [offset + 2, offset + _SECTION.size]
        offset += _SECTION.size
        names.append((offset, name_len))
        offset += name_len
        boundaries.append(offset)
        offset += payload_len
        boundaries.append(offset)
    assert offset == len(payload)
    return fields, boundaries, names


def _with_crc(data: bytearray) -> bytes:
    """Recompute the body CRC so the parser gets past its integrity check."""
    if len(data) >= _HEADER.size:
        _U32.pack_into(data, 9, zlib.crc32(bytes(data[_HEADER.size :])) & 0xFFFFFFFF)
    return bytes(data)


def _with_metadata(payload: bytes, meta_bytes: bytes) -> bytes:
    """``payload`` with its metadata bytes replaced (length updated)."""
    offset = _HEADER.size
    (meta_len,) = _U32.unpack_from(payload, offset)
    rest = payload[offset + _U32.size + meta_len :]
    return _with_crc(bytearray(payload[:offset]) + _U32.pack(len(meta_bytes)) + meta_bytes + rest)


def _mutations(payload: bytes):
    """Every ``(label, bytes)`` mutant of one well-formed payload."""
    fields, boundaries, names = _layout(payload)
    data = bytearray(payload)
    data[0:4] = b"XFC0"
    yield "magic", _with_crc(data)
    for version in (0, 2, 255):
        data = bytearray(payload)
        data[4] = version
        yield f"version={version}", _with_crc(data)
    for label, offset, fmt, value in fields:
        top = (1 << (8 * fmt.size)) - 1
        for new in sorted({value - 1, value + 1, 0, top} - {value}):
            if 0 <= new <= top:
                data = bytearray(payload)
                fmt.pack_into(data, offset, new)
                yield f"{label}={new}", _with_crc(data)
    for cut in sorted(set(boundaries)):
        if cut < len(payload):
            yield f"truncated@{cut}", _with_crc(bytearray(payload[:cut]))
    for meta in (b"[1, 2]", b'"text"', b"3", b"null", b"true", b"[" * 10_000 + b"]" * 10_000):
        yield f"metadata={meta[:8]!r}", _with_metadata(payload, meta)
    for k, (offset, length) in enumerate(names):
        if length:
            data = bytearray(payload)
            data[offset : offset + length] = b"\xff" * length
            yield f"name[{k}]=invalid-utf8", _with_crc(data)


class TestGoldenMutationCorpus:
    """Each mutant of a golden chunk payload must raise ``ValueError`` and
    nothing else, within 50 ms and 1 MiB of allocation."""

    @pytest.mark.parametrize("payload", _golden_seeds())
    def test_every_mutant_raises_value_error_cheaply(self, payload):
        assert CompressedBlob.from_bytes(payload).sections  # the seed itself parses
        problems = []
        # a collector pause is not the parser's cost: keep it out of the timings
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for label, mutant in _mutations(payload):
                tracemalloc.reset_peak()
                baseline = tracemalloc.get_traced_memory()[0]
                start = time.perf_counter()
                try:
                    CompressedBlob.from_bytes(mutant)
                except ValueError:
                    outcome = None
                except Exception as exc:
                    outcome = f"raised {type(exc).__name__}: {exc}"
                else:
                    outcome = "parsed without error"
                elapsed = time.perf_counter() - start
                allocated = tracemalloc.get_traced_memory()[1] - baseline
                if outcome is None and elapsed >= 0.05:
                    outcome = f"took {elapsed * 1e3:.1f} ms"
                if outcome is None and allocated >= 1 << 20:
                    outcome = f"allocated {allocated} bytes"
                if outcome is not None:
                    problems.append(f"{label}: {outcome}")
        finally:
            tracemalloc.stop()
            gc.enable()
        assert not problems, problems
