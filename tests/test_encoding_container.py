"""Unit tests for the compressed-payload container format."""

import pytest

from repro.encoding.container import CompressedBlob


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

