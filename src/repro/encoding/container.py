"""Self-describing container for compressed payloads.

A compressed field consists of several heterogeneous sections (JSON metadata,
Huffman table, entropy-coded residuals, outlier values, embedded model
parameters, …).  :class:`CompressedBlob` packs named byte sections into a single
byte string with a magic number, version, and CRC so corruption is detected at
decode time, and the compression-ratio accounting can report exactly how many
bytes each stage contributes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CompressedBlob"]

MAGIC = b"XFC1"  # cross-field compression, container version 1
_HEADER_FMT = "<4sBII"  # magic, version, n_sections, crc32 of the body
_SECTION_HEADER_FMT = "<HQ"  # name length, payload length


@dataclass
class CompressedBlob:
    """Named byte sections plus a JSON-serialisable metadata dictionary."""

    metadata: Dict = field(default_factory=dict)
    sections: Dict[str, bytes] = field(default_factory=dict)

    def add_section(self, name: str, payload: bytes) -> None:
        """Add (or replace) a named byte section."""
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError(f"section {name!r} payload must be bytes-like")
        self.sections[str(name)] = bytes(payload)

    def get_section(self, name: str) -> bytes:
        """Return a section payload by name."""
        if name not in self.sections:
            raise KeyError(f"no section named {name!r}; available: {sorted(self.sections)}")
        return self.sections[name]

    def __contains__(self, name: str) -> bool:
        return name in self.sections

    def section_sizes(self) -> Dict[str, int]:
        """Per-section byte counts (useful for size breakdowns in reports)."""
        sizes = {name: len(payload) for name, payload in self.sections.items()}
        sizes["__metadata__"] = len(self._metadata_bytes())
        return sizes

    @property
    def nbytes(self) -> int:
        """Total serialized size in bytes.

        Computed arithmetically from the header, metadata and section sizes —
        no serialization happens, so querying the size of a multi-gigabyte
        blob is free.  Always equals ``len(self.to_bytes())``.
        """
        total = struct.calcsize(_HEADER_FMT) + 4 + len(self._metadata_bytes())
        section_header = struct.calcsize(_SECTION_HEADER_FMT)
        for name, payload in self.sections.items():
            total += section_header + len(name.encode("utf-8")) + len(payload)
        return total

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def _metadata_bytes(self) -> bytes:
        return json.dumps(self.metadata, sort_keys=True).encode("utf-8")

    def to_bytes(self) -> bytes:
        """Serialize the blob (magic + version + CRC-protected body)."""
        body = bytearray()
        meta_bytes = self._metadata_bytes()
        body += struct.pack("<I", len(meta_bytes))
        body += meta_bytes
        for name, payload in self.sections.items():
            name_bytes = name.encode("utf-8")
            body += struct.pack(_SECTION_HEADER_FMT, len(name_bytes), len(payload))
            body += name_bytes
            body += payload
        crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
        header = struct.pack(_HEADER_FMT, MAGIC, 1, len(self.sections), crc)
        return header + bytes(body)

    @classmethod
    def from_bytes(cls, payload) -> "CompressedBlob":
        """Parse a blob serialized by :meth:`to_bytes`, verifying magic and CRC.

        Accepts any bytes-like object — in particular a ``memoryview`` over a
        memory-mapped archive.  Parsing is zero-copy until the per-section
        extraction: header fields come from ``struct.unpack_from``, the CRC
        runs directly over the buffer, and only each section's final payload
        is materialised as ``bytes``.  Every malformed payload raises
        ``ValueError``.
        """
        header_size = struct.calcsize(_HEADER_FMT)
        if len(payload) < header_size:
            raise ValueError("payload too small to be a compressed blob")
        magic, version, n_sections, crc = struct.unpack_from(_HEADER_FMT, payload, 0)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a cross-field compression container")
        if version != 1:
            raise ValueError(f"unsupported container version {version}")
        # released on the way out, so an error's traceback cannot pin an mmap
        with memoryview(payload)[header_size:] as body:
            if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                raise ValueError("container CRC mismatch: payload is corrupted")
            offset = 0
            if len(body) < 4:
                raise ValueError("container truncated: missing metadata length")
            (meta_len,) = struct.unpack_from("<I", body, offset)
            offset += 4
            if len(body) < offset + meta_len:
                raise ValueError("container truncated: metadata shorter than declared")
            try:
                metadata = json.loads(bytes(body[offset : offset + meta_len]).decode("utf-8"))
            except RecursionError:
                raise ValueError("container metadata nests too deeply") from None
            if not isinstance(metadata, dict):
                raise ValueError(
                    f"container metadata is a JSON {type(metadata).__name__}, not an object"
                )
            offset += meta_len
            section_header = struct.calcsize(_SECTION_HEADER_FMT)
            sections: Dict[str, bytes] = {}
            for _ in range(n_sections):
                if len(body) < offset + section_header:
                    raise ValueError("container truncated: missing section header")
                name_len, payload_len = struct.unpack_from(_SECTION_HEADER_FMT, body, offset)
                offset += section_header
                if len(body) < offset + name_len + payload_len:
                    raise ValueError("container truncated: section shorter than declared")
                name = bytes(body[offset : offset + name_len]).decode("utf-8")
                offset += name_len
                sections[name] = bytes(body[offset : offset + payload_len])
                offset += payload_len
            if offset != len(body):
                raise ValueError(f"container has {len(body) - offset} bytes past its last section")
        return cls(metadata=metadata, sections=sections)
