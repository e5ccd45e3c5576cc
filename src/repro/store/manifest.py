"""On-disk layout and manifest of the ``XFA1`` chunked archive format.

An archive is a single file holding many named fields, each split into
independently compressed chunks::

    +--------------------+  offset 0
    | header (16 bytes)  |  magic "XFA1", format version, reserved
    +--------------------+
    | chunk payloads     |  codec output, appended in write order
    | ...                |
    +--------------------+  manifest_offset
    | manifest (JSON)    |  fields, chunk grids, offsets, CRCs, codecs
    +--------------------+
    | footer (24 bytes)  |  manifest offset/length/CRC32, magic "XFA1"
    +--------------------+

Random access works footer-first: a reader seeks to the end, locates and
CRC-verifies the JSON manifest, and from then on every chunk of every field is
one ``seek`` + ``read`` away.  Chunk payloads are opaque to this module — the
codec named in the field entry (see :mod:`repro.store.codecs`) produced them.

Appendable archives re-publish the manifest at the end of the file on every
flush (see :meth:`repro.store.writer.ArchiveWriter.flush`); earlier manifests
stay in place as dead bytes, forming a *manifest log* that
:func:`recover_manifest` can scan backwards when the newest footer was lost to
a crash or truncation.

This module owns the byte-level header/footer framing, the manifest
dataclasses (including the versioned timestep index), the shared
footer-first manifest loading, and the chunk-grid arithmetic used to map a
region of interest to the set of intersecting chunks.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.store.bytestore import ByteStore

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "MANIFEST_VERSION",
    "ArchiveError",
    "ArchiveCorruptionError",
    "ChunkEntry",
    "FieldEntry",
    "TimestepEntry",
    "ArchiveManifest",
    "read_manifest",
    "recover_manifest",
    "chunk_grid_counts",
    "chunks_intersecting_region",
    "normalize_region",
    "parse_region",
    "region_plan",
]

MAGIC = b"XFA1"  # cross-field archive, format version 1
FORMAT_VERSION = 1

#: Manifest schema version.  v1: fields only.  v2: adds the ``timesteps``
#: index for appendable time-stepped archives; v1 manifests auto-upgrade to
#: the in-memory v2 form (empty index) on read.
MANIFEST_VERSION = 2

_HEADER_FMT = "<4sB11x"  # magic, version, 11 reserved bytes
_FOOTER_FMT = "<QQI4s"  # manifest offset, manifest length, manifest crc32, magic
HEADER_SIZE = struct.calcsize(_HEADER_FMT)
FOOTER_SIZE = struct.calcsize(_FOOTER_FMT)


class ArchiveError(ValueError):
    """Base error for malformed archives and invalid store requests."""


class ArchiveCorruptionError(ArchiveError):
    """Raised when a CRC check fails or framing bytes are inconsistent."""


# --------------------------------------------------------------------------- #
# header / footer framing
# --------------------------------------------------------------------------- #
def pack_header() -> bytes:
    """Serialize the fixed-size archive header."""
    return struct.pack(_HEADER_FMT, MAGIC, FORMAT_VERSION)


def unpack_header(payload: bytes) -> int:
    """Validate the header bytes and return the format version."""
    if len(payload) < HEADER_SIZE:
        raise ArchiveCorruptionError("file too small to hold an XFA1 header")
    magic, version = struct.unpack_from(_HEADER_FMT, payload, 0)
    if magic != MAGIC:
        raise ArchiveCorruptionError(f"bad magic {magic!r}; not an XFA1 archive")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"unsupported archive format version {version}")
    return int(version)


def pack_footer(manifest_offset: int, manifest_length: int, manifest_crc: int) -> bytes:
    """Serialize the fixed-size archive footer."""
    return struct.pack(_FOOTER_FMT, manifest_offset, manifest_length, manifest_crc, MAGIC)


def unpack_footer(payload: bytes) -> Tuple[int, int, int]:
    """Parse footer bytes into ``(manifest_offset, manifest_length, manifest_crc)``."""
    if len(payload) < FOOTER_SIZE:
        raise ArchiveCorruptionError("file too small to hold an XFA1 footer")
    offset, length, crc, magic = struct.unpack_from(_FOOTER_FMT, payload, len(payload) - FOOTER_SIZE)
    if magic != MAGIC:
        raise ArchiveCorruptionError(
            "bad footer magic: archive is truncated or was not closed cleanly"
        )
    return int(offset), int(length), int(crc)


# --------------------------------------------------------------------------- #
# manifest dataclasses
# --------------------------------------------------------------------------- #
@dataclass
class ChunkEntry:
    """One compressed chunk: its grid position and where its bytes live."""

    index: int
    start: Tuple[int, ...]
    stop: Tuple[int, ...]
    offset: int
    length: int
    crc32: int

    @property
    def slices(self) -> Tuple[slice, ...]:
        """Slices selecting this chunk out of the full field."""
        return tuple(slice(a, b) for a, b in zip(self.start, self.stop))

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the decompressed chunk."""
        return tuple(b - a for a, b in zip(self.start, self.stop))

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "index": int(self.index),
            "start": [int(v) for v in self.start],
            "stop": [int(v) for v in self.stop],
            "offset": int(self.offset),
            "length": int(self.length),
            "crc32": int(self.crc32),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ChunkEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(payload["index"]),
            start=tuple(int(v) for v in payload["start"]),
            stop=tuple(int(v) for v in payload["stop"]),
            offset=int(payload["offset"]),
            length=int(payload["length"]),
            crc32=int(payload["crc32"]),
        )


@dataclass
class FieldEntry:
    """Everything a reader needs to reconstruct (part of) one stored field."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    chunk_shape: Tuple[int, ...]
    codec: str
    codec_params: Dict = field(default_factory=dict)
    anchors: Tuple[str, ...] = ()
    abs_error_bound: Optional[float] = None
    error_bound: Optional[Dict] = None
    original_nbytes: int = 0
    chunks: List[ChunkEntry] = field(default_factory=list)

    @property
    def compressed_nbytes(self) -> int:
        """Total payload bytes across all chunks (manifest overhead excluded)."""
        return sum(c.length for c in self.chunks)

    @property
    def ratio(self) -> float:
        """Compression ratio of this field."""
        compressed = self.compressed_nbytes
        if compressed == 0:
            return float("inf")
        return self.original_nbytes / compressed

    @property
    def grid_counts(self) -> Tuple[int, ...]:
        """Number of chunks along every axis."""
        return chunk_grid_counts(self.shape, self.chunk_shape)

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        payload = {
            "name": self.name,
            "dtype": self.dtype,
            "shape": [int(s) for s in self.shape],
            "chunk_shape": [int(s) for s in self.chunk_shape],
            "codec": self.codec,
            "codec_params": self.codec_params,
            "anchors": list(self.anchors),
            "abs_error_bound": self.abs_error_bound,
            "error_bound": self.error_bound,
            "original_nbytes": int(self.original_nbytes),
            "chunks": [c.to_dict() for c in self.chunks],
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FieldEntry":
        """Inverse of :meth:`to_dict`."""
        try:
            np.dtype(payload["dtype"])
        except TypeError as exc:
            raise ArchiveCorruptionError(
                f"field {payload.get('name')!r}: manifest dtype {payload['dtype']!r} "
                "is not a valid dtype"
            ) from exc
        shape = tuple(int(s) for s in payload["shape"])
        chunk_shape = tuple(int(s) for s in payload["chunk_shape"])
        if any(s <= 0 for s in shape) or any(c <= 0 for c in chunk_shape):
            raise ArchiveCorruptionError(
                f"field {payload.get('name')!r}: manifest shape {shape} / "
                f"chunk_shape {chunk_shape} entries must be positive"
            )
        if len(chunk_shape) != len(shape):
            raise ArchiveCorruptionError(
                f"field {payload.get('name')!r}: chunk_shape rank {len(chunk_shape)} "
                f"does not match shape rank {len(shape)}"
            )
        chunks = [ChunkEntry.from_dict(c) for c in payload.get("chunks", [])]
        # the read path trusts each chunk's start/stop when assembling region
        # output, so a geometrically inconsistent (but CRC-valid) manifest
        # must be rejected here rather than silently yield garbage reads
        counts = chunk_grid_counts(shape, chunk_shape)
        total = int(np.prod(counts))
        if len(chunks) > total:
            raise ArchiveCorruptionError(
                f"field {payload.get('name')!r}: manifest lists {len(chunks)} chunks "
                f"but the chunk grid {counts} holds only {total}"
            )
        # chunk starts in flat (C) order: the product of each axis's starts
        starts = product(*(range(0, s, c) for s, c in zip(shape, chunk_shape)))
        for position, (chunk, start) in enumerate(zip(chunks, starts)):
            stop = tuple(min(a + b, s) for a, b, s in zip(start, chunk_shape, shape))
            if chunk.index != position or chunk.start != start or chunk.stop != stop:
                raise ArchiveCorruptionError(
                    f"field {payload.get('name')!r}: chunk at position {position} has "
                    f"extents {chunk.start}..{chunk.stop} (index {chunk.index}), but the "
                    f"chunk grid implies {start}..{stop} (index {position})"
                )
        return cls(
            name=payload["name"],
            dtype=payload["dtype"],
            shape=shape,
            chunk_shape=chunk_shape,
            codec=payload["codec"],
            codec_params=dict(payload.get("codec_params", {})),
            anchors=tuple(payload.get("anchors", ())),
            abs_error_bound=payload.get("abs_error_bound"),
            error_bound=payload.get("error_bound"),
            original_nbytes=int(payload.get("original_nbytes", 0)),
            chunks=chunks,
        )


@dataclass
class TimestepEntry:
    """One entry of the manifest's timestep index.

    ``fields`` maps each *base* field name of the step to the name the data is
    stored under in the flat field table (the writer uses ``{base}@{step}``).
    ``temporal`` records, per base name, the :class:`~repro.store.temporal.TemporalSpec`
    dict the step was written with (absent for independently coded fields), so
    a later append session can continue the same anchor cadence.
    """

    step: int
    time: Optional[float] = None
    fields: Dict[str, str] = field(default_factory=dict)
    temporal: Dict[str, Dict] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        payload: Dict = {
            "step": int(self.step),
            "time": None if self.time is None else float(self.time),
            "fields": dict(self.fields),
        }
        if self.temporal:
            payload["temporal"] = {name: dict(spec) for name, spec in self.temporal.items()}
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "TimestepEntry":
        """Inverse of :meth:`to_dict`."""
        fields = payload.get("fields")
        if not isinstance(fields, dict) or not fields:
            raise ArchiveCorruptionError(
                f"timestep {payload.get('step')!r}: manifest entry must map at "
                "least one field name to a stored field"
            )
        time = payload.get("time")
        return cls(
            step=int(payload["step"]),
            time=None if time is None else float(time),
            fields={str(k): str(v) for k, v in fields.items()},
            temporal={str(k): dict(v) for k, v in payload.get("temporal", {}).items()},
        )


@dataclass
class ArchiveManifest:
    """Ordered collection of :class:`FieldEntry` plus archive-level metadata.

    ``timesteps`` is the manifest-v2 time axis: an ordered (strictly
    increasing ``step``) list of :class:`TimestepEntry` whose stored names all
    resolve in ``fields``.  Archives without a time axis keep it empty.
    """

    fields: Dict[str, FieldEntry] = field(default_factory=dict)
    attrs: Dict = field(default_factory=dict)
    version: int = MANIFEST_VERSION
    timesteps: List[TimestepEntry] = field(default_factory=list)

    def add(self, entry: FieldEntry) -> None:
        """Register a field entry, rejecting duplicates."""
        if entry.name in self.fields:
            raise ArchiveError(f"duplicate field name {entry.name!r}")
        self.fields[entry.name] = entry

    def add_timestep(self, entry: TimestepEntry) -> None:
        """Append a timestep index entry (monotonic step ids, known fields)."""
        if self.timesteps and entry.step <= self.timesteps[-1].step:
            raise ArchiveError(
                f"timestep ids must be strictly increasing: {entry.step} follows "
                f"{self.timesteps[-1].step}"
            )
        for base, stored in entry.fields.items():
            if stored not in self.fields:
                raise ArchiveError(
                    f"timestep {entry.step}: stored field {stored!r} (for {base!r}) "
                    "is not in the archive"
                )
        self.timesteps.append(entry)

    def timestep(self, step: int) -> TimestepEntry:
        """The timestep index entry for ``step``."""
        for entry in self.timesteps:
            if entry.step == int(step):
                return entry
        raise ArchiveError(
            f"no timestep {step!r} in archive; available: {self.steps}"
        )

    @property
    def steps(self) -> List[int]:
        """Recorded timestep ids, in append order."""
        return [entry.step for entry in self.timesteps]

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def __getitem__(self, name: str) -> FieldEntry:
        if name not in self.fields:
            raise KeyError(f"no field named {name!r}; available: {sorted(self.fields)}")
        return self.fields[name]

    @property
    def names(self) -> List[str]:
        """Field names in write order."""
        return list(self.fields.keys())

    def to_json(self) -> bytes:
        """Serialize to the canonical UTF-8 JSON form stored in the archive."""
        payload = {
            "format": MAGIC.decode("ascii"),
            "version": self.version,
            "attrs": self.attrs,
            "fields": [entry.to_dict() for entry in self.fields.values()],
            "timesteps": [entry.to_dict() for entry in self.timesteps],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes) -> "ArchiveManifest":
        """Parse the JSON produced by :meth:`to_json`.

        Manifest version 1 (written before the timestep index existed) is
        auto-upgraded to the in-memory v2 form with an empty time axis;
        versions newer than :data:`MANIFEST_VERSION` are rejected.
        """
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArchiveCorruptionError(f"manifest is not valid JSON: {exc}") from exc
        if decoded.get("format") != MAGIC.decode("ascii"):
            raise ArchiveCorruptionError("manifest format tag mismatch")
        version = int(decoded.get("version", 1))
        if version > MANIFEST_VERSION:
            raise ArchiveError(
                f"manifest version {version} is newer than this reader "
                f"(supports <= {MANIFEST_VERSION})"
            )
        manifest = cls(version=MANIFEST_VERSION, attrs=dict(decoded.get("attrs", {})))
        for entry in decoded.get("fields", []):
            manifest.add(FieldEntry.from_dict(entry))
        if version >= 2:
            try:
                for entry in decoded.get("timesteps", []):
                    manifest.add_timestep(TimestepEntry.from_dict(entry))
            except (KeyError, TypeError, ValueError) as exc:
                # add_timestep raises ArchiveError (a ValueError) with context;
                # bare struct problems get wrapped so readers see one hierarchy
                if isinstance(exc, ArchiveError):
                    raise
                raise ArchiveCorruptionError(f"malformed timestep index: {exc}") from exc
        return manifest

    def checked_json(self) -> Tuple[bytes, int]:
        """Return ``(json_bytes, crc32)`` ready for the footer."""
        payload = self.to_json()
        return payload, zlib.crc32(payload) & 0xFFFFFFFF


# --------------------------------------------------------------------------- #
# footer-first manifest loading and crash recovery
# --------------------------------------------------------------------------- #
def read_manifest(store: ByteStore) -> Tuple["ArchiveManifest", int, int]:
    """Load the newest manifest of an archive, footer-first.

    ``store`` is a :class:`~repro.store.bytestore.ByteStore` over the
    archive (wrap a file handle in ``FileByteStore(fh=fh)``).  Returns
    ``(manifest, manifest_offset, published_end)`` where
    ``published_end`` is the file offset one past the footer (== file size for
    a cleanly closed archive).  Raises :class:`ArchiveCorruptionError` when
    the framing or CRCs are inconsistent — e.g. an append session crashed
    after writing payload bytes but before its flush completed, leaving the
    last *published* footer buried mid-file (see :func:`recover_manifest`).
    """
    file_size = store.size()
    if file_size < HEADER_SIZE + FOOTER_SIZE:
        raise ArchiveCorruptionError("file too small to be an XFA1 archive")
    unpack_header(store.pread(0, HEADER_SIZE))
    offset, length, crc = unpack_footer(store.pread(file_size - FOOTER_SIZE, FOOTER_SIZE))
    if offset + length > file_size - FOOTER_SIZE:
        raise ArchiveCorruptionError("footer points past the end of the file")
    manifest_bytes = store.pread(offset, length)
    if (zlib.crc32(manifest_bytes) & 0xFFFFFFFF) != crc:
        raise ArchiveCorruptionError("manifest CRC mismatch: archive is corrupted")
    return ArchiveManifest.from_json(manifest_bytes), offset, file_size


_RECOVERY_WINDOW = 1 << 20  # scan the tail in 1 MiB blocks


def recover_manifest(store: ByteStore) -> Tuple["ArchiveManifest", int]:
    """Find the newest *valid* manifest by scanning the file backwards.

    ``store`` is a :class:`~repro.store.bytestore.ByteStore` over the
    archive.  Every flush of an append session leaves a ``manifest +
    footer`` pair in the file; only the newest one is reachable
    footer-first.  When the tail was lost (crash mid-append, truncated copy),
    this scans backwards for footer magic candidates, validates each (footer
    immediately follows its manifest, CRC matches, JSON parses) and returns
    the first survivor as ``(manifest, published_end)`` — everything the
    archive had fully flushed at that point.  ``published_end`` is the offset
    one past the recovered footer; callers resuming an append truncate to it.

    Raises :class:`ArchiveCorruptionError` when no valid manifest exists
    anywhere in the file (including a bad header).
    """
    file_size = store.size()
    if file_size < HEADER_SIZE + FOOTER_SIZE:
        raise ArchiveCorruptionError("file too small to be an XFA1 archive")
    unpack_header(store.pread(0, HEADER_SIZE))

    def try_candidate(footer_end: int) -> Optional[Tuple["ArchiveManifest", int]]:
        footer_start = footer_end - FOOTER_SIZE
        if footer_start < HEADER_SIZE:
            return None
        try:
            offset, length, crc = unpack_footer(store.pread(footer_start, FOOTER_SIZE))
        except ArchiveError:
            return None
        # the writer always places a footer immediately after its manifest;
        # enforcing that here rejects payload bytes that merely contain magic
        if offset < HEADER_SIZE or offset + length != footer_start:
            return None
        manifest_bytes = store.pread(offset, length)
        if (zlib.crc32(manifest_bytes) & 0xFFFFFFFF) != crc:
            return None
        try:
            manifest = ArchiveManifest.from_json(manifest_bytes)
        except ArchiveError:
            return None
        return manifest, footer_end

    magic_len = len(MAGIC)
    high = file_size
    while high > HEADER_SIZE:
        low = max(HEADER_SIZE, high - _RECOVERY_WINDOW)
        # overlap the next block by magic_len-1 bytes so a magic string
        # straddling the block boundary is still found
        window = store.pread(low, min(high + magic_len - 1, file_size) - low)
        search_end = len(window)
        while True:
            found = window.rfind(MAGIC, 0, search_end)
            if found < 0:
                break
            search_end = found + magic_len - 1
            recovered = try_candidate(low + found + magic_len)
            if recovered is not None:
                return recovered
        high = low
    raise ArchiveCorruptionError(
        "no valid manifest found anywhere in the file: archive is corrupted "
        "beyond recovery"
    )


# --------------------------------------------------------------------------- #
# chunk-grid arithmetic
# --------------------------------------------------------------------------- #
def chunk_grid_counts(shape: Sequence[int], chunk_shape: Sequence[int]) -> Tuple[int, ...]:
    """Number of chunks along every axis when tiling ``shape`` with ``chunk_shape``."""
    return tuple(-(-int(s) // int(c)) for s, c in zip(shape, chunk_shape))


def parse_region(text: str) -> Tuple[slice, ...]:
    """Parse a region string like ``"0:10,5:20"`` / ``"3,:,40:80"`` into slices.

    Every comma-separated token is either ``start:stop`` (half-open, either
    side may be empty), a bare integer (single index, axis kept), or ``:``
    (full axis).
    """
    region: List = []
    for token in text.split(","):
        token = token.strip()
        if token == ":" or token == "":
            region.append(slice(None))
        elif ":" in token:
            parts = token.split(":")
            if len(parts) != 2:
                raise ValueError(
                    f"region token {token!r} must be start:stop (step is not supported; "
                    "chunked reads materialise contiguous spans)"
                )
            lo = int(parts[0]) if parts[0].strip() else None
            hi = int(parts[1]) if parts[1].strip() else None
            region.append(slice(lo, hi))
        else:
            region.append(int(token))
    return tuple(region)


def normalize_region(shape: Sequence[int], region) -> Tuple[slice, ...]:
    """Normalise a region-of-interest into full-rank, bounded, positive slices.

    ``region`` may be a single slice/int, a tuple mixing slices and ints
    (``data[3, 10:20]`` style), or ``None``/``Ellipsis`` for the whole field.
    Integers select the single-element slice (the axis is kept, matching the
    behaviour needed to reassemble chunk overlaps); steps other than 1 are
    rejected because chunked reads materialise contiguous spans.
    """
    shape = tuple(int(s) for s in shape)
    if region is None or region is Ellipsis:
        return tuple(slice(0, s) for s in shape)
    if not isinstance(region, tuple):
        region = (region,)
    if len(region) > len(shape):
        raise ArchiveError(f"region rank {len(region)} exceeds field rank {len(shape)}")
    out: List[slice] = []
    for axis, size in enumerate(shape):
        if axis >= len(region):
            out.append(slice(0, size))
            continue
        item = region[axis]
        if isinstance(item, (int, np.integer)):
            idx = int(item)
            if idx < 0:
                idx += size
            if not 0 <= idx < size:
                raise ArchiveError(f"index {item} out of bounds for axis {axis} with size {size}")
            out.append(slice(idx, idx + 1))
            continue
        if not isinstance(item, slice):
            raise ArchiveError(f"region entries must be slices or ints, got {type(item).__name__}")
        if item.step not in (None, 1):
            raise ArchiveError("region slices must have step 1")
        try:
            start, stop, _ = item.indices(size)
        except TypeError:
            # slice.indices leaks a bare TypeError for non-integer bounds
            # (slice(0.5, 3.5)); keep the error typed for callers that map
            # region problems to HTTP statuses
            raise ArchiveError(
                f"region slice bounds must be integers, got {item!r} on axis {axis}"
            ) from None
        if stop <= start:
            raise ArchiveError(f"empty region on axis {axis}: {item}")
        out.append(slice(start, stop))
    return tuple(out)


def region_plan(
    shape: Sequence[int], chunk_shape: Sequence[int], region: Tuple[slice, ...]
) -> List[Tuple[int, Tuple[slice, ...], Tuple[slice, ...]]]:
    """``(flat index, dest slices, src slices)`` of every chunk intersecting ``region``.

    ``dest`` selects the overlap in the region-shaped output, ``src`` in the
    chunk.  Each axis's chunk range and slices come from integer division once;
    the plan is their product in flat (C) order, taken without per-chunk Python.
    """
    counts = chunk_grid_counts(shape, chunk_shape)
    axes = []
    stride = 1
    for sl, size, count in reversed(list(zip(region, chunk_shape, counts))):
        steps = []
        for c in range(sl.start // size, min((sl.stop - 1) // size, count - 1) + 1):
            c0 = c * size
            lo, hi = max(sl.start, c0), min(sl.stop, c0 + size)
            steps.append((c * stride, slice(lo - sl.start, hi - sl.start), slice(lo - c0, hi - c0)))
        axes.append(steps)
        stride *= count
    flats, dests, srcs = zip(*(zip(*steps) for steps in reversed(axes)))
    return list(zip(map(sum, product(*flats)), product(*dests), product(*srcs)))


def chunks_intersecting_region(
    shape: Sequence[int], chunk_shape: Sequence[int], region: Tuple[slice, ...]
) -> List[int]:
    """Flat indices of the chunks that intersect ``region`` (see :func:`region_plan`)."""
    return [index for index, _, _ in region_plan(shape, chunk_shape, region)]
