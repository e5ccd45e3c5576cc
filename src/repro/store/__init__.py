"""Chunked on-disk archive store for compressed scientific fields.

The ``XFA1`` archive format holds many named fields in one file, each split
into independently compressed chunks with a JSON manifest (per-field dtype,
shape, chunk grid, codec, error bound; per-chunk offsets and CRCs) enabling
O(1) random access — :meth:`~repro.store.reader.ArchiveReader.read_region`
decompresses only the chunks a request intersects.

Archives are also *appendable time series*: ``ArchiveWriter(mode="a")``
reopens an archive and adds fieldsets as timesteps (manifest-v2 timestep
index, one durable flush per step), the ``temporal-delta`` codec stores a
step as an error-bounded residual against its decoded predecessor (anchors
every K steps bound random access in time), and
:meth:`~repro.store.reader.ArchiveReader.read_timestep` /
``read_time_range`` decode along the time axis.

- :mod:`repro.store.codecs` — the codec registry: the SZ baseline, the
  ZFP-like transform coder, the paper's cross-field compressor, an exact
  lossless codec and the temporal-delta wrapper behind one
  :class:`~repro.store.codecs.Codec` interface; new backends plug in via
  :func:`~repro.store.codecs.register_codec`.
- :mod:`repro.store.temporal` — the :class:`TemporalSpec` time-coding policy.
- :mod:`repro.store.bytestore` — the :class:`ByteStore` I/O abstraction
  (file / mmap / in-memory backends) both directions read through.
- :mod:`repro.store.shared_cache` — :class:`SharedChunkCache`, the chunk
  cache every fetch goes through (single-flight decode deduplication;
  private to one reader or shared process-wide).
- :mod:`repro.store.writer` — streaming-append :class:`ArchiveWriter` with
  parallel per-chunk compression, append/reopen mode and
  :meth:`~repro.store.writer.ArchiveWriter.add_timestep`.
- :mod:`repro.store.reader` — random-access :class:`ArchiveReader` with
  CRC re-verification, an LRU decompressed-chunk cache, and crash-recovery
  opens (``recover=True``).
- :mod:`repro.store.cli` — the ``repro`` console script
  (``pack`` / ``unpack`` / ``ls`` / ``extract`` / ``verify`` plus the
  time-stepped ``append`` / ``steps``, the pipeline-driven
  ``run`` / ``compress`` and ``serve``).

The byte-level format is specified in ``docs/xfa1-format.md`` (append
semantics and the manifest log included); the streaming workflow is
documented in ``docs/timeseries.md``; the high-level, config-driven API over
this store lives in :mod:`repro.pipeline`.
"""

from repro.store.bytestore import (
    ByteStore,
    FileByteStore,
    MemoryByteStore,
    MmapByteStore,
    open_bytestore,
)
from repro.store.cache import LRUChunkCache, freeze_chunk
from repro.store.codecs import (
    Codec,
    CrossFieldChunkCodec,
    LosslessChunkCodec,
    SZChunkCodec,
    TemporalDeltaCodec,
    ZFPChunkCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.store.manifest import (
    ArchiveCorruptionError,
    ArchiveError,
    ArchiveManifest,
    ChunkEntry,
    FieldEntry,
    TimestepEntry,
)
from repro.store.reader import ArchiveReader
from repro.store.shared_cache import SharedChunkCache, process_chunk_cache
from repro.store.temporal import TemporalSpec
from repro.store.writer import ArchiveWriter, stored_field_name

__all__ = [
    "ArchiveWriter",
    "ArchiveReader",
    "ByteStore",
    "FileByteStore",
    "MmapByteStore",
    "MemoryByteStore",
    "open_bytestore",
    "SharedChunkCache",
    "process_chunk_cache",
    "freeze_chunk",
    "ArchiveManifest",
    "ChunkEntry",
    "FieldEntry",
    "TimestepEntry",
    "TemporalSpec",
    "stored_field_name",
    "ArchiveError",
    "ArchiveCorruptionError",
    "LRUChunkCache",
    "Codec",
    "SZChunkCodec",
    "ZFPChunkCodec",
    "CrossFieldChunkCodec",
    "LosslessChunkCodec",
    "TemporalDeltaCodec",
    "register_codec",
    "get_codec",
    "available_codecs",
]
