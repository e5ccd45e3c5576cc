"""Byte-level storage backends for XFA1 archives.

A :class:`ByteStore` is the small I/O abstraction the archive reader and
writer stand on: positioned reads (``pread``), a size probe, and deterministic
``close()``.  It decouples "an archive" from "one ``open()`` handle", which is
what lets parallel chunk fetches stop contending on a single seek/read mutex
and lets future adapters (object stores, sharded datasets) slot in without
touching the reader.

Three implementations ship today:

``FileByteStore``
    The classic seek/read path over a regular file handle, protected by a
    per-store lock (seek and read are one critical section).  It can *borrow*
    an externally owned handle — the archive writer does this so its fetcher
    shares the writer's append handle — or own one opened from a path.

``MmapByteStore``
    A read-only ``mmap`` of the file.  ``pread`` is a lock-free slice (the
    kernel's page cache does the work) and ``view`` returns a zero-copy
    ``memoryview``, so concurrent chunk fetches never serialise on a mutex
    and CRC/decode can consume the mapped pages without an intermediate
    copy.  Safe against concurrent appends: appends only ever add bytes
    after the published footer, and recovery truncation only removes bytes
    past it, so every offset a manifest generation names stays mapped.

``MemoryByteStore``
    Bytes-backed, for tests and future remote adapters that download whole
    archives.

:func:`open_bytestore` picks a backend by name (``"auto"`` prefers mmap and
falls back to the file backend when mapping is impossible, e.g. an empty or
special file).

Telemetry: when a recorder is enabled, stores count ``store.io.pread_calls``
/ ``store.io.pread_bytes`` and time ``store.io.pread_seconds`` per positioned
read, and count ``store.io.view_calls`` / ``store.io.view_bytes`` per
zero-copy view.  All of it is skipped entirely when telemetry is off.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import BinaryIO, Optional, Tuple, Union

from repro import obs as _obs

__all__ = [
    "BACKENDS",
    "ByteStore",
    "FileByteStore",
    "MmapByteStore",
    "MemoryByteStore",
    "open_bytestore",
]

PathLike = Union[str, os.PathLike]

#: Recognised backend selectors for :func:`open_bytestore` and the reader.
BACKENDS = ("auto", "file", "mmap")


class ByteStore(ABC):
    """Positioned-read access to an archive's bytes.

    Implementations must make ``pread`` safe to call from multiple threads;
    whether that needs a lock is the backend's business (the file backend
    locks around seek+read, the mmap and memory backends are naturally
    lock-free).
    """

    #: Short backend identifier (``"file"`` / ``"mmap"`` / ``"memory"``).
    name: str = "bytestore"
    #: ``(st_dev, st_ino)`` of the file the store opened, taken by ``fstat`` on
    #: its own descriptor, so it names the bytes the store reads even when
    #: another file is renamed over the path later; ``None`` for memory stores.
    file_id: Optional[Tuple[int, int]] = None

    @abstractmethod
    def pread(self, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset`` (short reads at EOF)."""

    @abstractmethod
    def size(self) -> int:
        """Current size of the underlying byte sequence."""

    @abstractmethod
    def close(self) -> None:
        """Release the backend's resources; must be idempotent."""

    @property
    @abstractmethod
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""

    def view(self, offset: int, length: int):
        """A buffer over ``[offset, offset+length)``; zero-copy where possible.

        The default implementation falls back to :meth:`pread` (a copy).
        Callers that receive a ``memoryview`` must ``release()`` it before the
        store can be closed.
        """
        return self.pread(offset, length)

    def __enter__(self) -> "ByteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _record_pread(started: float, n: int) -> None:
    recorder = _obs.get_recorder()
    if recorder.enabled:
        recorder.observe("store.io.pread_seconds", time.perf_counter() - started)
        recorder.count("store.io.pread_calls")
        recorder.count("store.io.pread_bytes", n)


def _record_view(n: int) -> None:
    recorder = _obs.get_recorder()
    if recorder.enabled:
        recorder.count("store.io.view_calls")
        recorder.count("store.io.view_bytes", n)


class FileByteStore(ByteStore):
    """Seek/read over a regular file handle, one lock per store.

    Exactly one of ``path`` / ``fh`` must be given.  A store opened from a
    path owns its handle and closes it; a store wrapping an existing ``fh``
    borrows it — ``close()`` releases the reference but leaves the handle
    open for its real owner (the archive writer does this with its append
    handle).  ``lock`` is public: the writer serialises its payload writes
    against the fetcher's reads through it.
    """

    name = "file"

    def __init__(self, path: Optional[PathLike] = None, fh: Optional[BinaryIO] = None):
        if (path is None) == (fh is None):
            raise ValueError("FileByteStore needs exactly one of path or fh")
        if path is not None:
            self._fh: Optional[BinaryIO] = open(Path(path), "rb")
            self._owns_fh = True
        else:
            self._fh = fh
            self._owns_fh = False
        stat = os.fstat(self._fh.fileno())
        self.file_id = (stat.st_dev, stat.st_ino)
        self.lock = threading.Lock()

    def pread(self, offset: int, length: int) -> bytes:
        fh = self._fh
        if fh is None:
            raise ValueError("byte store is closed")
        started = time.perf_counter()
        with self.lock:
            fh.seek(offset)
            data = fh.read(length)
        _record_pread(started, len(data))
        return data

    def size(self) -> int:
        fh = self._fh
        if fh is None:
            raise ValueError("byte store is closed")
        with self.lock:
            fh.seek(0, os.SEEK_END)
            return fh.tell()

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None and self._owns_fh:
            fh.close()

    @property
    def closed(self) -> bool:
        return self._fh is None


class MmapByteStore(ByteStore):
    """Read-only memory map: lock-free ``pread``, zero-copy ``view``.

    The file descriptor is closed as soon as the mapping exists (the mapping
    keeps the pages alive).  ``size()`` reports the mapped extent — bytes an
    appender adds after the map was created are invisible, which is exactly
    the generation-consistent snapshot a reader wants.  ``close()`` unmaps
    deterministically; it raises ``BufferError`` if zero-copy views handed
    out by :meth:`view` are still alive, surfacing the leak at the caller.
    """

    name = "mmap"

    def __init__(self, path: PathLike):
        self.path = Path(path)
        fd = os.open(self.path, os.O_RDONLY)
        try:
            stat = os.fstat(fd)
            length = stat.st_size
            if length == 0:
                raise ValueError(f"cannot mmap empty file {self.path}")
            self._mm = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        self.file_id = (stat.st_dev, stat.st_ino)
        self._view = memoryview(self._mm)
        self._closed = False

    def pread(self, offset: int, length: int) -> bytes:
        if self._closed:
            raise ValueError("byte store is closed")
        started = time.perf_counter()
        data = self._mm[offset : offset + length]
        _record_pread(started, len(data))
        return data

    def view(self, offset: int, length: int) -> memoryview:
        if self._closed:
            raise ValueError("byte store is closed")
        _record_view(min(length, max(0, len(self._mm) - offset)))
        return self._view[offset : offset + length]

    def size(self) -> int:
        if self._closed:
            raise ValueError("byte store is closed")
        return len(self._mm)

    def close(self) -> None:
        if self._closed:
            return
        # release our parent view first; mmap.close() then raises BufferError
        # if a caller still holds an exported sub-view (a leak we want loud)
        self._view.release()
        self._mm.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class MemoryByteStore(ByteStore):
    """Bytes-backed store for tests and whole-archive downloads."""

    name = "memory"

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._view: Optional[memoryview] = memoryview(self._data)

    def pread(self, offset: int, length: int) -> bytes:
        if self._view is None:
            raise ValueError("byte store is closed")
        started = time.perf_counter()
        data = self._data[offset : offset + length]
        _record_pread(started, len(data))
        return data

    def view(self, offset: int, length: int) -> memoryview:
        if self._view is None:
            raise ValueError("byte store is closed")
        _record_view(min(length, max(0, len(self._data) - offset)))
        return self._view[offset : offset + length]

    def size(self) -> int:
        if self._view is None:
            raise ValueError("byte store is closed")
        return len(self._data)

    def close(self) -> None:
        view, self._view = self._view, None
        if view is not None:
            view.release()

    @property
    def closed(self) -> bool:
        return self._view is None


def open_bytestore(path: PathLike, backend: str = "auto") -> ByteStore:
    """Open ``path`` for reading with the named backend.

    ``"auto"`` tries the mmap backend and falls back to the file backend when
    mapping fails (empty files, filesystems without mmap support).  Unknown
    names raise ``ValueError`` so a typo fails loudly.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown io backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if backend == "mmap":
        return MmapByteStore(path)
    if backend == "file":
        return FileByteStore(path=path)
    try:
        return MmapByteStore(path)
    except (OSError, ValueError):
        return FileByteStore(path=path)
