"""The shared chunk execution engine.

Dual quantization removes the read-after-write dependency from the compression
path (paper Section III-D1), which is what lets independent chunks of a field
compress concurrently.  :mod:`repro.parallel.engine` runs those chunk tasks —
a thread pool (or the serial loop at ``jobs=1``), windowed ordered streaming,
unordered collection, per-task error context — for both directions of the
stack: the archive writer's per-chunk compression and the reader's per-chunk
decodes.  The chunk grid itself comes from :func:`repro.data.slicing.iter_blocks`.
"""

from repro.parallel.engine import ChunkScheduler, ChunkTaskError, default_jobs

__all__ = ["ChunkScheduler", "ChunkTaskError", "default_jobs"]
