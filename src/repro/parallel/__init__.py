"""Block-parallel compression and the shared chunk execution engine.

Dual quantization removes the read-after-write dependency from the compression
path (paper Section III-D1), which is what makes it possible to compress
independent blocks of a field concurrently.  This package provides the block
decomposition (:mod:`repro.parallel.blocks`), the shared chunk execution
engine (:mod:`repro.parallel.engine` — thread/process/serial backends,
windowed ordered streaming, unordered collection, per-task error context)
used by both directions of the stack (archive writes *and* reads), and the
block-parallel compressor built on top of it.
"""

from repro.parallel.blocks import BlockSpec, plan_blocks
from repro.parallel.engine import (
    ChunkScheduler,
    ChunkTaskError,
    SCHEDULER_KINDS,
    default_jobs,
)
from repro.parallel.executor import BlockCompressionResult, BlockParallelCompressor

__all__ = [
    "BlockSpec",
    "plan_blocks",
    "ChunkScheduler",
    "ChunkTaskError",
    "SCHEDULER_KINDS",
    "default_jobs",
    "BlockParallelCompressor",
    "BlockCompressionResult",
]
