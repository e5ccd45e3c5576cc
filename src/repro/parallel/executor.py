"""Thread-pool block-parallel compression executor.

Each block is an independent compression problem (dual quantization removes the
cross-point dependency inside the compressor, and blocks share no state), so
blocks can be handed to a pool of workers.  The error bound is resolved *once*
on the full array and applied as an absolute bound to every block, so the
block-parallel result satisfies exactly the same per-point guarantee as the
single-shot compressor.

Threads (rather than processes) are the default because the heavy lifting —
NumPy ufuncs and zlib — releases the GIL; a process pool can be requested for
workloads dominated by pure-Python stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.slicing import reassemble_blocks
from repro.encoding.container import CompressedBlob
from repro.parallel.blocks import BlockSpec, plan_blocks
from repro.parallel.engine import ChunkScheduler
from repro.sz.errors import ErrorBound
from repro.sz.pipeline import CompressionResult, SZCompressor
from repro.utils.validation import ensure_array, ensure_in

__all__ = ["BlockCompressionResult", "BlockParallelCompressor"]

#: Kinds the block compressor accepts.  The shared engine additionally offers
#: ``"process"``, but the per-block closures here capture the full input array
#: and are deliberately not picklable, so it is not exposed at this level.
EXECUTOR_KINDS = ("thread", "serial")


@dataclass
class BlockCompressionResult:
    """Aggregate result of a block-parallel compression."""

    payload: bytes
    original_nbytes: int
    compressed_nbytes: int
    abs_error_bound: float
    n_blocks: int
    element_count: int = 0
    block_results: List[CompressionResult] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        """Compression ratio of the aggregated payload."""
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes

    @property
    def bit_rate(self) -> float:
        """Average compressed bits per value.

        Uses the stored element count; results built before the count existed
        (``element_count == 0``) fall back to assuming 4-byte elements.
        """
        element_count = self.element_count or (self.original_nbytes // 4)
        if element_count == 0:
            return 0.0
        return 8.0 * self.compressed_nbytes / element_count


class BlockParallelCompressor:
    """Compress a field block-by-block with a worker pool.

    Parameters
    ----------
    compressor:
        The per-block compressor; defaults to the baseline
        :class:`~repro.sz.pipeline.SZCompressor` with the Lorenzo predictor.
    block_shape:
        Block tile size; defaults to 64 along every axis.
    max_workers:
        Worker count for the pool (``None`` lets the executor decide).
    executor_kind:
        ``"thread"`` (default) or ``"serial"`` (in-process loop, useful for
        debugging and as the reference in speedup measurements).
    """

    format_name = "sz-block-parallel"

    def __init__(
        self,
        compressor: Optional[SZCompressor] = None,
        block_shape: Optional[Sequence[int]] = None,
        max_workers: Optional[int] = None,
        executor_kind: str = "thread",
    ) -> None:
        ensure_in(executor_kind, EXECUTOR_KINDS, "executor_kind")
        self.compressor = compressor if compressor is not None else SZCompressor()
        self.block_shape = block_shape
        self.max_workers = max_workers
        self.executor_kind = executor_kind

    # ------------------------------------------------------------------ #
    def _resolve_block_shape(self, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.block_shape is None:
            return tuple(min(64, s) for s in shape)
        block_shape = tuple(int(b) for b in self.block_shape)
        if len(block_shape) != len(shape):
            raise ValueError("block_shape rank must match data rank")
        return block_shape

    def _map(self, func, items):
        # the engine is the orchestration body; this class only plans blocks
        # and aggregates results
        return ChunkScheduler(jobs=self.max_workers, executor_kind=self.executor_kind).map(func, items)

    # ------------------------------------------------------------------ #
    def compress(self, data: np.ndarray, field_name: str = "") -> BlockCompressionResult:
        """Compress ``data`` block-parallel and return the aggregated result."""
        data = ensure_array(data, "data")
        block_shape = self._resolve_block_shape(data.shape)
        blocks = plan_blocks(data.shape, block_shape)

        # Resolve the error bound once over the whole array so every block uses
        # the identical absolute bound (a per-block relative bound would change
        # the semantics relative to the single-shot compressor).
        abs_eb = self.compressor.error_bound.resolve(data)
        block_compressor = SZCompressor(
            error_bound=ErrorBound.absolute(abs_eb),
            predictor=self.compressor.predictor,
            entropy=self.compressor.entropy,
            backend=self.compressor.backend,
            quant_radius=self.compressor.quant_radius,
        )

        def compress_block(spec: BlockSpec) -> CompressionResult:
            return block_compressor.compress(spec.extract(data), field_name=f"{field_name}#{spec.index}")

        block_results = self._map(compress_block, blocks)

        blob = CompressedBlob(
            metadata={
                "format": self.format_name,
                "field_name": field_name,
                "shape": list(data.shape),
                "dtype": str(data.dtype),
                "abs_error_bound": abs_eb,
                "block_shape": list(block_shape),
                "blocks": [spec.to_dict() for spec in blocks],
            }
        )
        for spec, result in zip(blocks, block_results):
            blob.add_section(f"block.{spec.index}", result.payload)
        payload = blob.to_bytes()
        return BlockCompressionResult(
            payload=payload,
            original_nbytes=int(data.nbytes),
            compressed_nbytes=len(payload),
            abs_error_bound=abs_eb,
            n_blocks=len(blocks),
            element_count=int(data.size),
            block_results=block_results,
        )

    def decompress(self, payload: bytes) -> np.ndarray:
        """Decompress a payload produced by :meth:`compress` (also block-parallel)."""
        blob = CompressedBlob.from_bytes(payload)
        metadata = blob.metadata
        if metadata.get("format") != self.format_name:
            raise ValueError(
                f"payload format {metadata.get('format')!r} is not {self.format_name!r}"
            )
        shape = tuple(metadata["shape"])
        dtype = np.dtype(metadata["dtype"])
        block_shape = tuple(metadata["block_shape"])
        specs = [BlockSpec.from_dict(entry) for entry in metadata["blocks"]]
        decoder = SZCompressor(
            error_bound=ErrorBound.absolute(float(metadata["abs_error_bound"])),
            predictor=self.compressor.predictor,
            entropy=self.compressor.entropy,
            backend=self.compressor.backend,
            quant_radius=self.compressor.quant_radius,
        )

        def decompress_block(spec: BlockSpec) -> np.ndarray:
            return decoder.decompress(blob.get_section(f"block.{spec.index}"))

        block_arrays = self._map(decompress_block, specs)
        out = np.empty(shape, dtype=dtype)
        for spec, block in zip(specs, block_arrays):
            out[spec.slices] = block
        return out
