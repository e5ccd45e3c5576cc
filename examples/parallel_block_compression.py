#!/usr/bin/env python
"""Chunked parallel compression of a large 2D field (dual-quantization payoff).

Dual quantization removes the read-after-write dependency from the compression
path, so independent chunks can be compressed concurrently.  This example
compares single-shot compression of a CESM-like field with chunked archive
packs through :class:`repro.pipeline.CompressionPipeline`, run serially
(``jobs=1``) and on four worker threads (``jobs=4``), and verifies all three
satisfy the same error bound.

Run with:  python examples/parallel_block_compression.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import make_dataset
from repro.experiments.report import format_table
from repro.pipeline import CompressionPipeline, PipelineConfig
from repro.store import ArchiveReader
from repro.sz import ErrorBound, SZCompressor


def main() -> None:
    dataset = make_dataset("cesm", shape=(512, 1024), seed=1)
    data = dataset["FLNT"].data.astype(np.float64)
    rows = []

    start = time.perf_counter()
    single = SZCompressor(error_bound=ErrorBound.relative(1e-3))
    single_result = single.compress(dataset["FLNT"].data)
    single_recon = single.decompress(single_result.payload)
    rows.append(("single-shot", single_result.ratio, time.perf_counter() - start, 1))
    assert np.max(np.abs(single_recon - data)) <= single_result.abs_error_bound

    with tempfile.TemporaryDirectory() as tmp:
        for jobs in (1, 4):
            path = Path(tmp) / f"jobs{jobs}.xfa"
            config = PipelineConfig(error_bound=1e-3, chunk_shape=(128, 128), jobs=jobs)
            start = time.perf_counter()
            result = CompressionPipeline(config).compress(dataset, path, fields=["FLNT"])
            elapsed = time.perf_counter() - start
            with ArchiveReader(path) as reader:
                entry = reader.field("FLNT")
                max_error = np.max(np.abs(reader.read_field("FLNT") - data))
            assert max_error <= entry.abs_error_bound, "chunked result violated the error bound"
            # the bound was resolved once on the full field: same as single-shot
            assert entry.abs_error_bound == single_result.abs_error_bound
            rows.append((f"chunks (jobs={jobs})", result.ratio, elapsed, len(entry.chunks)))

    print(format_table(["Configuration", "Ratio", "Compress seconds", "Chunks"], rows))
    print("\nall configurations satisfy the same per-point error bound; chunking trades a")
    print("small ratio overhead (per-chunk headers and tables) for parallel execution.")


if __name__ == "__main__":
    main()
