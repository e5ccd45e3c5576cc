"""What the spine measures: workloads, metrics, units, directions, bounds.

This table is the single source of the names.  ``BENCHMARK.json`` at the
repository root is ``benchmark_json()`` written out (``python
benchmarks/spine/spec.py > BENCHMARK.json``); the smoke test asserts the two
agree, and ``run.py`` emits exactly these names.

Every workload reports every end-to-end metric, so each metric is defined in
terms every workload has: an *operation* is one user-visible request (pack a
snapshot, one cold/warm read, one HTTP request).  The workload-specific
figures (``read_zfp_mbps``, ``http_ms_p99``, ``cf_ratio_gain``, ...) ride
along as per-layer metrics, measured in the untraced repetitions of a
``--trace 1`` run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

COMMAND = ["python3", "benchmarks/spine/run.py"]
PATHS = ["benchmarks/spine"]
RUN_SECONDS = 8

#: name -> why the workload exists (one line each).
WORKLOADS: Dict[str, str] = {
    "pack-sz": (
        "write side of the paper's SZ baseline: six CESM fields, three predictors; "
        "Huffman encode and table build do most of the work"
    ),
    "pack-zfp": (
        "grouped ZFP pack: per-significance-group Huffman tables and the batched "
        "forward transform, a different use of the encoding layer than pack-sz"
    ),
    "pack-crossfield": (
        "the paper's contribution: CFNN training and hybrid prediction on hurricane Wf; "
        "nn and core do about 95 % of the work, encoding almost none"
    ),
    "read-cold": (
        "decode direction of every codec through fresh mmap readers, caches doing "
        "nothing, so an encode gain that costs decode shows here"
    ),
    "read-warm": (
        "one long-lived reader: Zipf reads that fit the cache, then a 1 MiB cache "
        "under eviction, where LRU policy decides how much decode happens"
    ),
    "serve-http": (
        "the request path users hit: two keep-alive clients over a real socket, "
        "hot regions, previews, 304 revalidation and never-repeated cold windows"
    ),
}

#: (name, unit, better, bound) — bound is the share by which the median may worsen.
#: On the 2-core sandbox identical code repeats a timing with an interquartile
#: range of 2-13 % of its median on a quiet host and up to 36 % on a busy one
#: (whole runs are fast or slow together, so no estimator inside a run helps),
#: while medians of ten runs agree within 5 % (quiet) to 20 % (busy).
#: The timing bounds are therefore the widest the benchmark contract allows;
#: the two metrics that do repeat (0.3 % and 2 %) keep tight ones.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_mbps", "MB/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p99", "ms", "lower", 0.25),
    ("stored_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better).  ``_s`` metrics are self seconds of the traced
#: repetition; the rest are counts or ratios, or workload-specific figures
#: from the untraced repetitions.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("encoding.huffman_encode_s", "s", "lower"),
    ("encoding.huffman_table_s", "s", "lower"),
    ("encoding.huffman_decode_s", "s", "lower"),
    ("encoding.stream_s", "s", "lower"),
    ("encoding.lossless_s", "s", "lower"),
    ("encoding.container_s", "s", "lower"),
    ("encoding.symbols", "count", "lower"),
    ("encoding.bits_per_symbol", "bits", "lower"),
    ("sz.codec_s", "s", "lower"),
    ("sz.quantize_s", "s", "lower"),
    ("sz.predict_s", "s", "lower"),
    ("sz.wavefront_s", "s", "lower"),
    ("sz.points", "count", "lower"),
    ("zfp.transform_s", "s", "lower"),
    ("zfp.codec_s", "s", "lower"),
    ("zfp.layout_s", "s", "lower"),
    ("zfp.preview_bytes_share", "share", "lower"),
    ("zfp.preview_groups_share", "share", "lower"),
    ("core.train_s", "s", "lower"),
    ("core.infer_s", "s", "lower"),
    ("core.hybrid_s", "s", "lower"),
    ("core.compressor_s", "s", "lower"),
    ("core.model_io_s", "s", "lower"),
    ("core.hybrid_chunk_share", "share", "higher"),
    ("core.model_bytes_share", "share", "lower"),
    ("nn.conv_forward_s", "s", "lower"),
    ("nn.conv_backward_s", "s", "lower"),
    ("nn.trainer_s", "s", "lower"),
    ("nn.conv_calls", "count", "lower"),
    ("parallel.dispatch_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.speedup_j2", "ratio", "higher"),
    ("store.writer_s", "s", "lower"),
    ("store.writer_flush_s", "s", "lower"),
    ("store.writer_bytes", "B", "lower"),
    ("store.codecs_s", "s", "lower"),
    ("store.reader_open_s", "s", "lower"),
    ("store.reader_assemble_s", "s", "lower"),
    ("store.fetch_s", "s", "lower"),
    ("store.bytestore_s", "s", "lower"),
    ("store.bytestore_bytes", "B", "lower"),
    ("store.cache_s", "s", "lower"),
    ("store.cache_hit_ratio", "ratio", "higher"),
    ("store.cache_evictions", "count", "lower"),
    ("store.shared_coalesced", "count", "higher"),
    ("store.decodes_per_chunk_touched", "ratio", "lower"),
    ("serve.http_s", "s", "lower"),
    ("serve.dispatch_s", "s", "lower"),
    ("serve.handler_s", "s", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.bytes_out", "B", "higher"),
    ("serve.not_modified_share", "share", "higher"),
    ("serve.client_s", "s", "lower"),
    ("data.generate_s", "s", "lower"),
    ("harness.check_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    # workload-specific figures, untraced
    ("pack_mbps", "MB/s", "higher"),
    ("cf_ratio_gain", "ratio", "higher"),
    ("read_sz_mbps", "MB/s", "higher"),
    ("read_zfp_mbps", "MB/s", "higher"),
    ("read_cf_mbps", "MB/s", "higher"),
    ("cold_region_ms_p50", "ms", "lower"),
    ("preview_ms_p50", "ms", "lower"),
    ("warm_region_ms_p50", "ms", "lower"),
    ("evict_region_ms_p50", "ms", "lower"),
    ("http_rps", "req/s", "higher"),
    ("http_ms_p50", "ms", "lower"),
    ("http_ms_p99", "ms", "lower"),
    ("error_rate", "share", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict:
    """The ``BENCHMARK.json`` document this table describes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
