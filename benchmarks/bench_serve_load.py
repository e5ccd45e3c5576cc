"""Benchmark: HTTP archive-service load — throughput, latency, decode dedup.

Packs a synthetic CESM snapshot into an XFA1 archive, serves it through the
stdlib threaded HTTP frontend (:mod:`repro.serve.http`) over a fresh
:class:`~repro.store.shared_cache.SharedChunkCache`, then slams it with N
concurrent clients that all read the *same* region plus a manifest-ETag
revalidation loop.  Reports

- **requests/sec** and the **p50/p99 latency** of the region requests (wall
  clock per request, measured client-side over real sockets), and
- **shared-cache dedup**: with every client asking for the same region, the
  single-flight cache must decode each chunk of that region exactly once no
  matter how many clients are hammering it — the service's core promise.

Asserts the dedup exactly (total decodes == chunks in the region) and that
conditional requests with a current ETag come back 304 with no body.

Runs standalone (``python benchmarks/bench_serve_load.py [--quick]``) or
under pytest; either way it writes ``BENCH_serve_load.json`` (headline
numbers plus the service's telemetry snapshot) via
:func:`conftest.bench_report`.
"""

import io
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone: make conftest + repro importable
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import bench_report, bench_seed

#: (grid shape, concurrent clients, region requests per client) per scale.
_SCALES = {
    "smoke": ((64, 128), 4, 6),
    "default": ((192, 384), 8, 12),
    "paper": ((512, 1024), 16, 16),
}

_CHUNK = (32, 64)
#: Every client reads this same region — the dedup target.
_REGION = "0:64,0:64"


def _scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    return _SCALES.get(name, _SCALES["default"])


def _build_archive(path):
    from repro.data.synthetic import make_dataset
    from repro.store.writer import ArchiveWriter

    shape, _, _ = _scale()
    fieldset = make_dataset("cesm", shape=shape, seed=bench_seed("serve_load"))
    with ArchiveWriter(path, chunk_shape=_CHUNK) as writer:
        writer.add_field("FLNT", fieldset["FLNT"].data, codec="zfp")
        writer.add_field("LWCF", fieldset["LWCF"].data, codec="zfp")
    return path


def _http_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        # urllib treats every non-2xx — including the 304s this benchmark
        # asserts on — as an exception
        return error.code, error.read(), dict(error.headers)


def run(tmp_dir):
    from repro.serve.http import serve_in_thread
    from repro.serve.service import ArchiveService
    from repro.store.manifest import chunks_intersecting_region, normalize_region
    from repro.store.shared_cache import SharedChunkCache

    tmp_dir = Path(tmp_dir)
    shape, n_clients, per_client = _scale()
    archive = _build_archive(tmp_dir / "load.xfa")

    # a fresh cache, not the process singleton: the dedup numbers below must
    # describe exactly this benchmark's traffic
    service = ArchiveService({"load": archive}, cache=SharedChunkCache())
    server, thread = serve_in_thread(service)
    url = server.url

    try:
        status, _, headers = _http_get(url + "/archives/load/manifest")
        assert status == 200
        etag = headers["ETag"]

        with service.handle("load").reader() as reader:
            entry = reader.manifest["FLNT"]
            region = normalize_region(entry.shape, tuple(
                slice(*map(int, part.split(":"))) for part in _REGION.split(",")
            ))
            region_chunks = len(
                chunks_intersecting_region(entry.shape, entry.chunk_shape, region)
            )

        latencies = []
        failures = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_clients)

        def client():
            local = []
            barrier.wait()
            for _ in range(per_client):
                started = time.perf_counter()
                status, body, _ = _http_get(
                    url + f"/archives/load/fields/FLNT/region?region={_REGION}"
                )
                elapsed = time.perf_counter() - started
                if status != 200:
                    with lock:
                        failures.append(status)
                    continue
                np.load(io.BytesIO(body))  # clients pay the parse too
                local.append(elapsed)
                # revalidate the manifest with the current ETag: must 304
                status, body, _ = _http_get(
                    url + "/archives/load/manifest", {"If-None-Match": etag}
                )
                if status != 304 or body:
                    with lock:
                        failures.append(("etag", status))
            with lock:
                latencies.extend(local)

        threads = [threading.Thread(target=client) for _ in range(n_clients)]
        wall_start = time.perf_counter()
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join()
        wall_seconds = time.perf_counter() - wall_start

        with service.handle("load").reader() as reader:
            stats = reader.cache_stats()
        request_stats = service.request_stats()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        telemetry = service.telemetry.snapshot()
        service.close()

    total_region_requests = n_clients * per_client
    latencies.sort()
    return {
        "shape": shape,
        "clients": n_clients,
        "per_client": per_client,
        "failures": failures,
        "region_requests": total_region_requests,
        "total_requests": int(request_stats.get("http.request.count", 0)),
        "wall_seconds": wall_seconds,
        "requests_per_second": (2 * total_region_requests) / max(wall_seconds, 1e-9),
        "p50_seconds": latencies[len(latencies) // 2] if latencies else 0.0,
        "p99_seconds": latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
        if latencies
        else 0.0,
        "region_chunks": region_chunks,
        "chunks_decoded": int(stats["chunks_decoded"]),
        "shared": service.cache.stats,
        "telemetry": telemetry,
    }


def _report_and_assert(result):
    print("\n=== HTTP archive service under concurrent load ===")
    print(
        f"grid {'x'.join(map(str, result['shape']))}, {result['clients']} clients x "
        f"{result['per_client']} region reads (+1 ETag revalidation each)"
    )
    print(
        f"throughput {result['requests_per_second']:8.1f} req/s over "
        f"{result['wall_seconds'] * 1e3:.1f} ms   "
        f"p50 {result['p50_seconds'] * 1e3:6.2f} ms   "
        f"p99 {result['p99_seconds'] * 1e3:6.2f} ms"
    )
    print(
        f"dedup: {result['region_requests']} requests for a {result['region_chunks']}-chunk "
        f"region -> {result['chunks_decoded']} decodes "
        f"(coalesced {result['shared'].get('coalesced', 0)}, "
        f"hits {result['shared'].get('hits', 0)})"
    )
    assert not result["failures"], f"failed requests: {result['failures'][:5]}"
    # The acceptance criterion: N concurrent clients reading the same region
    # trigger exactly one decode per chunk — single-flight observed over HTTP.
    assert result["chunks_decoded"] == result["region_chunks"], (
        f"expected exactly {result['region_chunks']} decodes for the region, "
        f"saw {result['chunks_decoded']} — shared-cache dedup broken over HTTP"
    )
    headline = {
        key: value
        for key, value in result.items()
        if key not in ("telemetry", "failures", "shared")
    }
    headline["shape"] = list(result["shape"])
    headline["shared"] = {k: int(v) for k, v in result["shared"].items()}
    bench_report("serve_load", headline, telemetry=result["telemetry"])


def test_serve_load(tmp_path):
    _report_and_assert(run(tmp_path))


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-scale run (equivalent to REPRO_BENCH_SCALE=smoke)",
    )
    cli_args = parser.parse_args()
    if cli_args.quick:
        os.environ["REPRO_BENCH_SCALE"] = "smoke"
    with tempfile.TemporaryDirectory() as tmp:
        _report_and_assert(run(tmp))
    print("ok")
