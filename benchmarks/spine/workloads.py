"""The six spine workloads.

Each workload builds its inputs from the seed (``setup``), runs identical
closed-loop repetitions (``repetition``) whose operations it times one by one,
checks every output it can, and in ``finish`` verifies what only needs
checking once and enforces its *validity guards*: a workload whose traffic
missed the layer it exists for fails (``GuardError``) rather than reporting a
number about something else.

Everything runs ``jobs=1`` / serial unless stated, so the numbers measure the
program and not the scheduler.  Only ``repro``'s public API is used.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import pickle
import select
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import make_dataset
from repro.encoding.container import CompressedBlob
from repro.serve import ArchiveService
from repro.serve.http import serve_in_thread
from repro.store import ArchiveReader, ArchiveWriter, SharedChunkCache
from repro.store.manifest import chunks_intersecting_region

__all__ = ["GuardError", "Rep", "Workload", "WORKLOAD_CLASSES", "percentile"]

MIB = 1024 * 1024
#: Generator seed of the one synthetic snapshot every run works on.
BASE_SEED = 727
Region = Tuple[slice, ...]


class GuardError(RuntimeError):
    """The workload's traffic missed the layer it was built to exercise."""


class NullTracer:
    """Stands in for :class:`trace.Tracer` in untraced repetitions."""

    def set_request(self, rid) -> None:
        pass

    def span(self, name: str, metric: str):
        return contextlib.nullcontext()


@dataclass
class Rep:
    """One repetition: its timed operations and workload-specific figures."""

    busy_s: float  #: seconds the operations took (checks excluded)
    raw_bytes: int  #: uncompressed bytes packed / returned / served
    op_ms: List[float]  #: one latency per operation
    extra: Dict[str, float] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def within_bound(original: np.ndarray, decoded: np.ndarray, abs_bound: float) -> bool:
    """``max|x - x_hat| <= bound``, with the tests' half-ulp float32 cast slack."""
    slack = float(np.spacing(np.float32(np.max(np.abs(original))))) / 2
    error = np.max(np.abs(decoded.astype(np.float64) - original.astype(np.float64)))
    return bool(error <= abs_bound * (1 + 1e-9) + slack)


def random_window(rng, shape: Sequence[int], size: int) -> Region:
    """A ``size``-wide square window somewhere inside ``shape``."""
    corner = [int(rng.integers(0, n - size + 1)) for n in shape]
    return tuple(slice(c, c + size) for c in corner)


def zipf_draws(rng, n_items: int, n_draws: int, exponent: float = 1.1) -> np.ndarray:
    """``n_draws`` item indices with probability proportional to ``rank ** -exponent``."""
    weights = np.arange(1, n_items + 1, dtype=np.float64) ** -exponent
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())


def region_query(region: Region) -> str:
    return ",".join(f"{sl.start}:{sl.stop}" for sl in region)


def chunk_payload(path: Path, reader: ArchiveReader, name: str, index: int) -> bytes:
    """One chunk's stored bytes, located through the public manifest."""
    chunk = reader.field(name).chunks[index]
    with open(path, "rb") as fh:
        fh.seek(chunk.offset)
        return fh.read(chunk.length)


def hybrid_shares(path: Path, name: str) -> Tuple[float, float]:
    """``(share of chunks stored in hybrid mode, model bytes / payload bytes)``."""
    with ArchiveReader(path, jobs=1) as reader:
        payloads = [
            chunk_payload(path, reader, name, i) for i in range(len(reader.field(name).chunks))
        ]
    blobs = [CompressedBlob.from_bytes(payload) for payload in payloads]
    hybrid = sum(blob.metadata.get("mode") == "hybrid" for blob in blobs)
    model = sum(blob.section_sizes().get("model.cfnn", 0) for blob in blobs)
    return hybrid / len(blobs), model / sum(len(payload) for payload in payloads)


class Workload:
    """Common bookkeeping: seeded inputs, check tallies, scale parameters."""

    name = ""
    #: run one discarded repetition first (plan caches, lazy imports)
    warmup = True
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 3
    #: repetitions run even when the first alone outlasts ``--seconds``
    min_reps = 1
    FULL: Dict = {}
    SMOKE: Dict = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.p = {**self.FULL, **(self.SMOKE if smoke else {})}
        self.tracer = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.generate_s = 0.0
        self.directory: Optional[Path] = None

    def check(self, ok: bool, message: str) -> None:
        """Count one verified output; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(message)

    def rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(label.encode())])

    def dataset(self, kind: str, shape: Sequence[int], names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Fields ``names`` of the base snapshot, moved by the seed.

        Every seed sees the same synthetic snapshot (generator seed
        :data:`BASE_SEED`) displaced by seed-dependent offsets: the periodic
        CESM and SCALE grids are rolled along their two horizontal axes, the
        hurricane (a vortex, not periodic) is mirrored.  Inputs differ from
        seed to seed — chunk contents, alignment, every request schedule —
        but their statistics do not, so neither ``stored_ratio`` nor the
        timings depend on which seeds a comparison happens to draw.
        """
        start = time.perf_counter()
        fieldset = make_dataset(kind, shape=tuple(shape), seed=BASE_SEED)
        rng = self.rng(f"data-{kind}")
        if kind == "hurricane":
            mirrored = [axis for axis in (1, 2) if rng.integers(2)]
            arrays = {name: np.flip(fieldset[name].data, axis=mirrored) for name in names}
        else:
            shift = tuple(int(rng.integers(n)) for n in shape[-2:])
            arrays = {name: np.roll(fieldset[name].data, shift, axis=(-2, -1)) for name in names}
        arrays = {name: np.ascontiguousarray(array) for name, array in arrays.items()}
        self.generate_s += time.perf_counter() - start
        return arrays

    def writer(self, path: Path, chunk_shape: Sequence[int]) -> ArchiveWriter:
        return ArchiveWriter(path, chunk_shape=chunk_shape, max_workers=1, executor_kind="serial")

    # the runner's protocol -------------------------------------------- #
    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Undo one ``setup`` (close readers, stop servers)."""

    def trace_hooks(self, tracer) -> None:
        """Entry points that only exist once the workload is set up."""

    def repetition(self) -> Rep:
        raise NotImplementedError

    def guard(self, extra: Dict[str, float]) -> None:
        """Raise :class:`GuardError` if the repetitions' figures show missed traffic."""

    def finish(self, traced: bool) -> Dict[str, float]:
        """Once-only checks and guards; returns run-level figures."""
        raise NotImplementedError

    def check_bounds(self, decoded: Dict[str, np.ndarray], reader: ArchiveReader) -> None:
        """Every full read in ``decoded`` honours its field's absolute error bound."""
        for name, array in decoded.items():
            self.check(
                within_bound(self.originals[name], array, reader.field(name).abs_error_bound),
                f"{name}: error bound violated",
            )

    def stored_ratio(self) -> float:
        """Raw bytes of the workload's fields over the bytes of its archive."""
        return sum(a.nbytes for a in self.originals.values()) / self.path.stat().st_size


# --------------------------------------------------------------------------- #
# pack-*
# --------------------------------------------------------------------------- #
class _Pack(Workload):
    """Pack a snapshot ``ArchiveWriter`` open to ``close()``; one operation per repetition."""

    #: [(field name, data, add_field keyword arguments)]
    fields: List[Tuple[str, np.ndarray, Dict]]
    chunk_shape: Tuple[int, ...]

    def plan(self) -> None:
        raise NotImplementedError

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.path = directory / f"{self.name}.xfa"
        self.digest: Optional[int] = None
        self.plan()
        self.originals = {name: data for name, data, _ in self.fields}

    def repetition(self) -> Rep:
        self.tracer.set_request(0)
        start = time.perf_counter()
        with self.writer(self.path, self.chunk_shape) as writer:
            for name, data, params in self.fields:
                writer.add_field(name, data, **params)
        busy = time.perf_counter() - start
        with self.tracer.span("harness.check", "harness.check_s"):
            digest = zlib.crc32(self.path.read_bytes())
            if self.digest is None:
                self.digest = digest
            self.check(digest == self.digest, "repeated pack produced different bytes")
        raw = sum(data.nbytes for _, data, _ in self.fields)
        return Rep(busy, raw, [busy * 1e3], {"pack_mbps": raw / busy / 1e6})

    def finish(self, traced: bool) -> Dict[str, float]:
        rng = self.rng("verify")
        with ArchiveReader(self.path, jobs=1) as reader:
            decoded = {name: reader.read_field(name) for name in self.originals}
            self.check_bounds(decoded, reader)
            for name, array in decoded.items():
                window = random_window(rng, array.shape, min(array.shape) // 2)
                self.check(
                    np.array_equal(reader.read_region(name, window), array[window]),
                    f"{name}: region read differs from the slice of the full read",
                )
        return {
            "stored_ratio": self.stored_ratio(),
            "store.writer_bytes": float(self.path.stat().st_size),
        }


class PackSZ(_Pack):
    name = "pack-sz"
    FULL = {"shape": (512, 1024), "chunk": (64, 64)}
    SMOKE = {"shape": (128, 256), "chunk": (32, 32)}

    def plan(self) -> None:
        names = ("FLNT", "FLNTC", "LWCF", "FLUT", "CLDTOT", "CLDLOW")
        cesm = self.dataset("cesm", self.p["shape"], names)
        self.chunk_shape = self.p["chunk"]
        predictors = {"CLDTOT": "interpolation", "CLDLOW": "regression"}
        self.fields = [
            (name, cesm[name], {"codec": "sz", "predictor": predictors.get(name, "lorenzo")})
            for name in names
        ]


class PackZFP(_Pack):
    name = "pack-zfp"
    FULL = {"shape": (512, 1024), "chunk": (64, 64), "scale": (32, 64, 64), "scale_chunk": (16, 32, 32)}
    SMOKE = {"shape": (128, 256), "chunk": (32, 32), "scale": (8, 32, 32), "scale_chunk": (8, 16, 16)}

    def plan(self) -> None:
        cesm = self.dataset("cesm", self.p["shape"], ("FLNT", "LWCF"))
        scale = self.dataset("scale", self.p["scale"], ("T",))
        self.chunk_shape = self.p["chunk"]
        zfp = {"codec": "zfp", "layout": "grouped"}
        self.fields = [
            ("FLNT", cesm["FLNT"], zfp),
            ("LWCF", cesm["LWCF"], zfp),
            ("T", scale["T"], {**zfp, "chunk_shape": self.p["scale_chunk"]}),
        ]


#: The store's default cross-field parameters (epochs=4, n_patches=32) fall
#: back to plain Lorenzo on every chunk tried; these make the hybrid win on Wf.
HYBRID_PARAMS = {"epochs": 6, "n_patches": 48}


class PackCrossField(_Pack):
    name = "pack-crossfield"
    # One repetition is ~7 s of CFNN training and the first, which grows the
    # heap, is ~10 % slower: no discarded warm-up, but always three, so the
    # median is a steady-state repetition whatever --seconds says.
    warmup = False
    min_reps = 3
    setup_repeats = 5  # set-up is 50 ms of data generation; more samples, steadier median
    FULL = {"shape": (16, 64, 64), **HYBRID_PARAMS}
    SMOKE = {"shape": (8, 32, 32), "epochs": 1, "n_patches": 8, "allow_fallback": False}

    anchors = ("Uf", "Vf", "Pf")

    def plan(self) -> None:
        hurricane = self.dataset("hurricane", self.p["shape"], self.anchors + ("Wf",))
        self.chunk_shape = self.p["shape"]  # one chunk: one CFNN per field
        training = {k: v for k, v in self.p.items() if k != "shape"}
        self.fields = [(name, hurricane[name], {"codec": "sz"}) for name in self.anchors]
        self.fields.append(
            ("Wf", hurricane["Wf"], {"codec": "cross-field", "anchors": self.anchors, **training})
        )

    def finish(self, traced: bool) -> Dict[str, float]:
        figures = super().finish(traced)
        target = self.fields[-1][1]
        baseline = self.directory / "wf-sz.xfa"
        with self.writer(baseline, self.chunk_shape) as writer:
            sz_entry = writer.add_field("Wf", target, codec="sz")
        with ArchiveReader(self.path, jobs=1) as reader:
            cf_bytes = sum(chunk.length for chunk in reader.field("Wf").chunks)
        figures["cf_ratio_gain"] = sum(chunk.length for chunk in sz_entry.chunks) / cf_bytes
        hybrid, model = hybrid_shares(self.path, "Wf")
        figures["core.hybrid_chunk_share"] = hybrid
        figures["core.model_bytes_share"] = model
        if hybrid < 0.5:
            raise GuardError(
                f"pack-crossfield: hybrid_chunk_share {hybrid:.2f} < 0.5 — the cross-field "
                "codec fell back to Lorenzo, so reads of this archive never run the CFNN"
            )
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            with ArchiveReader(self.path, jobs=1, backend="mmap") as reader:
                reader.read_field("Wf")
            seconds.append(time.perf_counter() - start)
        figures["read_cf_mbps"] = target.nbytes / percentile(seconds, 50) / 1e6
        return figures


# --------------------------------------------------------------------------- #
# read-cold
# --------------------------------------------------------------------------- #
class ReadCold(Workload):
    """Every operation opens a fresh mmap reader, so no cache ever helps."""

    name = "read-cold"
    FULL = {
        "shape": (256, 1024), "chunk": (64, 64), "cf_shape": (16, 64, 64),
        "windows": (64, 128), "regions": 30, "previews": 16, "preview_window": 128,
    }
    SMOKE = {
        "shape": (128, 256), "chunk": (32, 32), "cf_shape": (8, 32, 32),
        "windows": (32, 64), "regions": 8, "previews": 4, "preview_window": 64,
    }
    #: Set-up must stay cheap, so Wf's CFNN trains for one short epoch and the
    #: Lorenzo fallback is off: the decode still runs full CFNN inference and
    #: the weighted wavefront, which is all this workload measures.
    CF_PARAMS = {"epochs": 1, "n_patches": 8, "allow_fallback": False}
    PREVIEW_FRACTION = 0.25

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.path = directory / "read-cold.xfa"
        anchors = ("Uf", "Vf", "Pf")
        self.originals = {
            **self.dataset("cesm", self.p["shape"], ("FLNT", "LWCF")),
            **self.dataset("hurricane", self.p["cf_shape"], anchors + ("Wf",)),
        }
        with self.writer(self.path, self.p["chunk"]) as writer:
            writer.add_field("FLNT", self.originals["FLNT"], codec="sz")
            writer.add_field("LWCF", self.originals["LWCF"], codec="zfp")
            for name in anchors:
                writer.add_field(name, self.originals[name], codec="sz", chunk_shape=self.p["cf_shape"])
            writer.add_field(
                "Wf", self.originals["Wf"], codec="cross-field", anchors=anchors,
                chunk_shape=self.p["cf_shape"], **self.CF_PARAMS,
            )
        rng = self.rng("read-cold")
        mixed = []
        for i in range(self.p["regions"]):
            name = ("FLNT", "LWCF")[i % 2]
            size = self.p["windows"][(i // 2) % len(self.p["windows"])]
            mixed.append(("region", name, random_window(rng, self.p["shape"], size)))
        for _ in range(self.p["previews"]):
            window = random_window(rng, self.p["shape"], self.p["preview_window"])
            mixed.append(("preview", "LWCF", window))
        order = rng.permutation(len(mixed))
        # full reads go first: their results are the references region reads
        # are compared against
        self.schedule = [("full", name, None) for name in ("FLNT", "LWCF", "Wf")]
        self.schedule += [mixed[i] for i in order]
        self.full: Dict[str, np.ndarray] = {}

    def _read(self, kind: str, name: str, region, jobs: int = 1):
        start = time.perf_counter()
        with ArchiveReader(self.path, jobs=jobs, backend="mmap") as reader:
            if kind == "preview":
                out, info = reader.read_region_preview(name, region, fraction=self.PREVIEW_FRACTION)
            else:
                out, info = reader.read_region(name, region), None
        return out, info, time.perf_counter() - start

    def repetition(self) -> Rep:
        seconds: Dict[str, List[float]] = {"full": [], "region": [], "preview": []}
        full_mbps: Dict[str, float] = {}
        op_ms: List[float] = []
        raw = 0
        previewed = {"bytes_decoded": 0, "bytes_total": 0, "groups_decoded": 0, "groups_total": 0}
        for i, (kind, name, region) in enumerate(self.schedule):
            self.tracer.set_request(i)
            out, info, elapsed = self._read(kind, name, region)
            seconds[kind].append(elapsed)
            op_ms.append(elapsed * 1e3)
            raw += out.nbytes
            with self.tracer.span("harness.check", "harness.check_s"):
                if kind == "full":
                    full_mbps[name] = out.nbytes / elapsed / 1e6
                    reference = self.full.setdefault(name, out)
                    self.check(np.array_equal(out, reference), f"{name}: full reads differ")
                elif kind == "region":
                    self.check(
                        np.array_equal(out, self.full[name][region]),
                        f"{name}: region read differs from the slice of the full read",
                    )
                else:
                    for key in previewed:
                        previewed[key] += info[key]
                    expected = tuple(sl.stop - sl.start for sl in region)
                    self.check(out.shape == expected, f"{name}: preview shape {out.shape}")
        extra = {
            "read_sz_mbps": full_mbps["FLNT"],
            "read_zfp_mbps": full_mbps["LWCF"],
            "read_cf_mbps": full_mbps["Wf"],
            "cold_region_ms_p50": percentile(seconds["region"], 50) * 1e3,
            "preview_ms_p50": percentile(seconds["preview"], 50) * 1e3,
            "zfp.preview_bytes_share": previewed["bytes_decoded"] / previewed["bytes_total"],
            "zfp.preview_groups_share": previewed["groups_decoded"] / previewed["groups_total"],
        }
        return Rep(sum(op_ms) / 1e3, raw, op_ms, extra)

    def finish(self, traced: bool) -> Dict[str, float]:
        with ArchiveReader(self.path, jobs=1) as reader:
            self.check_bounds(self.full, reader)
        hybrid, model = hybrid_shares(self.path, "Wf")
        if hybrid < 0.5:
            raise GuardError(f"read-cold: hybrid_chunk_share {hybrid:.2f} < 0.5, no CFNN inference ran")
        figures = {
            "stored_ratio": self.stored_ratio(),
            "core.hybrid_chunk_share": hybrid,
            "core.model_bytes_share": model,
        }
        if traced:
            # scheduler scaling on the multi-chunk full reads, untraced by construction
            best = {
                jobs: min(
                    sum(self._read("full", name, None, jobs)[2] for name in ("FLNT", "LWCF"))
                    for _ in range(2)
                )
                for jobs in (1, 2)
            }
            figures["parallel.speedup_j2"] = best[1] / best[2]
        return figures

    def guard(self, extra: Dict[str, float]) -> None:
        share = extra["zfp.preview_bytes_share"]
        if share >= 0.5:
            raise GuardError(f"read-cold: previews decoded {share:.2f} of their payload, not a prefix")


# --------------------------------------------------------------------------- #
# read-warm
# --------------------------------------------------------------------------- #
class ReadWarm(Workload):
    """One long-lived reader whose cache fits everything, then one whose cache does not."""

    name = "read-warm"
    FULL = {
        "shape": (512, 1024), "chunk": (64, 64), "catalog": 512, "window": 128,
        "warm_reads": 10000, "evict_reads": 300, "evict_window": 64,
        "warm_cache": 128 * MIB, "evict_cache": 1 * MIB,
    }
    # the smoke grid keeps the evict cache at a quarter of the working set
    SMOKE = {
        "shape": (128, 256), "chunk": (32, 32), "catalog": 64, "window": 64,
        "warm_reads": 1500, "evict_reads": 150, "evict_window": 32,
        "evict_cache": 64 * 1024,
    }
    # both sz: what the cache holds matters here, not which codec filled it,
    # and zfp would double the set-up
    FIELDS = (("FLNT", "sz"), ("LWCF", "sz"))

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.path = directory / "read-warm.xfa"
        self.originals = self.dataset("cesm", self.p["shape"], [name for name, _ in self.FIELDS])
        with self.writer(self.path, self.p["chunk"]) as writer:
            for name, codec in self.FIELDS:
                writer.add_field(name, self.originals[name], codec=codec)
        self.reader = ArchiveReader(
            self.path, cache_bytes=self.p["warm_cache"], jobs=1, backend="mmap"
        )
        # touch everything: the working set (2 fields, 4 MiB decoded at full
        # scale) now sits in the 128 MiB cache
        self.full = {name: self.reader.read_field(name) for name, _ in self.FIELDS}
        rng = self.rng("read-warm")
        names = [name for name, _ in self.FIELDS]

        def catalog(size: int) -> List[Tuple[str, Region]]:
            return [
                (names[i % 2], random_window(rng, self.p["shape"], size))
                for i in range(self.p["catalog"])
            ]

        warm_catalog = catalog(self.p["window"])
        evict_catalog = catalog(self.p["evict_window"])
        self.warm = [warm_catalog[i] for i in zipf_draws(rng, len(warm_catalog), self.p["warm_reads"])]
        self.evict = [
            evict_catalog[i] for i in rng.integers(0, len(evict_catalog), self.p["evict_reads"])
        ]
        self.evict_chunks = len({
            (name, index)
            for name, region in self.evict
            for index in chunks_intersecting_region(self.p["shape"], self.p["chunk"], region)
        })

    def release(self) -> None:
        self.reader.close()

    def _phase(self, reader: ArchiveReader, reads, first_rid: int):
        before = reader.cache_stats()
        op_ms: List[float] = []
        raw = 0
        perf = time.perf_counter
        for i, (name, region) in enumerate(reads):
            self.tracer.set_request(first_rid + i)
            start = perf()
            out = reader.read_region(name, region)
            op_ms.append((perf() - start) * 1e3)
            raw += out.nbytes
            with self.tracer.span("harness.check", "harness.check_s"):
                self.check(
                    np.array_equal(out, self.full[name][region]),
                    f"{name}: region read differs from the slice of the full read",
                )
        after = reader.cache_stats()
        delta = {key: after[key] - before[key] for key in ("hits", "misses", "evictions", "chunks_decoded")}
        return op_ms, raw, delta

    def repetition(self) -> Rep:
        warm_ms, warm_raw, warm = self._phase(self.reader, self.warm, 0)
        with ArchiveReader(
            self.path, cache_bytes=self.p["evict_cache"], jobs=1, backend="mmap"
        ) as small:
            evict_ms, evict_raw, evict = self._phase(small, self.evict, len(self.warm))
        extra = {
            "warm_region_ms_p50": percentile(warm_ms, 50),
            "evict_region_ms_p50": percentile(evict_ms, 50),
            "warm_hit_ratio": warm["hits"] / (warm["hits"] + warm["misses"]),
            "store.cache_hit_ratio": evict["hits"] / (evict["hits"] + evict["misses"]),
            "store.cache_evictions": float(evict["evictions"]),
            "store.decodes_per_chunk_touched": evict["chunks_decoded"] / self.evict_chunks,
        }
        op_ms = warm_ms + evict_ms
        return Rep(sum(op_ms) / 1e3, warm_raw + evict_raw, op_ms, extra)

    def guard(self, extra: Dict[str, float]) -> None:
        if extra["warm_hit_ratio"] < 0.99:
            raise GuardError(
                f"read-warm: warm-phase hit ratio {extra['warm_hit_ratio']:.3f} < 0.99, "
                "the working set does not fit the cache"
            )
        ratio = extra["store.cache_hit_ratio"]
        if not 0.15 <= ratio <= 0.5:
            raise GuardError(
                f"read-warm: evict-phase hit ratio {ratio:.3f} outside [0.15, 0.5], "
                "the small cache is not under eviction pressure"
            )

    def finish(self, traced: bool) -> Dict[str, float]:
        self.check_bounds(self.full, self.reader)
        return {"stored_ratio": self.stored_ratio()}


# --------------------------------------------------------------------------- #
# serve-http
# --------------------------------------------------------------------------- #
@dataclass
class Request:
    """One scheduled request and what its response must look like."""

    kind: str  # hot | preview | revalidate | cold
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    shape: Optional[Tuple[int, ...]] = None  #: expected array shape (None: a body-less 304)
    crc: Optional[int] = None  #: crc32 of the in-process read_region bytes (None: shape only)


def http_schedule(
    rng, n_requests: int, hot: Sequence[Request], previews: Sequence[Request],
    revalidate: Request, cold: Sequence[Request],
) -> List[Request]:
    """One client's pass: 85 % hot Zipf, 5 % previews, 5 % 304s, 5 % cold, shuffled.

    Each request of ``cold`` is used once; the counts are exact, so the
    schedule's 304 share is exactly 5 %.
    """
    twentieth = n_requests // 20
    if len(cold) < twentieth:
        raise ValueError("not enough cold windows for one pass")
    requests = [hot[i] for i in zipf_draws(rng, len(hot), n_requests - 3 * twentieth)]
    requests += [previews[i] for i in rng.integers(0, len(previews), twentieth)]
    requests += [revalidate] * twentieth
    requests += list(cold[:twentieth])
    return [requests[i] for i in rng.permutation(len(requests))]


def _response_error(request: Request, status: int, body: bytes) -> str:
    """Why the response is wrong, or ``""`` when it is what the schedule expects."""
    if request.shape is None:
        return "" if status == 304 and not body else f"revalidation: {status}, {len(body)} B"
    if status != 200:
        return f"{request.path}: status {status}"
    array = np.load(io.BytesIO(body), allow_pickle=False)
    if array.shape != request.shape:
        return f"{request.path}: shape {array.shape}"
    if request.crc is not None and zlib.crc32(np.ascontiguousarray(array)) != request.crc:
        return f"{request.path}: body differs from the in-process read_region"
    return ""


def _client(address, index: int, schedule: Sequence[Request], barrier, results: List) -> None:
    """One closed-loop client on one keep-alive connection."""
    records = []
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        barrier.wait(timeout=30)
        for i, request in enumerate(schedule):
            start = time.perf_counter()
            connection.request(
                "GET", request.path, headers={"X-Request-Id": f"{index}-{i}", **request.headers}
            )
            response = connection.getresponse()
            body = response.read()
            elapsed = time.perf_counter() - start
            error = _response_error(request, response.status, body)
            records.append((request.kind, elapsed * 1e3, response.status, len(body), error))
        results[index] = records
    except Exception as exc:  # a dead client must fail the pass, not hang it
        results[index] = exc
        barrier.abort()
    finally:
        connection.close()


def run_clients(address, schedules: Sequence[Sequence[Request]]):
    """Run one client thread per schedule; returns ``(records, wall seconds)``.

    Runs in the client process, so client-side parsing never competes with
    the server's handler threads for the interpreter lock.  A record is
    ``(kind, latency ms, status, body bytes, error)``.
    """
    barrier = threading.Barrier(len(schedules) + 1)
    results: List = [None] * len(schedules)
    threads = [
        threading.Thread(target=_client, args=(address, i, schedule, barrier, results))
        for i, schedule in enumerate(schedules)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - start
    for thread, result in zip(threads, results):
        if thread.is_alive():
            raise RuntimeError("an HTTP client did not finish")
        if isinstance(result, Exception):
            raise result
    return [record for records in results for record in records], wall


def client_main() -> None:
    """Body of the client process: answer ``run_clients`` calls until stdin closes."""
    calls, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # the reply pipe carries pickles only
    while True:
        try:
            address, schedules = pickle.load(calls)
        except EOFError:
            return
        try:
            reply = (True, run_clients(address, schedules))
        except Exception as exc:
            reply = (False, repr(exc))
        pickle.dump(reply, replies)
        replies.flush()


class ClientProcess:
    """The load generator: a child interpreter that runs :func:`run_clients` on call.

    A plain ``subprocess`` child speaking pickle over its pipes, which this
    process stops and waits for — not a ``multiprocessing`` pool, whose spawn
    context also starts a resource-tracker process that outlives the run.  A
    child that loses its parent reads end-of-file and exits by itself.
    """

    def __init__(self) -> None:
        code = (
            f"import sys; sys.path[:] = {sys.path!r}; "
            "from spine.workloads import client_main; client_main()"
        )
        self.process = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def call(self, address, schedules: Sequence[Sequence[Request]], timeout: float = 150.0):
        pickle.dump((address, schedules), self.process.stdin)
        self.process.stdin.flush()
        if not select.select([self.process.stdout], [], [], timeout)[0]:
            raise RuntimeError("the HTTP client process did not answer")
        ok, value = pickle.load(self.process.stdout)
        if not ok:
            raise RuntimeError(f"the HTTP client process failed: {value}")
        return value

    def stop(self) -> None:
        """End the child and wait until it has gone."""
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class ServeHTTP(Workload):
    """Two closed-loop keep-alive clients against the stdlib server, one pass per repetition."""

    name = "serve-http"
    CLIENTS = 2
    FULL = {
        "shape": (512, 1024), "chunk": (64, 64), "window": 128, "hot": 64, "previews": 8,
        "requests": 600,
    }
    SMOKE = {
        "shape": (128, 256), "chunk": (32, 32), "window": 64, "hot": 16, "previews": 4,
        "requests": 100,
    }
    ARCHIVE = "spine"
    #: read only by the never-repeated cold windows
    COLD_FIELDS = ("FLUT", "FLUTC")

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.path = directory / "serve.xfa"
        self.originals = self.dataset("cesm", self.p["shape"], ("FLNT", "LWCF") + self.COLD_FIELDS)
        with self.writer(self.path, self.p["chunk"]) as writer:
            writer.add_field("FLNT", self.originals["FLNT"], codec="sz")
            writer.add_field("LWCF", self.originals["LWCF"], codec="zfp")
            for name in self.COLD_FIELDS:
                writer.add_field(name, self.originals[name], codec="sz")
        # references come from a private in-process reader: the service's
        # shared cache must not learn the cold fields from us
        with ArchiveReader(self.path, jobs=1) as reader:
            self.full = {name: reader.read_field(name) for name in self.originals}
        self.cache = SharedChunkCache()
        self.service = ArchiveService({self.ARCHIVE: self.path}, cache=self.cache, jobs=1)
        self.server, self.thread = serve_in_thread(self.service)
        self.address = self.server.server_address[:2]
        # the load generator is a process of its own (a fresh interpreter, not
        # a fork: this process already has a server thread)
        self.clients = ClientProcess()
        try:
            self._build_schedule()
        except BaseException:  # the runner releases only a finished set-up
            self.release()
            raise

    def release(self) -> None:
        self.clients.stop()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        if self.thread.is_alive():
            raise RuntimeError("the HTTP server thread did not stop")
        self.service.close()

    def trace_hooks(self, tracer) -> None:
        tracer.add_method(
            self.server.RequestHandlerClass, "do_GET", "handler.do_GET", "serve.http_s",
            rid_from=lambda handler: handler.headers.get("X-Request-Id"),
        )

    def _region_request(self, kind: str, name: str, region: Region) -> Request:
        path = f"/archives/{self.ARCHIVE}/fields/{name}/region?region={region_query(region)}"
        expected = np.ascontiguousarray(self.full[name][region])
        return Request(kind, path, shape=expected.shape, crc=zlib.crc32(expected))

    def _build_schedule(self) -> None:
        rng = self.rng("serve-http")
        window, chunk = self.p["window"], self.p["chunk"]
        hot = [
            self._region_request("hot", ("FLNT", "LWCF")[i % 2], random_window(rng, self.p["shape"], window))
            for i in range(self.p["hot"])
        ]
        previews = []
        for _ in range(self.p["previews"]):
            region = random_window(rng, self.p["shape"], window)
            path = (
                f"/archives/{self.ARCHIVE}/fields/LWCF/preview"
                f"?fraction=0.25&region={region_query(region)}"
            )
            previews.append(Request("preview", path, shape=(window, window)))
        connection = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            connection.request("GET", f"/archives/{self.ARCHIVE}/manifest")
            response = connection.getresponse()
            response.read()
            etag = response.getheader("ETag")
        finally:
            connection.close()
        revalidate = Request(
            "revalidate", f"/archives/{self.ARCHIVE}/manifest", {"If-None-Match": etag}
        )
        # chunk-aligned, non-overlapping windows: a cold request shares no
        # chunk with any other request of its pass.  They are as large as the
        # hot windows, so the classes differ by decode work alone (and every
        # body outgrows one loopback segment; see the README's findings).
        corners = [
            (name, r, c)
            for name in self.COLD_FIELDS
            for r in range(0, self.p["shape"][0] - window + 1, window)
            for c in range(0, self.p["shape"][1] - window + 1, window)
        ]
        cold = [
            self._region_request("cold", name, (slice(r, r + window), slice(c, c + window)))
            for name, r, c in (corners[i] for i in rng.permutation(len(corners)))
        ]
        per_client = self.p["requests"] // 20
        self.hot_set = hot + previews
        self.schedules = [
            http_schedule(
                rng, self.p["requests"], hot, previews, revalidate,
                cold[client * per_client : (client + 1) * per_client],
            )
            for client in range(self.CLIENTS)
        ]
        self.burst = cold[self.CLIENTS * per_client]
        self.burst_chunks = (window // chunk[0]) * (window // chunk[1])

    def _pass(self, schedules: Sequence[Sequence[Request]]):
        """Send ``schedules`` from the client process and check every response."""
        records, wall = self.clients.call(self.address, schedules)
        for *_, error in records:
            self.check(not error, error)
        return records, wall

    def repetition(self) -> Rep:
        # every pass starts from the same state: cold fields cold, hot set hot
        self.cache.clear()
        self._pass([self.hot_set])
        records, wall = self._pass(self.schedules)
        latencies = [ms for _, ms, *_ in records]
        p99 = percentile(latencies, 99)
        tail = [kind for kind, ms, *_ in records if ms >= p99]
        extra = {
            "http_rps": len(records) / wall,
            "http_ms_p50": percentile(latencies, 50),
            "http_ms_p99": p99,
            "cold_tail_share": tail.count("cold") / len(tail),
            "serve.requests": float(len(records)),
            "serve.bytes_out": float(sum(nbytes for *_, nbytes, _ in records)),
            "serve.not_modified_share": sum(r[2] == 304 for r in records) / len(records),
            "serve.client_s": sum(latencies) / 1e3,
        }
        return Rep(wall, int(extra["serve.bytes_out"]), latencies, extra)

    def guard(self, extra: Dict[str, float]) -> None:
        if extra["serve.not_modified_share"] != 0.05:
            raise GuardError(
                f"serve-http: 304 share {extra['serve.not_modified_share']} is not the schedule's 5 %"
            )
        if extra["cold_tail_share"] < 0.5:
            raise GuardError(
                f"serve-http: only {extra['cold_tail_share']:.2f} of the requests at or above "
                "p99 are cold windows, so http_ms_p99 does not sit in the cold-decode class"
            )

    def _decoded(self) -> int:
        with self.service.handle(self.ARCHIVE).reader() as reader:
            return int(reader.cache_stats()["chunks_decoded"])

    def finish(self, traced: bool) -> Dict[str, float]:
        with ArchiveReader(self.path, jobs=1) as reader:
            self.check_bounds(self.full, reader)
        # barrier burst: both clients ask for the same untouched cold region
        self.cache.clear()
        before = self._decoded()
        coalesced = self.cache.stats["coalesced"]
        self._pass([[self.burst]] * self.CLIENTS)
        decoded = self._decoded() - before
        if decoded != self.burst_chunks:
            raise GuardError(
                f"serve-http: burst on one cold region decoded {decoded} chunks, "
                f"the region has {self.burst_chunks}"
            )
        stats = self.cache.stats
        return {
            "stored_ratio": self.stored_ratio(),
            "store.shared_coalesced": float(stats["coalesced"] - coalesced),
            "store.cache_hit_ratio": stats["hits"] / (stats["hits"] + stats["misses"]),
        }


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (PackSZ, PackZFP, PackCrossField, ReadCold, ReadWarm, ServeHTTP)
}
