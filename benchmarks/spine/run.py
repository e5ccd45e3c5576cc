#!/usr/bin/env python3
"""Run the benchmark spine.

    python benchmarks/spine/run.py [--workload W ...] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--json OUT] [--smoke]

One workload runs in this process; several (the default is all six) each run
in a subprocess of their own, so ``peak_rss_mb`` and every cache start clean.
A run sets the workload up several times (``setup_s`` is the median), runs
identical untraced repetitions for ``--seconds`` seconds, checks every output,
and prints each metric by name with its unit, quartiles and sample count.  A
metric's value is the median over repetitions of the per-repetition statistic.
The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding every end-to-end metric, or
with ``--trace 1`` every per-layer metric (half the time goes to untraced
repetitions, then one repetition runs under the outside tracer of
``trace.py``).  The exit code is non-zero when a validity guard or a
correctness check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def keep_freed_memory() -> None:
    """Tell glibc to keep freed memory in the heap instead of unmapping it.

    The sandbox's hypervisor takes free guest pages back within seconds, and
    faulting them in again costs ~10 ms/MiB, thirty times a warm fault: a
    0.4 s CFNN inference that frees and reallocates 300 MB of temporaries
    then takes anything from 0.4 s to 4 s.  With no mmap-backed blocks and no
    heap trimming, pages the process touched once stay its own.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return  # not glibc: nothing to tune
    m_trim_threshold, m_mmap_max = -1, -4
    mallopt(m_mmap_max, 0)
    mallopt(m_trim_threshold, 2**31 - 1)


def bootstrap() -> None:
    """Quieten the sandbox and make ``repro`` and ``spine`` importable."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # pin BLAS to one thread, before numpy loads
    keep_freed_memory()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"spine: {ROOT / 'src' / 'repro'} not found; the spine runs from a full checkout")
    # the script's own directory would shadow the stdlib `trace` module
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]


def summary(values: Sequence[float], unit: str) -> Dict:
    """Median, quartiles and count of per-repetition (or per-set-up) values."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def traced_repetition(workload, untraced_busy: float, dump_path: Path) -> Dict[str, float]:
    """Run one repetition under the tracer; returns the per-layer figures."""
    from spine import spec, trace

    tracer = trace.Tracer()
    untraced = workload.tracer
    tracer.install()
    try:
        workload.trace_hooks(tracer)
        workload.tracer = tracer
        with tracer.span("driver", "trace.unattributed") as root:
            rep = workload.repetition()
    finally:
        workload.tracer = untraced
        tracer.uninstall()
    wall = root[trace.END] - root[trace.START]
    own = tracer.self_seconds()
    names = {name for name, *_ in spec.PER_LAYER}
    layers = {name: seconds for name, seconds in own.items() if name in names}
    attributed = sum(layers.values())
    layers["trace.unattributed_share"] = own["trace.unattributed"] / wall
    layers["trace.overhead_share"] = rep.busy_s / untraced_busy - 1.0
    _, symbols, huffman_bytes = tracer.totals("HuffmanCodec.encode", "HuffmanCodec.decode")
    layers["encoding.symbols"] = symbols
    layers["encoding.bits_per_symbol"] = 8.0 * huffman_bytes / symbols if symbols else 0.0
    layers["sz.points"] = tracer.totals("SZCompressor.compress", "SZCompressor.decompress")[1]
    layers["nn.conv_calls"] = tracer.totals(
        "conv_forward", "conv_backward", "depthwise_conv_forward", "depthwise_conv_backward"
    )[0]
    layers["parallel.tasks"] = tracer.totals("ChunkScheduler.imap", "ChunkScheduler.imap_unordered")[1]
    layers["store.bytestore_bytes"] = tracer.totals(
        "FileByteStore.pread", "MmapByteStore.pread", "MmapByteStore.view"
    )[2]
    events = tracer.dump_chrome_trace(dump_path)
    print(
        f"traced repetition: {wall:.3f} s wall = {attributed:.3f} s in layers + "
        f"{own['trace.unattributed']:.3f} s unattributed "
        f"(sums exceed the wall when threads overlap); {events} spans -> {dump_path}"
    )
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict:
    """Set up, repeat, check and summarise one workload in this process."""
    from spine import spec
    from spine.workloads import WORKLOAD_CLASSES, percentile

    workload = WORKLOAD_CLASSES[name](seed, smoke=smoke)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup_seconds: List[float] = []
    live = False
    try:
        for i in range(workload.setup_repeats):
            if live:  # keep only the last set-up
                workload.release()
                live = False
                shutil.rmtree(workdir)
            directory = workdir / f"setup-{i}"
            directory.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(directory)
            setup_seconds.append(time.perf_counter() - start)
            live = True
        if workload.warmup:
            workload.repetition()
        reps = []
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        while len(reps) < workload.min_reps or time.perf_counter() - start < budget:
            reps.append(workload.repetition())
        extras = {key: [rep.extra[key] for rep in reps] for key in reps[0].extra}
        workload.guard({key: statistics.median(values) for key, values in extras.items()})
        layers: Dict[str, float] = {}
        if trace:
            busy = statistics.median(rep.busy_s for rep in reps)
            dump = OUT / f"trace-{name}.json"
            layers = traced_repetition(workload, busy, dump)
        figures = workload.finish(trace)
    finally:
        if live:
            workload.release()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "setup_s": summary(setup_seconds, "s"),
        "throughput_mbps": summary([rep.raw_bytes / rep.busy_s / 1e6 for rep in reps], "MB/s"),
        "op_ms_p50": summary([percentile(rep.op_ms, 50) for rep in reps], "ms"),
        "op_ms_p99": summary([percentile(rep.op_ms, 99) for rep in reps], "ms"),
        "stored_ratio": summary([figures["stored_ratio"]], "ratio"),
        "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
    }
    if trace:
        figures["data.generate_s"] = workload.generate_s / workload.setup_repeats
        figures["error_rate"] = workload.failed / workload.attempted
        per_layer = {name: summary([0.0], unit) for name, unit, _ in spec.PER_LAYER}
        for key, value in {**layers, **figures}.items():
            if key in per_layer:
                per_layer[key] = summary([value], spec.UNITS[key])
        for key, values in extras.items():
            if key in per_layer:
                per_layer[key] = summary(values, spec.UNITS[key])
        metrics = per_layer
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "repetitions": len(reps),
        "operations": sum(len(rep.op_ms) for rep in reps),
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures,
        "metrics": metrics,
    }


def report(result: Dict) -> None:
    """Print every metric by name with its unit, then the one-line JSON result."""
    print(
        f"== {result['workload']}  seed {result['seed']}  {result['seconds']:g} s  "
        f"{'traced' if result['trace'] else 'untraced'}  "
        f"({result['repetitions']} repetitions, {result['operations']} operations, "
        f"{result['attempted']} checks, {result['failed']} failed)"
    )
    print(f"{'metric':34} {'median':>14} {'unit':7} {'q1':>14} {'q3':>14} {'n':>3}")
    for name, m in result["metrics"].items():
        print(f"{name:34} {m['value']:14.6g} {m['unit']:7} {m['q1']:14.6g} {m['q3']:14.6g} {m['n']:3d}")
    for message in result["failures"]:
        print(f"FAILED CHECK: {message}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()
        },
    }
    print(json.dumps(line))


def append_json(path: Path, result: Dict) -> None:
    """Append ``result`` to the ``runs`` list of ``path`` (created when missing)."""
    document = json.loads(path.read_text()) if path.exists() else {"schema": "spine/1", "runs": []}
    document["runs"].append(result)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=727, help="seed of all data and request schedules")
    parser.add_argument("--seconds", type=float, default=None, help="seconds of measurement per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: emit the per-layer metrics from a traced repetition")
    parser.add_argument("--json", type=Path, default=None, help="append the full results to this file")
    parser.add_argument("--smoke", action="store_true", help="tiny grids and counts (the smoke test)")
    args = parser.parse_args(argv)

    bootstrap()
    from spine import spec
    from spine.workloads import GuardError

    names = args.workload or list(spec.WORKLOADS)
    unknown = [name for name in names if name not in spec.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(spec.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else float(spec.RUN_SECONDS)
    if seconds <= 0:
        parser.error("--seconds must be positive")

    if len(names) > 1:
        status = 0
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            if args.json is not None:
                command += ["--json", str(args.json)]
            if args.smoke:
                command.append("--smoke")
            status = subprocess.run(command, check=False).returncode or status
        return status

    try:
        result = run_workload(names[0], args.seed, seconds, bool(args.trace), args.smoke)
    except GuardError as exc:
        print(f"GUARD FAILED: {exc}", file=sys.stderr)
        return 1
    report(result)
    if args.json is not None:
        append_json(args.json, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
