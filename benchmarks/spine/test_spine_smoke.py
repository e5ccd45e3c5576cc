"""Tier-1 smoke test of the benchmark spine (a few seconds).

Pins what a later change could silently break: the names ``BENCHMARK.json``
promises against the names the harness emits, the determinism of the seeded
request schedule, the tracer's restore-everything and self-time arithmetic,
and one real (tiny) run of a workload through the command line.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spine import spec, trace
from spine.workloads import WORKLOAD_CLASSES, Request, http_schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_benchmark_json_matches_the_spec():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert document["paths"] == ["benchmarks/spine"]
    assert set(WORKLOAD_CLASSES) == {w["name"] for w in document["workloads"]}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in document[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in document["end_to_end"] + document["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in document["end_to_end"])
    setup = next(entry for entry in document["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in document["end_to_end"])


def test_every_traced_metric_is_declared():
    declared = {name for name, *_ in spec.PER_LAYER}
    assert {metric for _, _, metric, _ in trace.ENTRY_POINTS} <= declared


def _schedule(seed):
    rng = np.random.default_rng(seed)
    hot = [Request("hot", f"/hot/{i}") for i in range(16)]
    previews = [Request("preview", f"/preview/{i}") for i in range(4)]
    cold = [Request("cold", f"/cold/{i}") for i in range(10)]
    return http_schedule(rng, 200, hot, previews, Request("revalidate", "/manifest"), cold)


def test_request_schedule_is_deterministic_for_a_seed():
    first, again, other = _schedule(727), _schedule(727), _schedule(728)
    assert [r.path for r in first] == [r.path for r in again]
    assert [r.path for r in first] != [r.path for r in other]
    kinds = [r.kind for r in first]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "hot": 170, "preview": 10, "revalidate": 10, "cold": 10,
    }
    cold = [r.path for r in first if r.kind == "cold"]
    assert len(cold) == len(set(cold))  # never repeated


def test_tracer_restores_every_original():
    from repro.encoding import huffman
    from repro.sz import pipeline, quantizer

    before = {
        "method": huffman.HuffmanCodec.__dict__["encode"],
        "classmethod": huffman.HuffmanTable.__dict__["from_frequencies"],
        "function": quantizer.prequantize,
        "import site": pipeline.prequantize,
    }
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert huffman.HuffmanCodec.__dict__["encode"] is not before["method"]
        assert pipeline.prequantize is quantizer.prequantize is not before["function"]
        payload, table = huffman.HuffmanCodec().encode(np.array([1, 1, 2, 3, 1, 1]))
        assert np.array_equal(huffman.HuffmanCodec().decode(payload, table), [1, 1, 2, 3, 1, 1])
    finally:
        tracer.uninstall()
    assert huffman.HuffmanCodec.__dict__["encode"] is before["method"]
    assert huffman.HuffmanTable.__dict__["from_frequencies"] is before["classmethod"]
    assert quantizer.prequantize is before["function"]
    assert pipeline.prequantize is before["import site"]
    calls, symbols, nbytes = tracer.totals("HuffmanCodec.encode")
    assert (calls, symbols) == (1, 6) and nbytes == len(payload)
    assert tracer.self_seconds()["encoding.huffman_table_s"] > 0


def test_self_times_sum_to_the_wall_on_a_toy_call_tree():
    tracer = trace.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = tracer.wrap(leaf, "leaf", "toy.leaf_s")

    def branch():
        leaf()
        time.sleep(0.001)
        leaf()

    branch = tracer.wrap(branch, "branch", "toy.branch_s")
    with tracer.span("driver", "toy.root_s") as root:
        branch()
        leaf()
    wall = root[trace.END] - root[trace.START]
    own = tracer.self_seconds()
    assert set(own) == {"toy.leaf_s", "toy.branch_s", "toy.root_s"}
    assert abs(sum(own.values()) - wall) < 1e-9
    assert own["toy.leaf_s"] >= 0.006 and own["toy.branch_s"] >= 0.001
    assert own["toy.root_s"] < wall - 0.007  # the root keeps only its own share
    assert tracer.totals("leaf")[0] == 3


def test_read_warm_runs_at_smoke_scale():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "read-warm", "--smoke", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in spec.END_TO_END]
    for name, unit, *_ in spec.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
