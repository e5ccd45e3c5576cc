"""Tests for the telemetry layer (``repro.obs``).

Covers the recorder primitives (counters, histograms, spans), the
module-level registry, snapshot serialisation, the render helpers (stage
table, JSON dump, Chrome trace), thread-safety under concurrent increments,
and — the load-bearing property for the parallel engine — counter parity: the
same workload driven through :class:`ChunkScheduler` at ``jobs=1`` (serial
loop) and ``jobs>1`` (thread pool) must produce identical counter totals.
Two checks keep the metric namespace honest: each measured value is recorded
under one name, and every name the stack records has a row in the naming
table of ``docs/observability.md``.
"""

import ast
import json
import pickle
import re
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.obs.recorder import (
    BUCKET_RESOLUTION,
    SNAPSHOT_SCHEMA,
    bucket_index,
    bucket_upper_bound,
)
from repro.obs.render import chrome_trace_events
from repro.parallel import ChunkScheduler


@pytest.fixture()
def recorder():
    """A fresh Recorder installed globally, restored after the test."""
    rec = obs.Recorder()
    previous = obs.set_recorder(rec)
    try:
        yield rec
    finally:
        obs.set_recorder(previous)


# --------------------------------------------------------------------------- #
# histogram buckets
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_bucket_indexing_is_log2(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(BUCKET_RESOLUTION) == 0
        assert bucket_index(2 * BUCKET_RESOLUTION) == 1
        assert bucket_index(4 * BUCKET_RESOLUTION) == 2
        for i in range(0, 20, 3):
            assert bucket_upper_bound(bucket_index(bucket_upper_bound(i))) >= bucket_upper_bound(i)

    def test_exact_moments_approximate_quantiles(self):
        hist = obs.Histogram()
        values = [0.001, 0.002, 0.004, 0.008, 0.1]
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert hist.sum == pytest.approx(sum(values))
        assert hist.min == pytest.approx(min(values))
        assert hist.max == pytest.approx(max(values))
        assert hist.mean == pytest.approx(sum(values) / len(values))
        # quantiles come from log2 bucket upper bounds: within 2x of the truth
        q50 = hist.quantile(0.5)
        assert 0.004 <= q50 <= 0.008

    def test_dict_form(self):
        hist = obs.Histogram()
        for v in (0.2, 0.004, 7.0):
            hist.observe(v)
        data = json.loads(json.dumps(hist.to_dict()))
        assert data["count"] == 3
        assert data["sum"] == pytest.approx(7.204)
        assert (data["min"], data["max"]) == (0.004, 7.0)
        assert data["p95"] == hist.quantile(0.95)
        assert sum(data["buckets"].values()) == 3
        assert data["buckets"] == {str(k): n for k, n in sorted(hist.buckets.items())}
        assert obs.Histogram().to_dict()["min"] == 0.0  # no inf in the JSON


# --------------------------------------------------------------------------- #
# recorder primitives and the registry
# --------------------------------------------------------------------------- #
class TestRecorder:
    def test_counters_and_histograms(self):
        rec = obs.Recorder()
        rec.count("chunks")
        rec.count("chunks", 4)
        rec.observe("io_seconds", 0.25)
        snap = rec.snapshot()
        assert snap.counter("chunks") == 5
        assert snap.counter("never") == 0
        assert snap.histograms["io_seconds"].count == 1

    def test_span_records_and_observes(self):
        rec = obs.Recorder()
        with rec.span("outer", field="FLNT"):
            with rec.span("inner"):
                pass
        snap = rec.snapshot()
        names = [s.name for s in snap.spans]
        assert names == ["inner", "outer"]  # recorded on exit
        by_name = {s.name: s for s in snap.spans}
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0
        assert by_name["outer"].args == {"field": "FLNT"}
        # every span also feeds the same-named histogram
        assert snap.histograms["outer"].count == 1

    def test_timer_accumulates(self):
        rec = obs.Recorder()
        for _ in range(3):
            with rec.timer("work"):
                pass
        assert rec.snapshot().histograms["work"].count == 3

    def test_snapshot_is_a_detached_copy(self):
        rec = obs.Recorder()
        rec.count("a")
        rec.observe("h", 0.5)
        first = rec.snapshot()
        rec.count("a")
        rec.observe("h", 0.25)
        # taking a snapshot clears nothing, and later records leave it as it was
        assert first.counter("a") == 1
        assert first.histograms["h"].count == 1
        second = rec.snapshot()
        assert second.counter("a") == 2
        assert second.histograms["h"].count == 2

    def test_null_recorder_is_inert(self):
        null = obs.NullRecorder()
        assert not null.enabled
        null.count("x", 5)
        null.observe("y", 1.0)
        with null.span("z", k=1):
            with null.timer("t"):
                pass
        assert null.snapshot().empty

    def test_registry_set_and_restore(self):
        rec = obs.Recorder()
        previous = obs.set_recorder(rec)
        try:
            assert obs.get_recorder() is rec
            assert obs.enabled()
            obs.count("via.module", 2)
            assert rec.snapshot().counter("via.module") == 2
        finally:
            obs.set_recorder(previous)
        assert obs.get_recorder() is previous

    def test_set_recorder_switches_collection(self):
        previous = obs.set_recorder(obs.NullRecorder())
        try:
            assert not obs.enabled()
            obs.count("off")  # the null recorder drops it
            assert obs.get_recorder().snapshot().empty
            rec = obs.Recorder()
            obs.set_recorder(rec)
            assert obs.enabled()
            obs.count("on")
            assert rec.snapshot().counter("on") == 1
            obs.set_recorder(obs.NullRecorder())
            assert not obs.enabled()
            assert rec.snapshot().counter("on") == 1  # the detached one keeps its data
        finally:
            obs.set_recorder(previous)

    def test_env_variable_enables(self, monkeypatch):
        from repro.obs.recorder import _env_enabled

        for value, expect in [
            ("1", True), ("true", True), ("on", True),
            ("", False), ("0", False), ("false", False), ("off", False), ("no", False),
        ]:
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            assert _env_enabled() is expect
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert _env_enabled() is False

    def test_span_cap_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_SPANS", 3)
        rec = obs.Recorder()
        for _ in range(5):
            with rec.span("s"):
                pass
        snap = rec.snapshot()
        assert len(snap.spans) == 3
        assert snap.counter("obs.spans_dropped") == 2
        assert snap.histograms["s"].count == 5  # histogram still sees all


# --------------------------------------------------------------------------- #
# snapshots: serialisation, pickling
# --------------------------------------------------------------------------- #
class TestSnapshot:
    def _sample(self):
        rec = obs.Recorder()
        rec.count("c", 3)
        rec.observe("h", 0.5)
        with rec.span("sp", step=1):
            pass
        return rec.snapshot()

    def test_json_form(self):
        snap = self._sample()
        data = json.loads(json.dumps(snap.to_dict()))
        assert data["schema"] == SNAPSHOT_SCHEMA == "repro-telemetry/2"
        assert sorted(data) == ["counters", "histograms", "schema", "spans"]
        assert data["counters"] == {"c": 3}
        assert data["histograms"]["h"]["sum"] == snap.histograms["h"].sum
        assert data["spans"][0]["name"] == "sp"
        assert data["spans"][0]["args"] == {"step": 1}

    def test_pickle_roundtrip(self):
        snap = self._sample()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.to_dict() == snap.to_dict()


# --------------------------------------------------------------------------- #
# render helpers
# --------------------------------------------------------------------------- #
class TestRender:
    def test_empty_snapshot_renders_empty(self):
        assert obs.format_stage_table(obs.TelemetrySnapshot()) == ""

    def test_stage_table_contents(self):
        rec = obs.Recorder()
        rec.observe("store.codec.sz.decode_seconds", 0.2)
        rec.observe("store.codec.sz.decode_seconds", 0.1)
        rec.count("store.cache.hits", 7)
        table = obs.format_stage_table(rec.snapshot(), title="telemetry: test")
        assert "telemetry: test" in table
        assert "store.codec.sz.decode_seconds" in table
        assert "store.cache.hits" in table
        assert "7" in table

    def test_snapshot_json_file(self, tmp_path):
        rec = obs.Recorder()
        rec.count("c", 2)
        out = tmp_path / "profile.json"
        obs.write_snapshot_json(rec.snapshot(), out)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["schema"] == SNAPSHOT_SCHEMA
        assert data["counters"]["c"] == 2

    def test_chrome_trace_events(self, tmp_path):
        rec = obs.Recorder()
        with rec.span("store.read.region_seconds", field="FLNT"):
            with rec.span("pipeline.verify_seconds"):
                pass
        events = chrome_trace_events(rec.snapshot())
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        cats = {e["name"]: e["cat"] for e in events}
        assert cats["store.read.region_seconds"] == "store"
        assert cats["pipeline.verify_seconds"] == "pipeline"
        out = tmp_path / "trace.json"
        obs.write_chrome_trace(rec.snapshot(), out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 2


# --------------------------------------------------------------------------- #
# thread-safety: concurrent increments
# --------------------------------------------------------------------------- #
class TestConcurrency:
    def test_concurrent_increments_lose_nothing(self):
        rec = obs.Recorder()
        n_threads, n_iter = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_iter):
                rec.count("stress.counter")
                rec.observe("stress.hist", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = rec.snapshot()
        assert snap.counter("stress.counter") == n_threads * n_iter
        assert snap.histograms["stress.hist"].count == n_threads * n_iter

    def test_concurrent_spans_keep_private_depth(self):
        rec = obs.Recorder()
        errors = []

        def worker():
            try:
                for _ in range(200):
                    with rec.span("outer"):
                        with rec.span("inner"):
                            pass
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        depths = {s.name: set() for s in rec.snapshot().spans}
        for s in rec.snapshot().spans:
            depths[s.name].add(s.depth)
        # span depth is tracked per thread: nesting never bleeds across threads
        assert depths == {"outer": {0}, "inner": {1}}


# --------------------------------------------------------------------------- #
# counter parity: serial loop (jobs=1) against the thread pool (jobs>1)
# --------------------------------------------------------------------------- #
def _telemetry_workload(item):
    """A task that records into the global recorder."""
    obs.count("work.items")
    obs.count("work.value", item)
    with obs.span("work.step_seconds", item=item):
        obs.observe("work.cost", float(item) * 1e-4)
    return item * item


@pytest.mark.parametrize("jobs", [1, 3], ids=["serial", "thread"])
def test_backend_counter_parity(jobs, recorder):
    """Identical counter totals whether the serial loop or the pool ran the workload."""
    items = list(range(40))
    scheduler = ChunkScheduler(jobs=jobs)
    try:
        results = scheduler.map(_telemetry_workload, items)
    finally:
        scheduler.close()
    assert results == [i * i for i in items]

    snap = recorder.snapshot()
    # workload counters: exact totals, independent of how work was distributed
    assert snap.counter("work.items") == len(items)
    assert snap.counter("work.value") == sum(items)
    assert snap.histograms["work.cost"].count == len(items)
    assert snap.histograms["work.cost"].sum == pytest.approx(sum(items) * 1e-4)
    assert snap.histograms["work.step_seconds"].count == len(items)
    # scheduler accounting: one task per item either way
    assert snap.counter("scheduler.tasks") == len(items)
    assert snap.histograms["scheduler.task_seconds"].count == len(items)
    assert snap.histograms["scheduler.queue_wait_seconds"].count == len(items)


def test_backend_parity_totals_match_each_other(recorder):
    """``jobs=1`` and ``jobs=2`` runs produce identical counter dicts."""
    items = list(range(25))
    totals = {}
    for jobs in (1, 2):
        rec = obs.Recorder()
        previous = obs.set_recorder(rec)
        try:
            scheduler = ChunkScheduler(jobs=jobs)
            try:
                scheduler.map(_telemetry_workload, items)
            finally:
                scheduler.close()
        finally:
            obs.set_recorder(previous)
        snap = rec.snapshot()
        totals[jobs] = {
            "counters": dict(sorted(snap.counters.items())),
            "hist_counts": {name: hist.count for name, hist in sorted(snap.histograms.items())},
        }
    assert totals[1] == totals[2]


def test_disabled_recorder_runs_unwrapped(recorder):
    """With telemetry disabled the scheduler does not wrap tasks at all."""
    previous = obs.set_recorder(obs.NullRecorder())
    try:
        scheduler = ChunkScheduler(jobs=1)
        assert scheduler._instrument(_telemetry_workload) is None
        results = scheduler.map(_telemetry_workload, [1, 2, 3])
        assert results == [1, 4, 9]
    finally:
        obs.set_recorder(previous)


# --------------------------------------------------------------------------- #
# CLI --profile surfaces
# --------------------------------------------------------------------------- #
class TestCliProfile:
    @pytest.fixture()
    def archive(self, tmp_path):
        from repro.store.cli import main

        path = tmp_path / "profiled.xfa"
        assert main(["pack", "cesm", str(path), "--shape", "48,64", "--chunk", "24,24"]) == 0
        return path

    def test_profile_stage_table_on_stderr(self, archive, capsys):
        from repro.store.cli import main

        assert main(["verify", str(archive), "--deep", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "telemetry: repro verify" in captured.err
        assert "store.codec.sz.decode_seconds" in captured.err
        assert "store.codec.sz.decode_seconds" not in captured.out  # stdout stays clean

    def test_profile_json_consistent_with_table(self, archive, tmp_path, capsys):
        from repro.store.cli import main

        out = tmp_path / "profile.json"
        assert main(["verify", str(archive), "--deep",
                     "--profile", "--profile-json", str(out)]) == 0
        captured = capsys.readouterr()
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["schema"] == SNAPSHOT_SCHEMA
        # the JSON dump and the stage table describe the same run
        decoded = data["counters"]["store.read.chunks_decoded"]
        assert decoded > 0
        assert str(int(decoded)) in captured.err
        assert data["counters"]["store.read.bytes_in"] > 0
        # every full decode is timed once, under its codec's name
        assert "store.read.decode_seconds" not in data["histograms"]
        assert decoded == sum(
            hist["count"]
            for name, hist in data["histograms"].items()
            if name.startswith("store.codec.") and name.endswith(".decode_seconds")
        )

    def test_trace_flag_writes_chrome_trace(self, archive, tmp_path):
        from repro.store.cli import main

        trace = tmp_path / "trace.json"
        assert main(["--trace", str(trace), "verify", str(archive), "--deep"]) == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"], "deep verify must emit at least one span"
        assert all(event["ph"] == "X" for event in doc["traceEvents"])

    def test_profile_lists_the_cross_field_compute_path(self, tmp_path, capsys):
        """`repro --profile run cross-field`: the paper's own path reports its
        training, inference, hybrid fit, stored mode and conv kernel time."""
        from repro.store.cli import main

        assert main(["--profile", "run", "cross-field", "-o", str(tmp_path / "cf.xfa")]) == 0
        table = capsys.readouterr().err
        for name in (
            "core.cfnn.train_seconds",
            "core.cfnn.infer_seconds",
            "core.hybrid.fit_seconds",
            "nn.conv.forward_seconds",
            "nn.conv.backward_seconds",
            "nn.conv.calls",
        ):
            assert name in table, name
        assert "core.mode.hybrid" in table or "core.mode.lorenzo-fallback" in table

    def test_no_profile_leaves_recorder_untouched(self, archive, capsys):
        from repro.store.cli import main

        # install the null recorder explicitly: REPRO_TELEMETRY=1 enables one
        # at import, and that must not count as the CLI's doing
        null = obs.NullRecorder()
        previous = obs.set_recorder(null)
        try:
            assert main(["verify", str(archive)]) == 0
            assert obs.get_recorder() is null
        finally:
            obs.set_recorder(previous)
        assert "telemetry" not in capsys.readouterr().err


def test_codec_stage_timers_observe_once_per_compress(recorder):
    """SZ and ZFP encode stages feed their histograms once per compress."""
    import numpy as np

    from repro.sz import SZCompressor
    from repro.zfp import ZFPLikeCompressor

    data = np.random.default_rng(3).normal(size=(24, 24)).astype(np.float32)
    SZCompressor().compress(data)
    ZFPLikeCompressor().compress(data)
    histograms = recorder.snapshot().histograms
    for name in (
        "sz.quantize.prequantize_seconds",
        "sz.predict.lorenzo.encode_seconds",
        "zfp.transform.forward_seconds",
    ):
        assert histograms[name].count == 1, name


def test_archive_read_parity_serial_vs_parallel(tmp_path, recorder):
    """End-to-end: reading an archive records the same store counters at
    ``jobs=1`` and ``jobs=3`` (thread backend)."""
    import numpy as np

    from repro.store import ArchiveReader, ArchiveWriter
    from repro.sz.errors import ErrorBound

    rng = np.random.default_rng(7)
    data = rng.normal(size=(96, 96)).astype(np.float64)
    path = tmp_path / "parity.xfa"
    with ArchiveWriter(path, chunk_shape=(32, 32), error_bound=ErrorBound.absolute(1e-3)) as writer:
        writer.add_field("T", data)

    per_jobs = {}
    for jobs in (1, 3):
        rec = obs.Recorder()
        previous = obs.set_recorder(rec)
        try:
            with ArchiveReader(path, jobs=jobs) as reader:
                reader.read_field("T")
        finally:
            obs.set_recorder(previous)
        snap = rec.snapshot()
        per_jobs[jobs] = {
            name: value
            for name, value in snap.counters.items()
            if name.startswith(("store.read.", "store.cache.", "store.codec."))
        }
    assert per_jobs[1] == per_jobs[3]
    assert per_jobs[1]["store.read.chunks_decoded"] == 9


# --------------------------------------------------------------------------- #
# one metric namespace: each value recorded once, each name documented
# --------------------------------------------------------------------------- #
def test_each_measured_value_is_observed_under_one_name(tmp_path, monkeypatch, recorder):
    """No measured float reaches ``observe`` under two names.

    Values are compared by identity: two independent timings are distinct
    float objects even when equal, while one value passed to two names is the
    same object.  ``0.0`` is exempt (a constant, not a measurement).  The log
    keeps every value alive, so no identity is reused during the run.
    """
    import numpy as np

    from repro.serve.service import ArchiveService
    from repro.store import ArchiveReader, ArchiveWriter, SharedChunkCache

    logged = []
    original = obs.Recorder.observe

    def logging_observe(self, name, value):
        logged.append((name, value))
        original(self, name, value)

    monkeypatch.setattr(obs.Recorder, "observe", logging_observe)

    rng = np.random.default_rng(11)
    data = rng.normal(size=(32, 48)).astype(np.float32)
    path = tmp_path / "names.xfa"
    with ArchiveWriter(path, chunk_shape=(16, 24)) as writer:
        writer.add_field("S", data, codec="sz")
        writer.add_field("Z", data * 2 + 1, codec="zfp")
    with ArchiveReader(path) as reader:
        reader.read_region("S", (slice(0, 20), slice(5, 30)))
        assert reader.verify(deep=True)["ok"]
    with ArchiveService({"a": path}, cache=SharedChunkCache()) as service:
        response = service.dispatch(
            "GET", "/archives/a/fields/Z/region", {"region": "0:16,0:24"}, {}
        )
        assert response.status == 200

    names_by_value = {}
    for name, value in logged:
        if isinstance(value, float) and value != 0.0:
            names_by_value.setdefault(id(value), set()).add(name)
    doubled = sorted(sorted(names) for names in names_by_value.values() if len(names) > 1)
    assert logged, "the workload must record observations"
    assert doubled == []


_DOC = Path(__file__).resolve().parents[1] / "docs" / "observability.md"
_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_RECORDING_CALLS = {"count", "observe", "timer", "span", "_observed"}


def _literal_names(node, assigned):
    """Metric names a call argument can take: literals, f-strings (holes
    become ``<>``), both arms of a conditional, or a local variable assigned
    from literals."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.JoinedStr):
        return {
            "".join(
                part.value if isinstance(part, ast.Constant) else "<>"
                for part in node.values
            )
        }
    if isinstance(node, ast.IfExp):
        return _literal_names(node.body, assigned) | _literal_names(node.orelse, assigned)
    if isinstance(node, ast.Name):
        return assigned.get(node.id, set())
    return set()


def _local_string_assignments(function):
    """``{variable: {literal, ...}}`` for plain and tuple assignments in ``function``."""
    assigned = {}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            for name, value in pairs:
                if isinstance(name, ast.Name):
                    assigned.setdefault(name.id, set()).update(_literal_names(value, {}))
    return assigned


def _recorded_prefixes():
    """First two dotted segments of every metric name ``src/repro`` records."""
    prefixes = set()
    for path in _SRC.rglob("*.py"):
        if path.parent.name == "obs":
            continue  # the recorder itself forwards names it is given
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes = [(tree, {})] + [(fn, _local_string_assignments(fn)) for fn in functions]
        for scope, assigned in scopes:
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                called = getattr(func, "attr", None) or getattr(func, "id", None)
                if called not in _RECORDING_CALLS:
                    continue
                for name in _literal_names(node.args[0], assigned):
                    if "." in name:
                        prefixes.add(".".join(name.split(".")[:2]))
    return prefixes


def _documented_prefixes():
    """Row keys of the ``Metric naming`` table, cut like the recorded names."""
    text = _DOC.read_text(encoding="utf-8")
    table = text.split("### Metric naming", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for match in re.finditer(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE):
        name = re.sub(r"<[^>]*>", "<>", match.group(1))
        keys.add(".".join(name.split(".")[:2]).removesuffix(".*"))
    return keys


def _covers(key, prefix):
    return prefix == key or prefix.startswith(key + ".")


def test_metric_names_match_the_naming_table():
    """Every recorded metric prefix has a docs row, and every row is recorded."""
    recorded = _recorded_prefixes()
    documented = _documented_prefixes()
    # the scan resolves f-strings and locally assigned span names
    assert {"store.codec", "store.read", "store.preview", "http.<>"} <= recorded
    undocumented = sorted(
        prefix for prefix in recorded
        if not any(_covers(key, prefix) for key in documented)
    )
    unrecorded = sorted(
        key for key in documented
        if not any(_covers(key, prefix) for prefix in recorded)
    )
    assert undocumented == [], "add a row to docs/observability.md's naming table"
    assert unrecorded == [], "naming-table rows no code records"
