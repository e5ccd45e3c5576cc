"""SharedChunkCache: single-flight dedup, invalidation, reader integration."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.store import ArchiveReader, ArchiveWriter, SharedChunkCache, process_chunk_cache
from repro.store.shared_cache import DEFAULT_SHARED_CACHE_BYTES

SRC = Path(__file__).resolve().parents[1] / "src"


def _poll(predicate, timeout=5.0, interval=0.001):
    """Spin until ``predicate()`` is true; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("timed out waiting for condition")
        time.sleep(interval)


class TestBasics:
    def test_get_put_round_trip(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        key = (1, 2, 3, "FLNT", 0)
        assert cache.get(key) is None
        cache.put(key, np.arange(8.0))
        hit = cache.get(key)
        assert np.array_equal(hit, np.arange(8.0))
        assert not hit.flags.writeable  # frozen on put

    def test_get_or_compute_caches_and_freezes(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        calls = []

        def factory():
            calls.append(1)
            return np.ones(4)

        first = cache.get_or_compute(("k",), factory)
        second = cache.get_or_compute(("k",), factory)
        assert len(calls) == 1
        assert first is second  # same cached object, no per-caller copy
        assert not first.flags.writeable

    def test_stats_shape(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        cache.get_or_compute(("k",), lambda: np.ones(4))
        cache.get(("k",))
        stats = cache.stats
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert stats["coalesced"] == 0
        assert stats["inflight"] == 0
        assert stats["entries"] == 1

    def test_clear_and_len(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        cache.put(("a",), np.ones(4))
        cache.put(("b",), np.ones(4))
        assert len(cache) == 2
        assert cache.nbytes > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0


class TestSingleFlight:
    def test_concurrent_misses_coalesce_to_one_decode(self):
        """N threads racing one cold key must trigger exactly one factory call."""
        cache = SharedChunkCache(max_bytes=1 << 20)
        release = threading.Event()
        calls = []

        def blocking_factory():
            calls.append(threading.get_ident())
            release.wait(timeout=5.0)
            return np.full(16, 3.0)

        results = []
        leader = threading.Thread(
            target=lambda: results.append(cache.get_or_compute(("hot",), blocking_factory))
        )
        leader.start()
        # wait until the leader has registered its in-flight entry
        _poll(lambda: cache.stats["inflight"] == 1)

        n_followers = 6
        followers = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_compute(("hot",), blocking_factory))
            )
            for _ in range(n_followers)
        ]
        for t in followers:
            t.start()
        # followers bump ``coalesced`` *before* blocking on the flight, so this
        # deterministically means all of them are parked behind the leader
        _poll(lambda: cache.coalesced == n_followers)
        assert len(calls) == 1

        release.set()
        leader.join(timeout=5.0)
        for t in followers:
            t.join(timeout=5.0)

        assert len(calls) == 1
        assert len(results) == n_followers + 1
        first = results[0]
        for value in results:
            assert value is first  # everyone shares the one decoded array
        assert cache.stats["inflight"] == 0
        assert cache.stats["coalesced"] == n_followers

    def test_coalesced_count_survives_contention(self):
        """Many followers per key on fast thread switches: no follower goes uncounted."""
        cache = SharedChunkCache(max_bytes=1 << 20)
        n_keys, per_key = 4, 24
        release = threading.Event()
        results = []

        def leader_factory():
            release.wait(timeout=10.0)
            return np.ones(4)

        def follower_factory():
            raise AssertionError("a follower must never run the decode")

        def call(key, factory):
            results.append(cache.get_or_compute(key, factory))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            leaders = [
                threading.Thread(target=call, args=((k,), leader_factory)) for k in range(n_keys)
            ]
            for t in leaders:
                t.start()
            _poll(lambda: cache.stats["inflight"] == n_keys)
            followers = [
                threading.Thread(target=call, args=((k,), follower_factory))
                for k in range(n_keys)
                for _ in range(per_key)
            ]
            for t in followers:
                t.start()
            # a lost update leaves the count short for good: wait, then judge
            deadline = time.monotonic() + 5.0
            while cache.stats["coalesced"] < len(followers) and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            for t in leaders + followers:
                t.join(timeout=10.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)

        assert len(results) == n_keys + len(followers)
        assert cache.stats["coalesced"] == len(followers)

    def test_factory_exception_propagates_to_all_waiters(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        release = threading.Event()
        calls = []
        boom = RuntimeError("decode exploded")

        def failing_factory():
            calls.append(1)
            release.wait(timeout=5.0)
            raise boom

        errors = []

        def run():
            try:
                cache.get_or_compute(("bad",), failing_factory)
            except RuntimeError as exc:
                errors.append(exc)

        leader = threading.Thread(target=run)
        leader.start()
        _poll(lambda: cache.stats["inflight"] == 1)
        followers = [threading.Thread(target=run) for _ in range(4)]
        for t in followers:
            t.start()
        _poll(lambda: cache.coalesced == 4)

        release.set()
        leader.join(timeout=5.0)
        for t in followers:
            t.join(timeout=5.0)

        # every thread saw the same exception object, nothing was cached
        assert len(errors) == 5
        assert all(exc is boom for exc in errors)
        assert cache.get(("bad",)) is None
        assert cache.stats["inflight"] == 0  # failed flight was evicted

        # ...and the key is retryable: a fresh call re-runs the factory
        value = cache.get_or_compute(("bad",), lambda: np.ones(2))
        assert np.array_equal(value, np.ones(2))
        assert len(calls) == 1  # failing factory ran exactly once


class TestInvalidation:
    def test_invalidate_by_archive_prefix(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        cache.put((1, 1, 100, "a", 0), np.ones(4))
        cache.put((1, 1, 100, "b", 0), np.ones(4))
        cache.put((2, 2, 100, "a", 0), np.ones(4))
        dropped = cache.invalidate(archive_id=(1, 1, 100))
        assert dropped == 2
        assert cache.get((1, 1, 100, "a", 0)) is None
        assert cache.get((2, 2, 100, "a", 0)) is not None

    def test_invalidate_all(self):
        cache = SharedChunkCache(max_bytes=1 << 20)
        cache.put(("x",), np.ones(4))
        cache.put(("y",), np.ones(4))
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_generations_do_not_collide(self):
        """Entries for generation G and G+1 of one archive coexist."""
        cache = SharedChunkCache(max_bytes=1 << 20)
        old = np.zeros(4)
        new = np.ones(4)
        cache.put((1, 1, 100, "f", 0), old)
        cache.put((1, 1, 200, "f", 0), new)
        assert np.array_equal(cache.get((1, 1, 100, "f", 0)), old)
        assert np.array_equal(cache.get((1, 1, 200, "f", 0)), new)


class TestProcessSingleton:
    def test_process_cache_is_a_singleton(self):
        assert process_chunk_cache() is process_chunk_cache()
        assert isinstance(process_chunk_cache(), SharedChunkCache)

    def test_default_budget(self):
        assert DEFAULT_SHARED_CACHE_BYTES == 256 * 1024 * 1024


# --------------------------------------------------------------------------- #
# reader-level integration
# --------------------------------------------------------------------------- #
@pytest.fixture()
def lossless_archive(tmp_path):
    """64x64 lossless field in 16x16 chunks -> exactly 16 chunks."""
    path = tmp_path / "hot.xfa"
    data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
    with ArchiveWriter(path, chunk_shape=(16, 16)) as writer:
        writer.add_field("hot", data, codec="lossless")
    return path, data


class TestReaderSharing:
    def test_shared_cache_argument_validation(self, lossless_archive):
        path, _ = lossless_archive
        with pytest.raises(ValueError, match="shared_cache"):
            ArchiveReader(path, shared_cache="yes")

    def test_shared_true_uses_process_singleton(self, lossless_archive):
        path, data = lossless_archive
        with ArchiveReader(path, shared_cache=True) as reader:
            assert reader._fetcher.cache is process_chunk_cache()
            assert np.array_equal(reader.read_field("hot"), data)

    def test_many_threads_many_readers_decode_each_chunk_once(self, lossless_archive):
        """The acceptance gate: total decodes across all readers == unique chunks."""
        path, data = lossless_archive
        shared = SharedChunkCache(max_bytes=1 << 24)
        n_readers, n_threads = 4, 8
        readers = [
            ArchiveReader(path, shared_cache=shared, cache_bytes=0) for _ in range(n_readers)
        ]
        try:
            barrier = threading.Barrier(n_threads)
            errors = []

            def work(thread_idx):
                try:
                    barrier.wait(timeout=10.0)
                    for reader in readers:
                        out = reader.read_field("hot")
                        assert np.array_equal(out, data)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors

            total_decodes = sum(r.cache_stats()["chunks_decoded"] for r in readers)
            assert total_decodes == 16  # one decode per chunk, ever
            assert shared.stats["entries"] == 16
        finally:
            for reader in readers:
                reader.close()

    def test_cache_stats_exposes_shared_section(self, lossless_archive):
        """Top-level numbers are the cache the reader uses, shared or its own."""
        path, _ = lossless_archive
        shared = SharedChunkCache(max_bytes=1 << 24)
        with ArchiveReader(path, shared_cache=shared) as reader:
            reader.read_field("hot")
            stats = reader.cache_stats()
            assert "shared" not in stats
            assert stats["entries"] == shared.stats["entries"] == 16
            assert stats["misses"] == shared.stats["misses"] == 16
        with ArchiveReader(path) as reader:
            reader.read_field("hot")
            assert reader.cache_stats()["entries"] == 16
            assert shared.stats["misses"] == 16  # a private cache is its own instance

    def test_second_reader_preview_comes_from_the_shared_cache(self, tmp_path):
        data = np.random.default_rng(3).normal(size=(32, 64)).astype(np.float32)
        path = tmp_path / "zfp.xfa"
        with ArchiveWriter(path, chunk_shape=(16, 32)) as writer:
            writer.add_field("T", data, codec="zfp")
        shared = SharedChunkCache(max_bytes=1 << 24)
        # jobs=1: the region report sums chunk reports in arrival order
        with ArchiveReader(path, shared_cache=shared, jobs=1) as first, ArchiveReader(
            path, shared_cache=shared, jobs=1
        ) as second:
            coarse, info = first.read_region_preview("T", None, fraction=0.25)
            again, info_again = second.read_region_preview("T", None, fraction=0.25)
            assert first.cache_stats()["previews_decoded"] == 4
            assert second.cache_stats()["previews_decoded"] == 0
            assert np.array_equal(again, coarse)
            assert info_again == info  # the report is cached with its chunk
            # a chunk's preview and its full decode are separate entries...
            assert not np.array_equal(second.read_field("T"), coarse)
            assert shared.stats["entries"] == 8
            # ...and eager invalidation drops both kinds
            stat = os.stat(path)
            assert shared.invalidate((stat.st_dev, stat.st_ino)) == 8

    def test_append_gets_fresh_generation_keys(self, lossless_archive):
        path, data = lossless_archive
        shared = SharedChunkCache(max_bytes=1 << 24)
        with ArchiveReader(path, shared_cache=shared) as r1:
            gen1 = r1.generation
            assert np.array_equal(r1.read_field("hot"), data)
            entries_before = shared.stats["entries"]

            extra = np.full((64, 64), 5.0)
            with ArchiveWriter(path, mode="a") as appender:
                appender.add_field("extra", extra, codec="lossless")

            with ArchiveReader(path, shared_cache=shared) as r2:
                assert r2.generation > gen1
                assert np.array_equal(r2.read_field("hot"), data)
                assert np.array_equal(r2.read_field("extra"), extra)
            # both generations' chunks live side by side in the shared cache
            assert shared.stats["entries"] > entries_before

            # the old-generation reader still serves hits from its own keys
            decoded_before = r1.cache_stats()["chunks_decoded"]
            assert np.array_equal(r1.read_field("hot"), data)
            assert r1.cache_stats()["chunks_decoded"] == decoded_before

    def test_shared_telemetry_counters(self, lossless_archive):
        from repro import obs

        path, data = lossless_archive
        shared = SharedChunkCache(max_bytes=1 << 24)
        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
        try:
            with ArchiveReader(path, shared_cache=shared, cache_bytes=0) as reader:
                reader.read_field("hot")
                reader.read_field("hot")
        finally:
            obs.set_recorder(previous)
        snapshot = recorder.snapshot()
        assert snapshot.counter("store.cache.misses") == 16
        assert snapshot.counter("store.cache.hits") == 16  # one lookup per chunk fetch


#: Two single-chunk reads lead the decodes of both chunks of a field, held at a
#: gate; a full read's two pool workers then wait on those same flights.  Once
#: the gate opens every read must finish: a leader that needed a pool worker
#: for its own decode would wait on the workers that wait on it.
LIVENESS_SCRIPT = """
import os, sys, threading, time
import numpy as np
from repro.store import ArchiveReader, ArchiveWriter, SharedChunkCache
from repro.store.codecs import SZChunkCodec

path = sys.argv[1]
data = np.cumsum(np.random.default_rng(0).normal(size=(256, 512)), axis=1)
with ArchiveWriter(path, chunk_shape=(256, 256)) as writer:  # two 65 536-point chunks
    writer.add_field("f", data, codec="sz")

leaders = threading.Semaphore(0)
gate = threading.Event()
original = SZChunkCodec.decode

def gated_decode(self, payload, anchors=None, **kwargs):
    # forwards any extra argument the reader offers, such as a pool to decode on
    leaders.release()
    gate.wait()
    return original(self, payload, anchors=anchors, **kwargs)

SZChunkCodec.decode = gated_decode
cache = SharedChunkCache()
reader = ArchiveReader(path, jobs=2, shared_cache=cache)
results = {}
reads = {
    "left": lambda: reader.read_region("f", (slice(0, 8), slice(0, 8))),
    "right": lambda: reader.read_region("f", (slice(0, 8), slice(256, 264))),
    "full": lambda: reader.read_field("f"),
}

def start(name):
    thread = threading.Thread(target=lambda: results.update({name: reads[name]()}), daemon=True)
    thread.start()
    return thread

def fail(message):
    print(message, flush=True)
    os._exit(1)  # the pool's worker threads may be stuck; skip interpreter shutdown

threads = [start("left"), start("right")]
for _ in threads:
    if not leaders.acquire(timeout=30):
        fail("single-chunk reads never started their decodes")
threads.append(start("full"))
deadline = time.monotonic() + 30
while cache.stats["coalesced"] < 2:
    if time.monotonic() > deadline:
        fail(f"full read never joined the flights: {cache.stats}")
    time.sleep(0.001)
gate.set()
for thread in threads:
    thread.join(timeout=30)
    if thread.is_alive():
        fail("reads still running 30 s after the gate opened: deadlock")
assert cache.stats["coalesced"] == 2, cache.stats
assert reader.cache_stats()["chunks_decoded"] == 2
assert np.array_equal(results["left"], results["full"][:8, :8])
assert np.array_equal(results["right"], results["full"][:8, 256:264])
assert np.max(np.abs(results["full"] - data)) <= reader.field("f").abs_error_bound * (1 + 1e-9)
reader.close()
print("ok")
"""


class TestReadLiveness:
    def test_single_chunk_leaders_finish_while_pool_workers_wait_on_them(self, tmp_path):
        # a subprocess, so a regression fails on its timeout instead of hanging the suite
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        try:
            done = subprocess.run(
                [sys.executable, "-c", LIVENESS_SCRIPT, str(tmp_path / "live.xfa")],
                env=env, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("concurrent single-chunk and full reads deadlocked")
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.strip() == "ok"
