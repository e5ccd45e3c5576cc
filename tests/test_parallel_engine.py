"""Tests for the shared chunk execution engine (:mod:`repro.parallel.engine`)."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.parallel import ChunkScheduler, ChunkTaskError, default_jobs


def _square(x):
    return x * x


class TestConstruction:
    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
    def test_invalid_jobs(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            ChunkScheduler(jobs=jobs)

    def test_effective_jobs(self):
        assert ChunkScheduler(jobs=3).effective_jobs == 3
        assert ChunkScheduler().effective_jobs == default_jobs()


class TestOrderedCollection:
    @pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "thread"])
    def test_map_preserves_order(self, jobs):
        scheduler = ChunkScheduler(jobs=jobs)
        items = list(range(40))
        assert scheduler.map(_square, items) == [x * x for x in items]

    def test_imap_is_lazy_but_validates_eagerly(self):
        scheduler = ChunkScheduler(jobs=2)
        gen = scheduler.imap(_square, range(10))
        assert next(gen) == 0
        assert list(gen) == [x * x for x in range(1, 10)]

    def test_imap_windows_submissions(self):
        submitted = []
        lock = threading.Lock()

        def work(x):
            with lock:
                submitted.append(x)
            return x

        gen = ChunkScheduler(jobs=2).imap(work, range(50))
        assert next(gen) == 0  # fills the 2*2 window, yields item 0
        time.sleep(0.05)  # workers drain the window; no new submissions yet
        assert len(submitted) <= 4
        assert list(gen) == list(range(1, 50))


class TestUnorderedCollection:
    @pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "thread"])
    def test_yields_every_indexed_result(self, jobs):
        scheduler = ChunkScheduler(jobs=jobs)
        pairs = list(scheduler.imap_unordered(_square, [3, 1, 4, 1, 5, 9]))
        assert sorted(pairs) == [(0, 9), (1, 1), (2, 16), (3, 1), (4, 25), (5, 81)]

    def test_slow_task_does_not_block_fast_ones(self):
        def work(x):
            if x == 0:
                time.sleep(0.2)
            return x

        scheduler = ChunkScheduler(jobs=4)
        first_index, _ = next(iter(scheduler.imap_unordered(work, range(4))))
        assert first_index != 0  # the sleeping task finishes last


class TestSerialFallback:
    def test_jobs_one_runs_in_calling_thread(self):
        seen = set()

        def work(x):
            seen.add(threading.get_ident())
            return x

        assert ChunkScheduler(jobs=1).map(work, range(10)) == list(range(10))
        assert list(ChunkScheduler(jobs=1).imap_unordered(work, range(4))) == [
            (i, i) for i in range(4)
        ]
        assert seen == {threading.get_ident()}

    def test_single_item_short_circuits(self):
        seen = set()

        def work(x):
            seen.add(threading.get_ident())
            return x

        assert ChunkScheduler(jobs=8).map(work, [7]) == [7]
        assert seen == {threading.get_ident()}

    def test_is_serial(self):
        assert ChunkScheduler(jobs=1).is_serial()
        assert ChunkScheduler(jobs=1).is_serial(n_tasks=10)
        assert not ChunkScheduler(jobs=2).is_serial()
        assert ChunkScheduler(jobs=2).is_serial(n_tasks=1)


def _pool_threads(before):
    """Live thread-pool workers started since the ``before`` snapshot."""
    return [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith("ThreadPoolExecutor")
    ]


class TestPoolLifetime:
    def test_one_pool_until_close_and_close_is_idempotent(self):
        scheduler = ChunkScheduler(jobs=2)
        try:
            assert scheduler.map(_square, range(8)) == [x * x for x in range(8)]
            pool = scheduler._pool
            assert pool is not None
            assert sorted(scheduler.imap_unordered(_square, range(8))) == [
                (i, i * i) for i in range(8)
            ]
            assert scheduler._pool is pool  # same pool across calls
        finally:
            scheduler.close()
        assert scheduler._pool is None
        scheduler.close()  # idempotent
        # the pool comes back on next use after close
        assert scheduler.map(_square, range(4)) == [0, 1, 4, 9]
        scheduler.close()

    def test_failure_leaves_pool_usable(self):
        def boom(x):
            if x == 2:
                raise ValueError("bad chunk")
            return x

        scheduler = ChunkScheduler(jobs=2)
        try:
            with pytest.raises(ValueError, match="bad chunk"):
                scheduler.map(boom, range(20))
            assert scheduler.map(_square, range(6)) == [x * x for x in range(6)]
        finally:
            scheduler.close()

    @pytest.mark.parametrize("aborted", [False, True], ids=["close", "aborted-with"])
    def test_writer_leaves_no_pool_threads(self, tmp_path, aborted):
        from repro.store import ArchiveWriter

        before = set(threading.enumerate())
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with pytest.raises(RuntimeError) if aborted else contextlib.nullcontext():
            with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(16, 16), max_workers=2) as writer:
                writer.add_field("A", data, codec="lossless")
                assert writer._scheduler._pool is not None  # the pool really ran
                assert _pool_threads(before)
                if aborted:
                    raise RuntimeError("abort the pack")
        assert _pool_threads(before) == []


class TestErrorPropagation:
    @staticmethod
    def _boom(x):
        if x == 3:
            raise ValueError("bad payload")
        return x

    @pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "thread"])
    def test_without_context_raises_raw(self, jobs):
        scheduler = ChunkScheduler(jobs=jobs)
        with pytest.raises(ValueError, match="bad payload"):
            scheduler.map(self._boom, range(8))

    @pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "thread"])
    def test_context_wraps_with_chunk_coordinates(self, jobs):
        scheduler = ChunkScheduler(jobs=jobs)
        with pytest.raises(ChunkTaskError, match=r"field 'T' chunk 3: bad payload") as excinfo:
            scheduler.map(
                self._boom, range(8), context=lambda i, item: f"field 'T' chunk {i}"
            )
        assert excinfo.value.context == "field 'T' chunk 3"
        assert isinstance(excinfo.value.original, ValueError)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_context_wraps_unordered(self):
        scheduler = ChunkScheduler(jobs=2)
        with pytest.raises(ChunkTaskError, match="chunk 3"):
            list(
                scheduler.imap_unordered(
                    self._boom, range(8), context=lambda i, item: f"chunk {i}"
                )
            )

    def test_failure_cancels_queued_window(self):
        executed = []
        lock = threading.Lock()

        def work(x):
            with lock:
                executed.append(x)
            if x == 0:
                raise RuntimeError("chunk failed")
            return x

        # jobs=2 keeps a real pool (jobs=1 would fall back to serial)
        gen = ChunkScheduler(jobs=2).imap(work, range(40))
        with pytest.raises(RuntimeError, match="chunk failed"):
            list(gen)
        # queued window items are cancelled; only tasks already running (at
        # most the 2*jobs window) may have executed
        assert len(executed) <= 4
