"""Shared chunk execution engine: one scheduler for both directions of the stack.

Every layer of this system ultimately reduces to the same shape of work —
*plan* a list of independent chunk tasks, *submit* them to a pool, *collect*
the results — yet the write path (archive packing) and the read path (region
reads, full-field decode, verification) each used to carry their own copy of
that orchestration.  :class:`ChunkScheduler` is the single implementation they
share now:

- **One backend, threads**: NumPy ufuncs and zlib release the GIL, so chunk
  codecs scale across cores in one process.  ``jobs=1`` runs the serial
  in-process reference loop instead (debugging, and the baseline in speedup
  measurements).
- **Windowed submission**: ordered streaming submits at most
  ``WINDOW_FACTOR * jobs`` tasks ahead of the consumer, so a caller that
  processes results as they arrive (the archive writer appending payloads to
  disk) holds one window of results in memory, never the whole output.
- **Ordered and unordered collection**: :meth:`imap` preserves task order
  (required when results are streamed to an append-only file);
  :meth:`imap_unordered` yields ``(index, result)`` pairs as tasks finish
  (the read path assembles chunks into a preallocated array, so arrival
  order is irrelevant and the fastest chunk never waits for the slowest).
- **Per-task error context**: pass ``context=`` to have worker failures
  re-raised as :class:`ChunkTaskError` naming the failing task (e.g.
  ``"field 'T' chunk 3"``) with the original exception chained and preserved
  on ``.original``.

``jobs`` follows the convention of build tools: ``None`` picks a default
sized to the machine, ``1`` *guarantees* serial in-process execution (no pool
is created at all), ``n`` uses ``n`` workers.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.obs import recorder as _obs

__all__ = ["ChunkScheduler", "ChunkTaskError", "default_jobs"]

#: In-flight tasks per worker on the ordered streaming path.
WINDOW_FACTOR = 2

#: Description callback: maps ``(task_index, item)`` to a human-readable label.
ContextFn = Callable[[int, Any], str]


def default_jobs() -> int:
    """Default worker count (mirrors :class:`~concurrent.futures.ThreadPoolExecutor`)."""
    return min(32, (os.cpu_count() or 1) + 4)


class ChunkTaskError(RuntimeError):
    """One chunk task failed; the message says *which* chunk and *why*.

    Raised by :class:`ChunkScheduler` methods called with a ``context``
    callback.  ``context`` is the human-readable task label, ``original`` is
    the exception the worker raised (also chained as ``__cause__``).
    """

    def __init__(self, context: str, original: BaseException) -> None:
        super().__init__(f"{context}: {original}")
        self.context = context
        self.original = original


class ChunkScheduler:
    """Plan → submit → collect orchestration for independent chunk tasks.

    Parameters
    ----------
    jobs:
        Worker count.  ``None`` uses :func:`default_jobs`; ``1`` executes
        serially in the calling thread (no pool); values below 1 are rejected.

    The pool is created on first parallel use and kept until :meth:`close`
    (safe to call more than once; the pool is recreated on next use), so hot
    paths issuing many small batches — an archive reader serving region
    reads — never pay per-call pool construction.  One instance can be
    shared by concurrent callers, e.g. many threads issuing
    :meth:`imap_unordered` reads against one archive reader.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None:
            if isinstance(jobs, bool) or not isinstance(jobs, int):
                raise ValueError(f"jobs must be an integer or None, got {jobs!r}")
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def effective_jobs(self) -> int:
        """The worker count the thread pool would actually use."""
        return self.jobs if self.jobs is not None else default_jobs()

    def is_serial(self, n_tasks: Optional[int] = None) -> bool:
        """True when execution falls back to the in-process serial loop."""
        return self.effective_jobs == 1 or (n_tasks is not None and n_tasks <= 1)

    # ------------------------------------------------------------------ #
    # collection
    # ------------------------------------------------------------------ #
    def map(self, func, items: Iterable, context: Optional[ContextFn] = None) -> List:
        """Apply ``func`` to every item and return results in item order."""
        return list(self.imap(func, items, context=context))

    def imap(self, func, items: Iterable, context: Optional[ContextFn] = None) -> Iterator:
        """Yield ``func(item)`` results in item order, with windowed submission.

        Validation and the item snapshot happen eagerly — the generator body
        only runs on first iteration, which would otherwise defer (or swallow)
        configuration errors.
        """
        items = list(items)
        task = self._instrument(func)
        if self.is_serial(len(items)):
            return self._serial_iter(func, items, context, task)
        return self._imap_ordered(func, items, context, task)

    def imap_unordered(
        self, func, items: Iterable, context: Optional[ContextFn] = None
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, func(item))`` pairs in completion order.

        ``index`` is the item's position in the input, so callers can place
        each result without waiting for earlier tasks — slow chunks never
        block fast ones.  The full input is submitted up front (collection is
        unordered precisely because the caller wants everything), so prefer
        :meth:`imap` when results must stream to an ordered sink.
        """
        items = list(items)
        task = self._instrument(func)
        if self.is_serial(len(items)):
            return (
                (i, result)
                for i, result in enumerate(self._serial_iter(func, items, context, task))
            )
        return self._imap_unordered(func, items, context, task)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _acquire_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        """The scheduler's pool, created on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.effective_jobs)
            return self._pool

    def close(self) -> None:
        """Release the pool (idempotent; the pool returns on next use)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _instrument(func: Callable) -> Optional[Callable]:
        """``func`` wrapped with queue-wait/duration metrics, or ``None`` when disabled.

        The wrapper is called as ``task(item, submitted)`` where ``submitted``
        is the submitting thread's ``perf_counter()``.  Workers are threads of
        this process, so it records straight into the global recorder.  With
        telemetry disabled the raw ``func`` runs unwrapped — the instrumented
        path costs nothing.
        """
        if not _obs.enabled():
            return None

        def task(item, submitted: float):
            recorder = _obs.get_recorder()
            start = time.perf_counter()
            recorder.observe("scheduler.queue_wait_seconds", max(0.0, start - submitted))
            result = func(item)
            recorder.observe("scheduler.task_seconds", time.perf_counter() - start)
            recorder.count("scheduler.tasks")
            return result

        return task

    @staticmethod
    def _wrap_error(
        exc: BaseException, index: int, item, context: Optional[ContextFn]
    ) -> BaseException:
        """Attach task context to a worker failure (no-op without ``context``)."""
        if context is None or isinstance(exc, ChunkTaskError):
            return exc
        return ChunkTaskError(context(index, item), exc)

    def _serial_iter(self, func, items, context, task=None) -> Iterator:
        for index, item in enumerate(items):
            try:
                if task is not None:
                    yield task(item, time.perf_counter())
                else:
                    yield func(item)
            except Exception as exc:
                wrapped = self._wrap_error(exc, index, item, context)
                if wrapped is exc:
                    raise
                raise wrapped from exc

    def _imap_ordered(self, func, items, context, task=None) -> Iterator:
        if task is None:
            submit = lambda item: pool.submit(func, item)  # noqa: E731
        else:
            submit = lambda item: pool.submit(task, item, time.perf_counter())  # noqa: E731
        window = WINDOW_FACTOR * self.effective_jobs
        pool = self._acquire_pool()
        pending = deque((i, items[i], submit(items[i])) for i in range(min(window, len(items))))
        try:
            for i in range(window, len(items)):
                yield self._collect(pending.popleft(), context)
                pending.append((i, items[i], submit(items[i])))
            while pending:
                yield self._collect(pending.popleft(), context)
        except BaseException:
            # a failed task (or an abandoned consumer) must not stall on the
            # rest of the submission window: drop queued work, keep only the
            # futures already running
            for _, _, future in pending:
                future.cancel()
            raise

    def _imap_unordered(self, func, items, context, task=None) -> Iterator[Tuple[int, Any]]:
        pool = self._acquire_pool()
        if task is None:
            futures = {pool.submit(func, item): (i, item) for i, item in enumerate(items)}
        else:
            futures = {
                pool.submit(task, item, time.perf_counter()): (i, item)
                for i, item in enumerate(items)
            }
        pending = set(futures)
        try:
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    # pop: once yielded, the future (and its result) must be
                    # collectable — a consumer that assembles results into its
                    # own buffer should never hold two copies
                    index, item = futures.pop(future)
                    yield index, self._collect((index, item, future), context)
        except BaseException:
            for future in pending:
                future.cancel()
            raise

    def _collect(self, task: Tuple[int, Any, concurrent.futures.Future], context):
        index, item, future = task
        try:
            return future.result()
        except Exception as exc:
            wrapped = self._wrap_error(exc, index, item, context)
            if wrapped is exc:
                raise
            raise wrapped from exc
