"""Timing wrappers installed from outside, around ``repro``'s public entry points.

``repro.core`` and ``repro.nn`` carry no ``repro.obs`` calls and the encode
stages only a few, so the spine cannot read its per-layer budget from the
program.  Instead :class:`Tracer` wraps a fixed table of entry points
(:data:`ENTRY_POINTS`) for the length of one traced repetition: methods are
patched on their classes, module functions are rebound at every ``repro.*``
import site, and :meth:`Tracer.uninstall` puts every original back.

A span is ``[name, metric, start, end, parent, request id, count, bytes]``;
spans live in per-thread lists (so no lock on the hot path) and parents are
per-thread stack positions.  A span's *self time* is its duration minus the
durations of its direct children; summing self times by ``metric`` gives the
per-layer seconds, and on a single-threaded repetition those sums plus the
driver root's own self time equal the traced wall exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "Tracer"]

NAME, METRIC, START, END, PARENT, RID, COUNT, NBYTES = range(8)

#: Chrome-trace dumps are capped so a repetition of 10 000 reads stays loadable.
MAX_DUMPED_EVENTS = 50_000


def _size(value) -> int:
    return int(getattr(value, "size", 0) or 0)


def _huffman_encode(args, kwargs, result):
    return _size(args[1]), len(result[0])


def _huffman_decode(args, kwargs, result):
    return _size(result), len(args[1])


def _points_in(args, kwargs, result):
    return _size(args[1]), 0


def _points_out(args, kwargs, result):
    return _size(result), 0


def _tasks(args, kwargs, result):
    items = args[2] if len(args) > 2 else kwargs.get("items", ())
    return (len(items) if hasattr(items, "__len__") else 0), 0


def _bytes_read(args, kwargs, result):
    return 1, int(args[2] if len(args) > 2 else kwargs.get("length", 0))


#: (module, qualified name, per-layer metric, counter).  The qualified name is
#: the span name.  A counter maps ``(args, kwargs, result)`` to ``(count,
#: bytes)`` and runs after the span closes.
ENTRY_POINTS: List[Tuple[str, str, str, Optional[Callable]]] = [
    # encoding
    ("repro.encoding.huffman", "HuffmanCodec.encode", "encoding.huffman_encode_s", _huffman_encode),
    ("repro.encoding.huffman", "HuffmanCodec.decode", "encoding.huffman_decode_s", _huffman_decode),
    ("repro.encoding.huffman", "HuffmanTable.from_frequencies", "encoding.huffman_table_s", None),
    ("repro.encoding.huffman", "HuffmanTable.from_lengths", "encoding.huffman_table_s", None),
    ("repro.encoding.huffman", "HuffmanTable.to_bytes", "encoding.huffman_table_s", None),
    ("repro.encoding.huffman", "HuffmanTable.from_bytes", "encoding.huffman_table_s", None),
    ("repro.sz.pipeline", "encode_integer_stream", "encoding.stream_s", None),
    ("repro.sz.pipeline", "decode_integer_stream", "encoding.stream_s", None),
    ("repro.encoding.entropy", "HuffmanEntropyCoder.supports", "encoding.stream_s", None),
    ("repro.encoding.entropy", "HuffmanEntropyCoder.encode", "encoding.stream_s", None),
    ("repro.encoding.entropy", "HuffmanEntropyCoder.decode", "encoding.stream_s", None),
    ("repro.encoding.lossless", "ZlibBackend.compress", "encoding.lossless_s", None),
    ("repro.encoding.lossless", "ZlibBackend.decompress", "encoding.lossless_s", None),
    ("repro.encoding.container", "CompressedBlob.to_bytes", "encoding.container_s", None),
    ("repro.encoding.container", "CompressedBlob.from_bytes", "encoding.container_s", None),
    # sz
    ("repro.sz.pipeline", "SZCompressor.compress", "sz.codec_s", _points_in),
    ("repro.sz.pipeline", "SZCompressor.decompress", "sz.codec_s", _points_out),
    ("repro.sz.quantizer", "prequantize", "sz.quantize_s", None),
    ("repro.sz.quantizer", "dequantize", "sz.quantize_s", None),
    ("repro.sz.predictors", "lorenzo_transform", "sz.predict_s", None),
    ("repro.sz.predictors", "lorenzo_inverse", "sz.predict_s", None),
    ("repro.sz.predictors", "lorenzo_predict", "sz.predict_s", None),
    ("repro.sz.predictors", "RegressionPredictor.encode", "sz.predict_s", None),
    ("repro.sz.predictors", "RegressionPredictor.decode", "sz.predict_s", None),
    ("repro.sz.predictors", "InterpolationPredictor.encode", "sz.predict_s", None),
    ("repro.sz.predictors", "InterpolationPredictor.decode", "sz.predict_s", None),
    ("repro.sz.decode", "decode_weighted_wavefront", "sz.wavefront_s", None),
    # zfp
    ("repro.zfp.codec", "ZFPLikeCompressor.compress", "zfp.codec_s", None),
    ("repro.zfp.codec", "ZFPLikeCompressor.decompress", "zfp.codec_s", None),
    ("repro.zfp.codec", "ZFPLikeCompressor.decompress_preview", "zfp.codec_s", None),
    ("repro.zfp.transform", "field_transform_forward", "zfp.transform_s", None),
    ("repro.zfp.transform", "field_transform_inverse", "zfp.transform_s", None),
    ("repro.zfp.layout", "significance_plan", "zfp.layout_s", None),
    ("repro.zfp.layout", "groups_for_fraction", "zfp.layout_s", None),
    ("repro.zfp.layout", "SignificancePlan.group_slices", "zfp.layout_s", None),
    # core
    ("repro.core.compressor", "CrossFieldCompressor.compress", "core.compressor_s", None),
    ("repro.core.compressor", "CrossFieldCompressor.decompress", "core.compressor_s", None),
    ("repro.core.cfnn", "CFNN.train", "core.train_s", None),
    ("repro.core.cfnn", "CFNN.predict_differences", "core.infer_s", None),
    ("repro.core.cfnn", "CFNN.to_bytes", "core.model_io_s", None),
    ("repro.core.cfnn", "CFNN.from_bytes", "core.model_io_s", None),
    ("repro.core.hybrid", "HybridPredictor.fit", "core.hybrid_s", None),
    ("repro.sz.decode", "weighted_predict_full", "core.hybrid_s", None),
    # nn
    ("repro.nn.functional", "conv_forward", "nn.conv_forward_s", None),
    ("repro.nn.functional", "depthwise_conv_forward", "nn.conv_forward_s", None),
    ("repro.nn.functional", "conv_backward", "nn.conv_backward_s", None),
    ("repro.nn.functional", "depthwise_conv_backward", "nn.conv_backward_s", None),
    ("repro.nn.trainer", "Trainer.fit", "nn.trainer_s", None),
    # parallel
    ("repro.parallel.engine", "ChunkScheduler.map", "parallel.dispatch_s", None),
    ("repro.parallel.engine", "ChunkScheduler.imap", "parallel.dispatch_s", _tasks),
    ("repro.parallel.engine", "ChunkScheduler.imap_unordered", "parallel.dispatch_s", _tasks),
    # store
    ("repro.store.writer", "ArchiveWriter.__init__", "store.writer_s", None),
    ("repro.store.writer", "ArchiveWriter.add_field", "store.writer_s", None),
    ("repro.store.writer", "ArchiveWriter.close", "store.writer_s", None),
    ("repro.store.writer", "ArchiveWriter.flush", "store.writer_flush_s", None),
    ("repro.store.codecs", "SZChunkCodec.encode", "store.codecs_s", None),
    ("repro.store.codecs", "SZChunkCodec.decode", "store.codecs_s", None),
    ("repro.store.codecs", "ZFPChunkCodec.encode", "store.codecs_s", None),
    ("repro.store.codecs", "ZFPChunkCodec.decode", "store.codecs_s", None),
    ("repro.store.codecs", "ZFPChunkCodec.decode_preview", "store.codecs_s", None),
    ("repro.store.codecs", "CrossFieldChunkCodec.encode", "store.codecs_s", None),
    ("repro.store.codecs", "CrossFieldChunkCodec.decode", "store.codecs_s", None),
    ("repro.store.reader", "ArchiveReader.__init__", "store.reader_open_s", None),
    ("repro.store.reader", "ArchiveReader.close", "store.reader_open_s", None),
    ("repro.store.reader", "ArchiveReader.read_region", "store.reader_assemble_s", None),
    ("repro.store.reader", "ArchiveReader.read_region_preview", "store.reader_assemble_s", None),
    ("repro.store.reader", "ChunkFetcher.get_chunk", "store.fetch_s", None),
    ("repro.store.reader", "ChunkFetcher.get_chunk_preview", "store.fetch_s", None),
    ("repro.store.bytestore", "open_bytestore", "store.bytestore_s", None),
    ("repro.store.bytestore", "FileByteStore.pread", "store.bytestore_s", _bytes_read),
    ("repro.store.bytestore", "MmapByteStore.pread", "store.bytestore_s", _bytes_read),
    ("repro.store.bytestore", "MmapByteStore.view", "store.bytestore_s", _bytes_read),
    ("repro.store.cache", "LRUChunkCache.get", "store.cache_s", None),
    ("repro.store.cache", "LRUChunkCache.put", "store.cache_s", None),
    ("repro.store.shared_cache", "SharedChunkCache.get", "store.cache_s", None),
    ("repro.store.shared_cache", "SharedChunkCache.put", "store.cache_s", None),
    ("repro.store.shared_cache", "SharedChunkCache.get_or_compute", "store.cache_s", None),
    # serve (the stdlib handler's do_GET is added by the serve-http workload,
    # from the running server's RequestHandlerClass)
    ("repro.serve.service", "ArchiveService.dispatch", "serve.dispatch_s", None),
    ("repro.serve.service", "ArchiveService.handle_manifest", "serve.handler_s", None),
    ("repro.serve.service", "ArchiveService.handle_region", "serve.handler_s", None),
    ("repro.serve.service", "ArchiveService.handle_preview", "serve.handler_s", None),
]


class _ThreadState:
    __slots__ = ("spans", "stack", "rid")

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.rid = None


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[int, List[list]]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append((threading.get_ident(), state.spans))
            return state

    def set_request(self, rid) -> None:
        """Tag the calling thread's following spans with request id ``rid``."""
        self._state().rid = rid

    def wrap(self, fn: Callable, name: str, metric: str, counter=None, rid_from=None) -> Callable:
        """Return ``fn`` wrapped in a span; ``rid_from(*args)`` names the request."""
        state_of = self._state
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            spans = state.spans
            if rid_from is not None:
                state.rid = rid_from(*args)
            span = [name, metric, perf(), 0.0, stack[-1] if stack else -1, state.rid, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
            if counter is not None:
                span[COUNT], span[NBYTES] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, metric: str):
        """A span around harness code (the driver root, client calls, checks)."""
        state = self._state()
        stack = state.stack
        span = [name, metric, time.perf_counter(), 0.0, stack[-1] if stack else -1, state.rid, 0, 0]
        stack.append(len(state.spans))
        state.spans.append(span)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def add_method(self, cls, attr: str, name: str, metric: str, counter=None, rid_from=None) -> None:
        """Patch ``cls.attr`` (plain, class or static method) on the class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(self.wrap(raw.__func__, name, metric, counter, rid_from))
        else:
            traced = self.wrap(raw, name, metric, counter, rid_from)
        setattr(cls, attr, traced)
        self._patches.append((cls, attr, raw))

    def add_function(self, module, attr: str, metric: str, counter=None) -> None:
        """Rebind ``module.attr`` wherever a loaded ``repro`` module holds it."""
        original = getattr(module, attr)
        traced = self.wrap(original, attr, metric, counter)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        # import every module first, so that each `from x import f` site exists
        modules = {path: importlib.import_module(path) for path, *_ in ENTRY_POINTS}
        for path, qualname, metric, counter in ENTRY_POINTS:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                self.add_method(getattr(modules[path], owner_name), attr, qualname, metric, counter)
            else:
                self.add_function(modules[path], attr, metric, counter)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def threads(self) -> List[Tuple[int, List[list]]]:
        with self._lock:
            return list(self._threads)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per metric: span duration minus direct-child coverage."""
        totals: Dict[str, float] = {}
        for _, spans in self.threads():
            covered = [0.0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    covered[span[PARENT]] += span[END] - span[START]
            for span, child_seconds in zip(spans, covered):
                own = span[END] - span[START] - child_seconds
                totals[span[METRIC]] = totals.get(span[METRIC], 0.0) + own
        return totals

    def totals(self, *names: str) -> Tuple[int, int, int]:
        """``(calls, count, bytes)`` summed over the spans called ``names``."""
        calls = count = nbytes = 0
        for _, spans in self.threads():
            for span in spans:
                if span[NAME] in names:
                    calls += 1
                    count += span[COUNT]
                    nbytes += span[NBYTES]
        return calls, count, nbytes

    def dump_chrome_trace(self, path) -> int:
        """Write the spans as Chrome-trace JSON; returns the events written."""
        events = []
        dropped = 0
        origin = min(
            (spans[0][START] for _, spans in self.threads() if spans), default=0.0
        )
        for tid, spans in self.threads():
            for span in spans:
                if len(events) >= MAX_DUMPED_EVENTS:
                    dropped += 1
                    continue
                events.append(
                    {
                        "name": span[NAME],
                        "cat": span[METRIC],
                        "ph": "X",
                        "ts": (span[START] - origin) * 1e6,
                        "dur": (span[END] - span[START]) * 1e6,
                        "pid": 0,
                        "tid": tid,
                        "args": {"request": span[RID], "count": span[COUNT], "bytes": span[NBYTES]},
                    }
                )
        document = {"traceEvents": events, "displayTimeUnit": "ms", "droppedEvents": dropped}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return len(events)
