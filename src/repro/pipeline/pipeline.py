"""Config-driven end-to-end compression pipeline over the XFA1 archive store.

:class:`CompressionPipeline` is the one high-level entry point that ties the
repo's layers together: it takes a :class:`~repro.pipeline.config.PipelineConfig`
(default codec, error bound, chunk grid, per-field rules) and a
:class:`~repro.data.fields.FieldSet`, compresses every field chunk-by-chunk in
parallel through the store's codec registry (:mod:`repro.store.codecs` — the
SZ baseline, the ZFP-like coder, the paper's cross-field compressor, the exact
lossless codec), and writes the result as one random-access ``XFA1`` archive.
Decompression is the inverse: any subset of fields (or regions, through
:class:`~repro.store.reader.ArchiveReader`) comes back without re-reading the
configuration — the archive manifest is self-describing.

The pipeline records its own configuration JSON in the archive attributes
(``pipeline_config``), so every archive documents how it was produced.

:func:`reconstruct_anchors` is the shared in-memory helper for cross-field
workflows that do *not* go through an archive (the experiment runners, the
quickstart example): it compresses and decompresses anchor fields with the SZ
baseline so predictor inputs match what a decompressor will see.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.fields import Field, FieldSet
from repro.obs import recorder as _obs
from repro.pipeline.config import PipelineConfig, PipelineConfigError
from repro.store.manifest import FieldEntry
from repro.store.reader import ArchiveReader
from repro.store.writer import ArchiveWriter
from repro.sz.errors import ErrorBound

__all__ = [
    "CompressionPipeline",
    "PipelineResult",
    "reconstruct_anchors",
]

PathLike = Union[str, os.PathLike]


def _human_ratio(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:.2f}x"


@dataclass
class PipelineResult:
    """Outcome of :meth:`CompressionPipeline.compress` (and ``repro run``)."""

    archive: Path
    #: the archive manifest's entry for every field written
    fields: List[FieldEntry] = field(default_factory=list)
    seconds: float = 0.0
    verify_report: Optional[Dict] = None
    extras: Dict = field(default_factory=dict)

    @property
    def original_nbytes(self) -> int:
        """Total uncompressed bytes across all fields."""
        return sum(f.original_nbytes for f in self.fields)

    @property
    def compressed_nbytes(self) -> int:
        """Total compressed payload bytes across all fields."""
        return sum(f.compressed_nbytes for f in self.fields)

    @property
    def ratio(self) -> float:
        """Aggregate compression ratio."""
        compressed = self.compressed_nbytes
        if compressed == 0:
            return float("inf")
        return self.original_nbytes / compressed

    @property
    def verified_ok(self) -> Optional[bool]:
        """Verification verdict (``None`` when verification was not run)."""
        if self.verify_report is None:
            return None
        return bool(self.verify_report.get("ok"))

    def format(self) -> str:
        """Human-readable per-field summary table."""
        lines = [
            f"{'field':<12} {'codec':<12} {'shape':<16} {'ratio':>8}  anchors",
        ]
        for entry in self.fields:
            anchors = ",".join(entry.anchors) if entry.anchors else "-"
            lines.append(
                f"{entry.name:<12} {entry.codec:<12} "
                f"{'x'.join(map(str, entry.shape)):<16} "
                f"{_human_ratio(entry.ratio):>8}  {anchors}"
            )
        lines.append(
            f"total: {self.original_nbytes} -> {self.compressed_nbytes} bytes "
            f"({_human_ratio(self.ratio)}) in {self.seconds:.2f}s -> {self.archive}"
        )
        if self.verify_report is not None:
            lines.append(f"verification: {'ok' if self.verified_ok else 'FAILED'}")
        return "\n".join(lines)


class CompressionPipeline:
    """End-to-end, config-driven compression of named field sets.

    Parameters
    ----------
    config:
        A :class:`~repro.pipeline.config.PipelineConfig`; it is validated on
        construction so misconfigurations fail before any compression work.

    Examples
    --------
    >>> from repro.data import make_dataset  # doctest: +SKIP
    >>> from repro.pipeline import CompressionPipeline, PipelineConfig  # doctest: +SKIP
    >>> pipeline = CompressionPipeline(PipelineConfig(codec="sz"))  # doctest: +SKIP
    >>> result = pipeline.compress(make_dataset("cesm"), "snapshot.xfa")  # doctest: +SKIP
    >>> restored = pipeline.decompress("snapshot.xfa")  # doctest: +SKIP
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = (config if config is not None else PipelineConfig()).validate()

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def _ordered_names(self, fieldset: FieldSet, names: Sequence[str]) -> List[str]:
        """Write order: plain fields first, anchored targets after their anchors."""
        plain: List[str] = []
        anchored: List[str] = []
        selected = set(names)
        for name in names:
            rule = self.config.rule_for(name)
            if rule.anchors:
                for anchor in rule.anchors:
                    if anchor not in fieldset:
                        raise PipelineConfigError(
                            f"field {name!r}: anchor {anchor!r} is not in the field set "
                            f"(available: {fieldset.names})"
                        )
                    if anchor not in selected:
                        raise PipelineConfigError(
                            f"field {name!r}: anchor {anchor!r} is not part of the "
                            "compressed selection; anchors must be stored in the same archive"
                        )
                anchored.append(name)
            else:
                plain.append(name)
        return plain + anchored

    def compress(
        self,
        fieldset: FieldSet,
        path: PathLike,
        fields: Optional[Sequence[str]] = None,
    ) -> PipelineResult:
        """Compress ``fieldset`` into one XFA1 archive at ``path``.

        ``fields`` selects a subset (default: every field).  Fields with
        anchored rules are written after their anchors, which the archive
        writer requires; the effective configuration is stored in the archive
        attributes under ``"pipeline_config"``.
        """
        config = self.config
        names = list(fields) if fields is not None else fieldset.names
        for name in names:
            if name not in fieldset:
                raise PipelineConfigError(
                    f"field {name!r} is not in the field set (available: {fieldset.names})"
                )
        ordered = self._ordered_names(fieldset, names)
        attrs = dict(config.attrs)
        attrs.setdefault("dataset", fieldset.name)
        attrs["pipeline"] = config.name
        attrs["pipeline_config"] = config.to_dict()

        start = time.perf_counter()
        with ArchiveWriter(
            path,
            codec=config.codec,
            error_bound=config.error_bound,
            chunk_shape=config.chunk_shape,
            max_workers=config.jobs,
            attrs=attrs,
        ) as writer:
            entries: List[FieldEntry] = []
            for name in ordered:
                rule = config.rule_for(name)
                with _obs.span(
                    "pipeline.compress.field_seconds",
                    field=name,
                    codec=config.codec_for(name),
                ):
                    entries.append(
                        writer.add_field(
                            name,
                            fieldset[name].data,
                            codec=config.codec_for(name),
                            error_bound=config.error_bound_for(name),
                            chunk_shape=rule.chunk_shape,
                            anchors=rule.anchors,
                            **rule.codec_params,
                        )
                    )
        seconds = time.perf_counter() - start
        return PipelineResult(
            archive=Path(path),
            fields=entries,
            seconds=seconds,
        )

    # ------------------------------------------------------------------ #
    # decompression / verification
    # ------------------------------------------------------------------ #
    def decompress(
        self,
        path: PathLike,
        fields: Optional[Sequence[str]] = None,
    ) -> FieldSet:
        """Read an archive back into a :class:`~repro.data.fields.FieldSet`.

        No configuration is needed to decode — the archive manifest records
        every codec and parameter — so this works on any XFA1 archive, not
        just ones this pipeline wrote.  ``fields`` selects a subset.  Chunk
        decodes run through the shared execution engine, honouring the
        config's ``jobs`` knob.
        """
        with ArchiveReader(path, jobs=self.config.jobs) as reader:
            names = list(fields) if fields is not None else reader.names
            decoded: List[Field] = []
            for name in names:
                with _obs.span("pipeline.decompress.field_seconds", field=name):
                    decoded.append(Field(name, reader.read_field(name)))
            restored = FieldSet(
                decoded,
                name=str(reader.attrs.get("dataset", Path(path).stem)),
            )
        return restored

    def verify(self, path: PathLike, deep: bool = True) -> Dict:
        """CRC-check (and with ``deep=True`` fully decode) every chunk.

        Returns the :meth:`~repro.store.reader.ArchiveReader.verify` report:
        ``{"ok": bool, "fields": {...}, "errors": [...]}``.  Chunk checks run
        through the shared execution engine (``jobs``).
        """
        with ArchiveReader(path, jobs=self.config.jobs) as reader:
            with _obs.span("pipeline.verify_seconds", deep=deep):
                return reader.verify(deep=deep)


def reconstruct_anchors(
    fieldset: FieldSet,
    anchor_names: Sequence[str],
    error_bound: Union[ErrorBound, Dict, float],
    cache: Optional[Dict] = None,
    cache_key: Tuple = (),
) -> List[np.ndarray]:
    """Baseline-compress and decompress anchor fields, returning float64 arrays.

    Cross-field prediction must run on the anchors *as the decompressor will
    see them*, i.e. after an error-bounded round trip — not on the originals.
    This helper centralises that round trip for in-memory workflows (the
    experiment runners, examples); archive-based workflows get the same
    guarantee from the store itself, which reconstructs anchor chunks from the
    archive.

    ``error_bound`` is anything :meth:`ErrorBound.coerce` accepts: an
    :class:`ErrorBound`, its dict form, or a bare number (interpreted as a
    value-range-relative bound).  ``cache`` is an optional mutable mapping
    shared across calls; reconstructions are memoised under
    ``(*cache_key, name)`` so several targets with overlapping anchors reuse
    them.
    """
    from repro.sz.pipeline import SZCompressor

    error_bound = ErrorBound.coerce(error_bound)
    baseline = SZCompressor(error_bound=error_bound)
    reconstructed: List[np.ndarray] = []
    for name in anchor_names:
        key = (*cache_key, name)
        if cache is not None and key in cache:
            reconstructed.append(cache[key])
            continue
        payload = baseline.compress(fieldset[name].data, field_name=name).payload
        recon = baseline.decompress(payload).astype(np.float64)
        if cache is not None:
            cache[key] = recon
        reconstructed.append(recon)
    return reconstructed
