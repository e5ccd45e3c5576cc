"""Validated, JSON-round-trippable configuration for the compression pipeline.

A :class:`PipelineConfig` is the single declarative object that tells
:class:`~repro.pipeline.pipeline.CompressionPipeline` how to compress a field
set: the default codec and error bound, the chunk grid, the worker pool, and
per-field overrides (:class:`FieldRule`) — including cross-field rules that
name anchor fields, exactly mirroring what the XFA1 archive writer supports.

The JSON form is the configuration's canonical exchange format: it is what
``repro compress <config.json>`` reads, what the archive records in its
attributes for provenance, and what :mod:`repro.pipeline.scenarios` presets
serialise to.  Round-tripping is exact::

    PipelineConfig.from_json(config.to_json()).to_dict() == config.to_dict()

Parsing is *strict*: unknown keys raise :class:`PipelineConfigError` instead of
being silently dropped, so a typo in a config file fails loudly rather than
falling back to a default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.encoding.entropy import get_entropy_coder
from repro.store.codecs import check_codec_params, codec_class
from repro.sz.errors import ErrorBound

__all__ = ["PipelineConfigError", "FieldRule", "PipelineConfig"]

PathLike = Union[str, os.PathLike]


class PipelineConfigError(ValueError):
    """Raised when a pipeline configuration is malformed or inconsistent."""


def _as_error_bound(value, context: str) -> ErrorBound:
    """Coerce an :class:`ErrorBound`, its dict form, or a bare number (relative)."""
    try:
        if isinstance(value, ErrorBound):
            return value
        if isinstance(value, dict):
            return ErrorBound.from_dict(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return ErrorBound.relative(float(value))
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineConfigError(f"{context}: invalid error bound {value!r}: {exc}") from exc
    raise PipelineConfigError(
        f"{context}: error bound must be an ErrorBound, a {{mode, value}} dict, "
        f"or a number (relative), got {type(value).__name__}"
    )


def _as_chunk_shape(value, context: str) -> Optional[Tuple[int, ...]]:
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        raise PipelineConfigError(
            f"{context}: chunk shape must be a list of ints, got the string {value!r}"
        )
    try:
        shape = tuple(int(c) for c in value)
    except (TypeError, ValueError) as exc:
        raise PipelineConfigError(f"{context}: chunk shape {value!r} is not a sequence of ints") from exc
    if not shape or any(c <= 0 for c in shape):
        raise PipelineConfigError(f"{context}: chunk shape entries must be positive, got {shape}")
    return shape


def _check_keys(payload: Dict, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise PipelineConfigError(
            f"{context}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _check_codec(name: str, context: str) -> None:
    try:
        codec_class(name)
    except ValueError as exc:
        raise PipelineConfigError(f"{context}: {exc}") from exc


@dataclass
class FieldRule:
    """Per-field override of the pipeline defaults.

    Every attribute is optional; ``None`` / empty means "use the pipeline
    default".  ``anchors`` names other fields of the same field set and is
    required for (and only valid with) codecs that declare
    ``requires_anchors`` (the cross-field codec).  ``codec_params`` is passed
    through to the codec constructor and must stay JSON-serialisable — it ends
    up in the archive manifest.
    """

    codec: Optional[str] = None
    error_bound: Optional[ErrorBound] = None
    anchors: Tuple[str, ...] = ()
    chunk_shape: Optional[Tuple[int, ...]] = None
    codec_params: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.error_bound is not None:
            self.error_bound = _as_error_bound(self.error_bound, "field rule")
        if isinstance(self.anchors, (str, bytes)):
            raise PipelineConfigError(
                f"field rule: anchors must be a list of field names, got the "
                f"string {self.anchors!r}"
            )
        self.anchors = tuple(str(a) for a in self.anchors)
        self.chunk_shape = _as_chunk_shape(self.chunk_shape, "field rule")

    def to_dict(self) -> Dict:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        payload: Dict = {}
        if self.codec is not None:
            payload["codec"] = self.codec
        if self.error_bound is not None:
            payload["error_bound"] = self.error_bound.to_dict()
        if self.anchors:
            payload["anchors"] = list(self.anchors)
        if self.chunk_shape is not None:
            payload["chunk_shape"] = list(self.chunk_shape)
        if self.codec_params:
            payload["codec_params"] = dict(self.codec_params)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict, context: str = "field rule") -> "FieldRule":
        """Parse the dict form, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise PipelineConfigError(f"{context}: expected an object, got {type(payload).__name__}")
        _check_keys(
            payload,
            ("codec", "error_bound", "anchors", "chunk_shape", "codec_params"),
            context,
        )
        codec_params = payload.get("codec_params", {})
        if not isinstance(codec_params, dict):
            raise PipelineConfigError(
                f"{context}: codec_params must be an object, got {type(codec_params).__name__}"
            )
        return cls(
            codec=payload.get("codec"),
            error_bound=(
                _as_error_bound(payload["error_bound"], context)
                if "error_bound" in payload
                else None
            ),
            anchors=payload.get("anchors", ()),
            chunk_shape=payload.get("chunk_shape"),
            codec_params=dict(codec_params),
        )


@dataclass
class PipelineConfig:
    """Declarative description of one end-to-end compression run.

    Parameters
    ----------
    name:
        Free-form label recorded in the archive attributes.
    codec:
        Default codec registry name for every field without a rule.
    error_bound:
        Default error bound for lossy codecs (relative bounds are resolved
        against each full field, matching single-shot semantics).
    chunk_shape:
        Default chunk tile; ``None`` lets the archive writer pick 64 per axis.
    jobs:
        Worker count for the shared chunk execution engine, used by *both*
        directions: per-chunk compression on write and per-chunk decode on
        :meth:`~repro.pipeline.pipeline.CompressionPipeline.decompress` /
        ``verify``.  ``jobs=None`` sizes the thread pool to the machine,
        ``jobs=1`` forces the serial reference loop.
    fields:
        ``{field_name: FieldRule}`` overrides, including cross-field rules.
    source / output:
        Optional conveniences for ``repro compress``: a fieldset directory or
        synthetic dataset name, and the archive path to write.  The pipeline
        API itself takes these explicitly and ignores both.
    attrs:
        Extra JSON-serialisable attributes stored in the archive.
    """

    name: str = "pipeline"
    codec: str = "sz"
    error_bound: ErrorBound = field(default_factory=lambda: ErrorBound.relative(1e-3))
    chunk_shape: Optional[Tuple[int, ...]] = None
    jobs: Optional[int] = None
    fields: Dict[str, FieldRule] = field(default_factory=dict)
    source: Optional[str] = None
    output: Optional[str] = None
    attrs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.error_bound = _as_error_bound(self.error_bound, "pipeline")
        self.chunk_shape = _as_chunk_shape(self.chunk_shape, "pipeline")

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    def rule_for(self, field_name: str) -> FieldRule:
        """The rule for ``field_name`` (an all-defaults rule when absent)."""
        return self.fields.get(field_name, FieldRule())

    def codec_for(self, field_name: str) -> str:
        """Effective codec registry name for ``field_name``."""
        rule = self.rule_for(field_name)
        return rule.codec if rule.codec is not None else self.codec

    def error_bound_for(self, field_name: str) -> ErrorBound:
        """Effective error bound for ``field_name``."""
        rule = self.rule_for(field_name)
        return rule.error_bound if rule.error_bound is not None else self.error_bound

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "PipelineConfig":
        """Check internal consistency; returns ``self`` so calls can chain.

        Raises :class:`PipelineConfigError` on the first problem found:
        unknown codec names, anchor rules that do not match their codec's
        ``requires_anchors`` declaration, anchors that are themselves anchored
        targets (the store requires anchors to decode without further
        anchors), self-anchoring, duplicate anchors, ``codec_params`` the
        codec's constructor does not take, bad ``jobs`` values, or
        non-serialisable ``attrs``.
        """
        if not isinstance(self.name, str) or not self.name:
            raise PipelineConfigError("pipeline name must be a non-empty string")
        _check_codec(self.codec, "pipeline codec")
        if self.jobs is not None:
            if isinstance(self.jobs, bool) or not isinstance(self.jobs, int):
                raise PipelineConfigError(f"jobs must be an integer, got {self.jobs!r}")
            if self.jobs < 1:
                raise PipelineConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not isinstance(self.attrs, dict):
            raise PipelineConfigError(
                f"attrs must be an object, got {type(self.attrs).__name__}"
            )
        try:
            json.dumps(self.attrs, sort_keys=True)
        except TypeError as exc:
            raise PipelineConfigError(f"attrs must be JSON-serialisable: {exc}") from exc

        for field_name, rule in self.fields.items():
            context = f"field {field_name!r}"
            if not isinstance(rule, FieldRule):
                raise PipelineConfigError(f"{context}: rule must be a FieldRule")
            codec_name = rule.codec if rule.codec is not None else self.codec
            _check_codec(codec_name, context)
            cls = codec_class(codec_name)
            if cls.requires_anchors and not rule.anchors:
                raise PipelineConfigError(
                    f"{context}: codec {codec_name!r} requires at least one anchor field"
                )
            if rule.anchors and not cls.requires_anchors:
                raise PipelineConfigError(
                    f"{context}: codec {codec_name!r} does not accept anchor fields"
                )
            if field_name in rule.anchors:
                raise PipelineConfigError(f"{context}: a field cannot anchor itself")
            if len(set(rule.anchors)) != len(rule.anchors):
                raise PipelineConfigError(f"{context}: anchor names must be distinct")
            target_chunk = rule.chunk_shape if rule.chunk_shape is not None else self.chunk_shape
            for anchor in rule.anchors:
                anchor_rule = self.fields.get(anchor)
                if anchor_rule is not None and anchor_rule.anchors:
                    raise PipelineConfigError(
                        f"{context}: anchor {anchor!r} is itself a cross-field target; "
                        "anchors must be stored with a non-anchored codec"
                    )
                anchor_chunk = (
                    anchor_rule.chunk_shape
                    if anchor_rule is not None and anchor_rule.chunk_shape is not None
                    else self.chunk_shape
                )
                if anchor_chunk != target_chunk:
                    # fields of a set share one grid, so differing configured
                    # tiles always produce misaligned chunk grids — the store
                    # would reject this mid-write, after compressing anchors
                    raise PipelineConfigError(
                        f"{context}: chunk shape {target_chunk} does not match anchor "
                        f"{anchor!r} chunk shape {anchor_chunk} (aligned grids required)"
                    )
            if not isinstance(rule.codec_params, dict):
                raise PipelineConfigError(
                    f"{context}: codec_params must be an object, got "
                    f"{type(rule.codec_params).__name__}"
                )
            # these already have dedicated config keys; letting them through
            # would collide with the writer's explicit keyword arguments
            reserved = sorted(
                set(rule.codec_params) & {"codec", "error_bound", "chunk_shape", "anchors"}
            )
            if reserved:
                raise PipelineConfigError(
                    f"{context}: codec_params must not set {reserved}; use the "
                    "dedicated rule key(s) instead"
                )
            try:
                check_codec_params(codec_name, rule.codec_params)
            except ValueError as exc:
                raise PipelineConfigError(f"{context}: {exc}") from exc
            if "entropy" in rule.codec_params:
                # entropy modes come from the pluggable coder registry, so a
                # typo fails here — at validation time — not mid-compression
                try:
                    get_entropy_coder(rule.codec_params["entropy"])
                except (TypeError, ValueError) as exc:
                    raise PipelineConfigError(f"{context}: {exc}") from exc
            try:
                json.dumps(rule.codec_params, sort_keys=True)
            except TypeError as exc:
                raise PipelineConfigError(
                    f"{context}: codec_params must be JSON-serialisable: {exc}"
                ) from exc
        return self

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        payload: Dict = {
            "name": self.name,
            "codec": self.codec,
            "error_bound": self.error_bound.to_dict(),
        }
        if self.chunk_shape is not None:
            payload["chunk_shape"] = list(self.chunk_shape)
        if self.jobs is not None:
            payload["jobs"] = int(self.jobs)
        if self.fields:
            payload["fields"] = {name: rule.to_dict() for name, rule in self.fields.items()}
        if self.source is not None:
            payload["source"] = self.source
        if self.output is not None:
            payload["output"] = self.output
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineConfig":
        """Parse the dict form strictly and validate the result."""
        if not isinstance(payload, dict):
            raise PipelineConfigError(f"config must be an object, got {type(payload).__name__}")
        _check_keys(
            payload,
            (
                "name",
                "codec",
                "error_bound",
                "chunk_shape",
                "jobs",
                "fields",
                "source",
                "output",
                "attrs",
            ),
            "config",
        )
        fields_payload = payload.get("fields", {})
        if not isinstance(fields_payload, dict):
            raise PipelineConfigError("config: 'fields' must be an object of field rules")
        attrs_payload = payload.get("attrs", {})
        if not isinstance(attrs_payload, dict):
            raise PipelineConfigError(
                f"config: 'attrs' must be an object, got {type(attrs_payload).__name__}"
            )
        config = cls(
            name=payload.get("name", "pipeline"),
            codec=payload.get("codec", "sz"),
            error_bound=(
                _as_error_bound(payload["error_bound"], "config")
                if "error_bound" in payload
                else ErrorBound.relative(1e-3)
            ),
            chunk_shape=payload.get("chunk_shape"),
            jobs=payload.get("jobs"),
            fields={
                str(name): FieldRule.from_dict(rule, context=f"field {name!r}")
                for name, rule in fields_payload.items()
            },
            source=payload.get("source"),
            output=payload.get("output"),
            attrs=dict(attrs_payload),
        )
        return config.validate()

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "PipelineConfig":
        """Parse a JSON string produced by :meth:`to_json` (strict, validated)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: PathLike) -> Path:
        """Write the JSON form to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "PipelineConfig":
        """Read and validate a config JSON file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise PipelineConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)
