"""Temporal-coding policy for time-stepped archives.

A :class:`TemporalSpec` describes *how a field travels through time* in an
appendable archive: whether each new timestep is stored independently or as an
error-bounded residual against the decoded previous step (``temporal-delta``
codec), and how often an independent *anchor step* interrupts the delta chain.

Anchors every ``anchor_every`` steps bound the work of a random access in
time: reading step ``t`` decodes at most ``anchor_every`` chunks per spatial
chunk (the delta chain back to the nearest anchor), never the whole history.
Because each delta is predicted from the *decoded* previous step (closed-loop
prediction), the per-point error bound holds at every step without drift —
anchors exist for access locality, not error control.

The spec is deliberately tiny and JSON-round-trippable: it is what
:meth:`~repro.store.writer.ArchiveWriter.add_timestep` consumes (and ``repro
append`` builds from its ``--temporal`` flags), and what the manifest's
timestep index records per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

__all__ = ["TemporalSpec", "TEMPORAL_MODES", "DEFAULT_ANCHOR_EVERY"]

TEMPORAL_MODES = ("delta", "independent")

#: Default anchor cadence: one independent step per eight appended steps.
DEFAULT_ANCHOR_EVERY = 8

_SPEC_KEYS = ("mode", "anchor_every", "base")


@dataclass(frozen=True)
class TemporalSpec:
    """How one field is coded along the time axis.

    Parameters
    ----------
    mode:
        ``"delta"`` — encode step *t* as a residual against the decoded step
        *t-1* (with periodic anchors); ``"independent"`` — every step stands
        alone (equivalent to not having a spec at all, kept so configs can
        state the choice explicitly).
    anchor_every:
        Anchor cadence ``K``: occurrences ``0, K, 2K, ...`` of the field are
        stored independently, everything in between as deltas.  ``1`` makes
        every step an anchor (independent coding with timestep bookkeeping).
    base:
        Codec registry name used for anchors and for the residual payloads
        (``None``: the writer's default codec for the call).
    """

    mode: str = "delta"
    anchor_every: int = DEFAULT_ANCHOR_EVERY
    base: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in TEMPORAL_MODES:
            raise ValueError(
                f"temporal mode must be one of {TEMPORAL_MODES}, got {self.mode!r}"
            )
        if isinstance(self.anchor_every, bool) or not isinstance(self.anchor_every, int):
            raise ValueError(
                f"temporal anchor_every must be an integer >= 1, got {self.anchor_every!r}"
            )
        if self.anchor_every < 1:
            raise ValueError(
                f"temporal anchor_every must be >= 1, got {self.anchor_every}"
            )
        if self.base is not None and not isinstance(self.base, str):
            raise ValueError(f"temporal base must be a codec name, got {self.base!r}")

    def to_dict(self) -> Dict:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        payload: Dict = {"mode": self.mode, "anchor_every": int(self.anchor_every)}
        if self.base is not None:
            payload["base"] = self.base
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping, context: str = "temporal spec") -> "TemporalSpec":
        """Parse the dict form, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"{context}: expected an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"{context}: unknown key(s) {unknown}; allowed: {sorted(_SPEC_KEYS)}"
            )
        try:
            return cls(
                mode=payload.get("mode", "delta"),
                anchor_every=payload.get("anchor_every", DEFAULT_ANCHOR_EVERY),
                base=payload.get("base"),
            )
        except ValueError as exc:
            raise ValueError(f"{context}: {exc}") from exc
