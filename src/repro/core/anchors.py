"""Anchor-field configuration (paper Table III).

The cross-field predictor needs to know, for every target field, which other
fields of the same dataset act as anchors.  The paper selects anchors by basic
physical reasoning (e.g. wind components and pressure to predict vertical wind)
and leaves automatic selection to future work; this module records the
paper's pairing for the three evaluated datasets and lets users register their
own specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.fields import FieldSet
from repro.data.synthetic import DATASET_ALIASES
from repro.metrics.correlation import mutual_information_score

__all__ = ["AnchorSpec", "ANCHOR_TABLE", "get_anchor_spec", "list_anchor_specs", "suggest_anchors"]


@dataclass(frozen=True)
class AnchorSpec:
    """Which anchor fields predict a given target field of a dataset."""

    dataset: str
    target: str
    anchors: Tuple[str, ...]
    note: str = ""

    def validate(self, fieldset: FieldSet) -> None:
        """Check that the target and anchors exist in ``fieldset`` and are distinct."""
        missing = [name for name in (self.target, *self.anchors) if name not in fieldset]
        if missing:
            raise KeyError(
                f"field(s) {missing} not present in dataset {fieldset.name!r}; "
                f"available: {fieldset.names}"
            )
        if self.target in self.anchors:
            raise ValueError(f"target field {self.target!r} cannot be its own anchor")
        if len(set(self.anchors)) != len(self.anchors):
            raise ValueError("anchor fields must be distinct")
        if not self.anchors:
            raise ValueError("at least one anchor field is required")


#: The anchor/target combinations evaluated in the paper (Table III).
ANCHOR_TABLE: Dict[Tuple[str, str], AnchorSpec] = {}


def _register(spec: AnchorSpec) -> None:
    ANCHOR_TABLE[(spec.dataset.lower(), spec.target)] = spec


_register(AnchorSpec("scale", "RH", ("T", "QV", "PRES"), "humidity from temperature, vapour, pressure"))
_register(AnchorSpec("scale", "W", ("U", "V", "PRES"), "vertical wind from horizontal wind and pressure"))
_register(AnchorSpec("hurricane", "Wf", ("Uf", "Vf", "Pf"), "vertical wind from horizontal wind and pressure"))
_register(AnchorSpec("cesm", "CLDTOT", ("CLDLOW", "CLDMED", "CLDHGH"), "total cloud from per-level cloud"))
_register(AnchorSpec("cesm", "LWCF", ("FLUTC", "FLNT"), "longwave cloud forcing from radiative fluxes"))
_register(AnchorSpec("cesm", "FLUT", ("FLNT", "FLNTC", "FLUTC", "LWCF"), "upwelling flux from related fluxes"))


def _dataset_key(dataset: str) -> str:
    """Lower-cased dataset name with its alias resolved (``cesm-atm`` -> ``cesm``)."""
    key = dataset.lower()
    return DATASET_ALIASES.get(key, key)


def get_anchor_spec(dataset: str, target: str) -> AnchorSpec:
    """Return the paper's anchor specification for ``(dataset, target)``."""
    key = (_dataset_key(dataset), target)
    if key not in ANCHOR_TABLE:
        available = sorted(f"{d}:{t}" for d, t in ANCHOR_TABLE)
        raise KeyError(f"no anchor spec for {dataset}:{target}; available: {available}")
    return ANCHOR_TABLE[key]


def list_anchor_specs(dataset: Optional[str] = None) -> List[AnchorSpec]:
    """All registered specs, optionally filtered by dataset name."""
    specs = list(ANCHOR_TABLE.values())
    if dataset is not None:
        dataset = _dataset_key(dataset)
        specs = [s for s in specs if s.dataset == dataset]
    return specs


def suggest_anchors(
    fieldset: FieldSet,
    target: str,
    max_anchors: int = 3,
    bins: int = 48,
) -> AnchorSpec:
    """Heuristic automatic anchor selection by mutual information.

    The paper lists automatic anchor selection as future work; this helper
    provides a simple baseline for it: rank every other field by its mutual
    information with the target and keep the top ``max_anchors``.
    """
    if target not in fieldset:
        raise KeyError(f"target {target!r} not in dataset {fieldset.name!r}")
    if max_anchors < 1:
        raise ValueError("max_anchors must be positive")
    scores = []
    target_data = fieldset[target].data
    for name in fieldset.names:
        if name == target:
            continue
        scores.append((mutual_information_score(fieldset[name].data, target_data, bins=bins), name))
    scores.sort(reverse=True)
    chosen = tuple(name for _, name in scores[:max_anchors])
    if not chosen:
        raise ValueError("dataset has no candidate anchor fields")
    return AnchorSpec(fieldset.name.lower(), target, chosen, note="selected by mutual information")
