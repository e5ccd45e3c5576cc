"""Config-driven end-to-end compression pipeline.

This package is the high-level API over the rest of the system: one validated,
JSON-round-trippable configuration object drives the core compressors
(:mod:`repro.sz`, :mod:`repro.zfp`, :mod:`repro.core` via the store codec
registry), parallel chunk execution (:mod:`repro.parallel`), and the chunked
``XFA1`` archive store (:mod:`repro.store`), so every workload — baseline,
mixed-codec, cross-field, lossless — is expressed as data instead of ad-hoc
scripts.

- :mod:`repro.pipeline.config` — :class:`PipelineConfig` / :class:`FieldRule`:
  strict parsing, validation, JSON round-trip.
- :mod:`repro.pipeline.pipeline` — :class:`CompressionPipeline` with
  ``compress`` / ``decompress`` / ``verify`` over XFA1 archives, plus the
  :func:`reconstruct_anchors` helper shared with the experiment runners.
- :mod:`repro.pipeline.scenarios` — the scenario registry mapping named
  workloads (``climate-small``, ``cross-field``, ``random-access``, …) to
  synthetic data + config presets; drives ``repro run``.

See ``docs/pipeline.md`` for the configuration reference and CLI usage.
"""

from repro.pipeline.config import FieldRule, PipelineConfig, PipelineConfigError
from repro.pipeline.pipeline import (
    CompressionPipeline,
    PipelineResult,
    reconstruct_anchors,
)
from repro.pipeline.scenarios import (
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_table,
)

__all__ = [
    "PipelineConfig",
    "FieldRule",
    "PipelineConfigError",
    "CompressionPipeline",
    "PipelineResult",
    "reconstruct_anchors",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "scenario_table",
    "run_scenario",
]
