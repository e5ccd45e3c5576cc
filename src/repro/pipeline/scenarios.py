"""Named workloads: synthetic data + pipeline config presets, runnable end to end.

A *scenario* bundles everything ``repro run <name>`` needs: which synthetic
dataset to generate (and at what grid size), which fields to keep, and the
:class:`~repro.pipeline.config.PipelineConfig` preset to compress them with.
Scenarios are the executable documentation of the system's workloads — each
exercises a different slice of the stack (plain SZ baseline, mixed codecs,
cross-field prediction through archived anchors, chunked random access,
exact lossless archiving) at sizes that finish in seconds of pure Python.

New workloads plug in via :func:`register_scenario`; the CLI and the smoke
tests iterate :func:`available_scenarios`, so a registered scenario is
immediately runnable and tested.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.data.fields import FieldSet
from repro.data.synthetic import make_dataset, make_timeseries
from repro.pipeline.config import FieldRule, PipelineConfig
from repro.pipeline.pipeline import CompressionPipeline, FieldReport, PipelineResult
from repro.store.reader import ArchiveReader
from repro.store.temporal import TemporalSpec
from repro.store.writer import ArchiveWriter

__all__ = [
    "Scenario",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "scenario_table",
    "run_scenario",
]

PathLike = Union[str, os.PathLike]

#: Tiny cross-field training budget: per-chunk CFNNs on scenario-sized chunks
#: need only a few epochs to beat the Lorenzo fallback on synthetic data.
_FAST_CROSS_FIELD: Dict = {"epochs": 2, "n_patches": 8}

#: Time coding of every field of a streaming scenario: SZ-coded deltas against
#: the decoded previous step, with an independent anchor step every fourth.
_STREAM_TEMPORAL = TemporalSpec(mode="delta", anchor_every=4, base="sz")


@dataclass(frozen=True)
class Scenario:
    """One named, self-contained pipeline workload.

    Parameters
    ----------
    name:
        Registry key, also the default archive stem for ``repro run``.
    description:
        One line shown by ``repro run --list``.
    dataset:
        Synthetic dataset generator name (``cesm`` / ``scale`` / ``hurricane``).
    shape:
        Grid shape passed to the generator (sized for seconds, not hours).
    config:
        The :class:`PipelineConfig` preset applied to the generated fields.
    fields:
        Optional subset of dataset fields to compress (``None`` = all).
    demo_region:
        Optional region, as slices per axis, that :func:`run_scenario` reads
        back through the random-access path to report chunks-touched stats.
    steps:
        ``0`` (default) runs the scenario as a one-shot snapshot compression;
        ``> 0`` makes it a *streaming* scenario: :func:`run_scenario` builds a
        temporally correlated series (:func:`~repro.data.synthetic.make_timeseries`)
        and writes each snapshot as one timestep through
        :meth:`~repro.store.writer.ArchiveWriter.add_timestep`, delta-coded
        with an anchor step every fourth.  The config supplies the writer's
        codec, bound, chunk grid and ``jobs``; its per-field rules do not
        apply.
    dt:
        Wall-time spacing between steps of a streaming scenario.
    preview_fraction:
        When set, :func:`run_scenario` additionally performs a progressive
        *preview* read of the first field (over ``demo_region`` when one is
        set) at this entropy-byte budget and attaches the decode report under
        ``extras["preview"]`` — the dashboard-traffic workload for zfp
        grouped-layout fields.
    serve_requests:
        When ``> 0``, :func:`run_scenario` stands up an in-process
        :class:`~repro.serve.service.ArchiveService` over the written archive
        and replays this many HTTP-shaped region requests against it (the
        first field, over ``demo_region`` when one is set), attaching request
        counts, shared-cache decode dedup and latency quantiles under
        ``extras["serving"]`` — the concurrent-dashboard workload the service
        layer exists for, with no sockets involved.
    """

    name: str
    description: str
    dataset: str
    shape: Tuple[int, ...]
    config: PipelineConfig = field(default_factory=PipelineConfig)
    fields: Optional[Tuple[str, ...]] = None
    demo_region: Optional[Tuple[slice, ...]] = None
    steps: int = 0
    dt: float = 1.0
    preview_fraction: Optional[float] = None
    serve_requests: int = 0

    def build_fieldset(self, seed: int = 0) -> FieldSet:
        """Generate (and optionally subset) the scenario's synthetic data."""
        fieldset = make_dataset(self.dataset, shape=self.shape, seed=seed)
        if self.fields is not None:
            fieldset = fieldset.subset(list(self.fields))
        return fieldset

    def build_timeseries(self, seed: int = 0) -> List[FieldSet]:
        """Generate the streaming scenario's snapshot sequence."""
        if self.steps < 1:
            raise ValueError(f"scenario {self.name!r} is not a streaming scenario")
        return make_timeseries(
            self.dataset, shape=self.shape, steps=self.steps, seed=seed,
            fields=self.fields,
        )

    def build_config(self) -> PipelineConfig:
        """A validated copy of the preset, labelled with the scenario name."""
        return replace(self.config, name=f"scenario:{self.name}").validate()


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register a scenario under ``scenario.name`` (replacing any previous one)."""
    if not scenario.name:
        raise ValueError("scenario must have a non-empty name")
    scenario.build_config()  # fail at registration, not at run time
    if scenario.steps > 0 and scenario.config.fields:
        raise ValueError(
            f"streaming scenario {scenario.name!r} must not set per-field rules; "
            "every field continues its stream through ArchiveWriter.add_timestep"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    return _REGISTRY[name]


def available_scenarios() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def scenario_table() -> str:
    """One line per registered scenario (used by ``repro run --list``)."""
    lines = [f"{'scenario':<16} {'dataset':<10} {'grid':<12} description"]
    for name in available_scenarios():
        scenario = _REGISTRY[name]
        lines.append(
            f"{scenario.name:<16} {scenario.dataset:<10} "
            f"{'x'.join(map(str, scenario.shape)):<12} {scenario.description}"
        )
    return "\n".join(lines)


def run_scenario(
    name: str,
    output: PathLike,
    seed: int = 0,
    verify: bool = True,
    jobs: Optional[int] = None,
) -> PipelineResult:
    """Run one scenario end to end: generate, compress, verify, demo-read.

    Writes the archive to ``output`` and returns the
    :class:`~repro.pipeline.pipeline.PipelineResult` with the deep
    verification report attached (unless ``verify=False``) and, for scenarios
    with a ``demo_region``, random-access read statistics under
    ``extras["random_access"]``.  ``jobs`` overrides the scenario config's
    engine worker count (``1`` forces serial execution end to end).
    """
    scenario = get_scenario(name)
    config = scenario.build_config()
    if jobs is not None:
        config = replace(config, jobs=jobs).validate()
    pipeline = CompressionPipeline(config)
    if scenario.steps > 0:
        result = _write_timeseries(scenario, config, output, seed)
    else:
        fieldset = scenario.build_fieldset(seed=seed)
        result = pipeline.compress(fieldset, output)
    if verify:
        result.verify_report = pipeline.verify(output, deep=True)
    if scenario.demo_region is not None:
        with ArchiveReader(output, jobs=jobs) as reader:
            field_name = reader.names[0]
            window = reader.read_region(field_name, scenario.demo_region)
            stats = reader.cache_stats()
            total_chunks = len(reader.field(field_name).chunks)
        result.extras["random_access"] = {
            "field": field_name,
            "region_shape": list(window.shape),
            "chunks_decoded": stats["chunks_decoded"],
            "total_chunks": total_chunks,
        }
    if scenario.preview_fraction is not None:
        with ArchiveReader(output, jobs=jobs) as reader:
            field_name = reader.names[0]
            preview, info = reader.read_region_preview(
                field_name, scenario.demo_region, fraction=scenario.preview_fraction
            )
        result.extras["preview"] = {
            "field": field_name,
            "region_shape": list(preview.shape),
            **info,
        }
    if scenario.serve_requests > 0:
        result.extras["serving"] = _replay_serving_traffic(
            scenario, output, jobs=jobs
        )
    return result


def _write_timeseries(
    scenario: Scenario, config: PipelineConfig, output: PathLike, seed: int
) -> PipelineResult:
    """Write the streaming scenario's snapshots as timesteps of one archive."""
    series = scenario.build_timeseries(seed=seed)
    attrs = dict(config.attrs, pipeline=config.name, pipeline_config=config.to_dict())
    start = time.perf_counter()
    with ArchiveWriter(
        output,
        codec=config.codec,
        error_bound=config.error_bound,
        chunk_shape=config.chunk_shape,
        max_workers=config.jobs,
        attrs=attrs,
    ) as writer:
        for index, fieldset in enumerate(series):
            writer.add_timestep(fieldset, time=index * scenario.dt, temporal=_STREAM_TEMPORAL)
        entries = [writer.manifest[name] for name in writer.manifest.names]
    return PipelineResult(
        archive=Path(output),
        fields=[FieldReport.from_entry(entry) for entry in entries],
        seconds=time.perf_counter() - start,
    )


def _replay_serving_traffic(
    scenario: Scenario, output: PathLike, jobs: Optional[int] = None
) -> Dict:
    """Dispatch the scenario's serving workload against an in-process service.

    Every request targets the same region of the first field, so with the
    shared single-flight cache the expected decode count is exactly the
    region's chunk count regardless of ``serve_requests`` — the dedup ratio
    reported here is the service layer's whole value proposition.
    """
    from repro.serve.service import ArchiveService
    from repro.store.shared_cache import SharedChunkCache

    query: Dict[str, str] = {}
    if scenario.demo_region is not None:
        query["region"] = ",".join(
            f"{sl.start}:{sl.stop}" for sl in scenario.demo_region
        )
    # a fresh cache, not the process singleton: the dedup numbers must
    # describe this replay alone
    with ArchiveService(
        {scenario.name: output}, cache=SharedChunkCache(), jobs=jobs
    ) as service:
        with service.handle(scenario.name).reader() as reader:
            target = reader.names[0]
        path = f"/archives/{scenario.name}/fields/{target}/region"
        ok = 0
        for _ in range(scenario.serve_requests):
            response = service.dispatch("GET", path, query=dict(query), headers={})
            if response.status == 200:
                ok += 1
        with service.handle(scenario.name).reader() as reader:
            stats = reader.cache_stats()
        requests = service.request_stats()
        return {
            "field": target,
            "requests": scenario.serve_requests,
            "ok": ok,
            "chunks_decoded": int(stats["chunks_decoded"]),
            "p99_seconds": requests.get("http.request.p99_seconds", 0.0),
        }


# --------------------------------------------------------------------------- #
# built-in scenarios
# --------------------------------------------------------------------------- #
register_scenario(
    Scenario(
        name="climate-small",
        description="CESM-like 2D radiative fields through the SZ baseline",
        dataset="cesm",
        shape=(48, 96),
        fields=("CLDTOT", "FLNT", "FLNTC", "LWCF"),
        config=PipelineConfig(codec="sz", error_bound=1e-3, chunk_shape=(24, 48)),
    )
)

register_scenario(
    Scenario(
        name="cross-field",
        description="Hurricane Wf stored via cross-field prediction from archived anchors",
        dataset="hurricane",
        shape=(8, 32, 32),
        fields=("Uf", "Vf", "Pf", "Wf"),
        config=PipelineConfig(
            codec="sz",
            error_bound=1e-3,
            chunk_shape=(8, 16, 16),
            fields={
                "Wf": FieldRule(
                    codec="cross-field",
                    anchors=("Uf", "Vf", "Pf"),
                    codec_params=dict(_FAST_CROSS_FIELD),
                )
            },
        ),
    )
)

register_scenario(
    Scenario(
        name="random-access",
        description="SCALE-like 3D winds, small ZFP chunks sized for region reads",
        dataset="scale",
        shape=(12, 48, 48),
        fields=("U", "V", "W"),
        config=PipelineConfig(codec="zfp", error_bound=1e-3, chunk_shape=(4, 16, 16)),
        demo_region=(slice(0, 4), slice(8, 24), slice(8, 24)),
    )
)

register_scenario(
    Scenario(
        name="zfp-progressive",
        description="CESM fields in the grouped ZFP layout, read back as coarse previews",
        dataset="cesm",
        shape=(48, 96),
        fields=("FLNT", "FLNTC", "LWCF"),
        config=PipelineConfig(codec="zfp", error_bound=1e-3, chunk_shape=(24, 48)),
        demo_region=(slice(0, 48), slice(0, 48)),
        preview_fraction=0.25,
    )
)

register_scenario(
    Scenario(
        name="serve-dashboard",
        description="Concurrent dashboard traffic through the HTTP service over one shared cache",
        dataset="cesm",
        shape=(48, 96),
        fields=("FLNT", "LWCF"),
        config=PipelineConfig(codec="zfp", error_bound=1e-3, chunk_shape=(24, 48)),
        demo_region=(slice(0, 48), slice(0, 48)),
        serve_requests=8,
    )
)

register_scenario(
    Scenario(
        name="lossless-audit",
        description="Bit-exact archiving of CESM cloud fields (no error bound)",
        dataset="cesm",
        shape=(32, 64),
        fields=("CLDLOW", "CLDMED", "CLDHGH"),
        config=PipelineConfig(codec="lossless", chunk_shape=(16, 32)),
    )
)

register_scenario(
    Scenario(
        name="climate-timeseries",
        description="Streaming CESM radiative fields, temporal-delta coded with anchors",
        dataset="cesm",
        shape=(48, 96),
        fields=("FLNT", "FLNTC", "LWCF"),
        steps=5,
        dt=0.25,
        config=PipelineConfig(
            codec="sz",
            error_bound=1e-3,
            chunk_shape=(24, 48),
        ),
    )
)

register_scenario(
    Scenario(
        name="mixed-codecs",
        description="One archive mixing sz, zfp, lossless and cross-field per field",
        dataset="cesm",
        shape=(48, 96),
        fields=("FLNT", "FLNTC", "FLUTC", "LWCF"),
        config=PipelineConfig(
            codec="sz",
            error_bound=1e-3,
            chunk_shape=(24, 48),
            fields={
                "FLNTC": FieldRule(codec="zfp"),
                "FLUTC": FieldRule(codec="lossless"),
                "LWCF": FieldRule(
                    codec="cross-field",
                    anchors=("FLUTC", "FLNT"),
                    codec_params=dict(_FAST_CROSS_FIELD),
                ),
            },
        ),
    )
)
