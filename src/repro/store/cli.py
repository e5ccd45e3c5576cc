"""``repro`` — command line interface to the archive store and the pipeline.

Store subcommands drive the ``XFA1`` archive end-to-end::

    repro pack cesm snapshot.xfa --error-bound 1e-3          # synthetic dataset
    repro pack ./fieldset_dir snapshot.xfa --codec zfp       # SDRBench-style dir
    repro ls snapshot.xfa
    repro extract snapshot.xfa FLNT --region 10:40,80:160 -o flnt.npy
    repro extract snapshot.xfa FLNT --fraction 0.25         # coarse prefix decode
    repro verify snapshot.xfa --deep
    repro unpack snapshot.xfa ./restored

Time-stepped archives append one fieldset per invocation and list their
timestep index (see ``docs/timeseries.md``)::

    repro append series.xfa ./step0_dir --create --temporal delta
    repro append series.xfa ./step1_dir --time 0.5
    repro steps series.xfa

An append continues each recorded field's codec, error bound, codec params,
chunk grid and temporal cadence; ``--codec`` / ``--error-bound`` /
``--entropy`` override them for every field of the step, and ``--chunk``
applies only to fields new to the stream.

Pipeline subcommands (see :mod:`repro.pipeline` and ``docs/pipeline.md``)
run configuration-driven workloads::

    repro run --list                         # registered scenarios
    repro run cross-field -o cf.xfa          # scenario -> verified archive
    repro compress config.json               # PipelineConfig JSON -> archive

``pack`` accepts either a directory previously written by
:func:`repro.data.io.write_fieldset` (a ``manifest.json`` plus raw binary
fields) or the name of a synthetic dataset generator (``cesm``, ``scale``,
``hurricane``).  ``--cross-field TARGET=A1,A2`` stores a field with the
cross-field codec anchored on other fields of the same archive; ``compress``
expresses the same (and per-field codecs/bounds) declaratively in JSON.
Both run through :class:`~repro.pipeline.CompressionPipeline`, as does
``unpack``: each verb is a front end over the API that does its job.

Installed as a console script via ``setup.py`` (``pip install -e .`` puts
``repro`` on the PATH); ``python -m repro.store.cli`` works without install.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.store.manifest import ArchiveError, parse_region

__all__ = ["main", "build_parser", "parse_region"]


# --------------------------------------------------------------------------- #
# argument helpers
# --------------------------------------------------------------------------- #
def _parse_chunk_shape(text: Optional[str]) -> Optional[Tuple[int, ...]]:
    if not text:
        return None
    return tuple(int(tok) for tok in text.split(","))


def _parse_cross_field(specs: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    mapping: Dict[str, Tuple[str, ...]] = {}
    for spec in specs:
        target, sep, anchor_text = spec.partition("=")
        anchors = tuple(a.strip() for a in anchor_text.split(",") if a.strip())
        if not sep or not target.strip() or not anchors:
            raise ArchiveError(
                f"bad --cross-field spec {spec!r}; expected TARGET=ANCHOR1[,ANCHOR2,...]"
            )
        mapping[target.strip()] = anchors
    return mapping


def _load_source_fieldset(source: str, shape: Optional[str], seed: Optional[int]):
    """Resolve the ``pack`` source: a fieldset directory or a generator name."""
    from repro.data.io import read_fieldset
    from repro.data.synthetic import make_dataset, resolve_dataset_name

    path = Path(source)
    is_dataset = resolve_dataset_name(source) is not None
    if path.is_dir():
        # an existing directory always wins over a generator name: silently
        # packing synthetic data instead of the user's files would be worse
        # than any error
        if (path / "manifest.json").exists():
            if shape or seed is not None:
                raise ArchiveError(
                    "--shape/--seed only apply to synthetic dataset sources, "
                    f"but {source!r} is a fieldset directory"
                )
            return read_fieldset(path)
        if is_dataset:
            raise ArchiveError(
                f"pack source {source!r} is both a directory (without a manifest.json) and "
                "a synthetic dataset name; rename the directory, run from elsewhere, or "
                "point at a packed fieldset"
            )
        raise ArchiveError(
            f"pack source {source!r} is a directory without a manifest.json "
            "(not a packed fieldset) and not a known synthetic dataset name"
        )
    if is_dataset:
        # generator errors (bad --shape rank, ...) propagate with their own message
        return make_dataset(source, shape=_parse_chunk_shape(shape), seed=seed)
    raise ArchiveError(
        f"pack source {source!r} is neither a fieldset directory (with manifest.json) "
        "nor a known synthetic dataset name"
    )


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GB"  # pragma: no cover - unreachable


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.pipeline import CompressionPipeline, FieldRule, PipelineConfig
    from repro.sz.errors import ErrorBound

    fieldset = _load_source_fieldset(args.source, args.shape, args.seed)
    if args.fields:
        fieldset = fieldset.subset([f.strip() for f in args.fields.split(",")])
    codec_params = {} if args.entropy is None else {"entropy": args.entropy}
    rules = {}
    for target, anchors in _parse_cross_field(args.cross_field).items():
        # the pipeline ignores rules for fields it is not given
        if target not in fieldset:
            raise ArchiveError(f"cross-field target {target!r} is not in the fieldset")
        rules[target] = FieldRule(codec="cross-field", anchors=anchors, codec_params=codec_params)
    if codec_params:
        for name in fieldset.names:
            rules.setdefault(name, FieldRule(codec_params=codec_params))
    error_bound = (
        ErrorBound.absolute(args.error_bound)
        if args.mode == "abs"
        else ErrorBound.relative(args.error_bound)
    )
    config = PipelineConfig(
        codec=args.codec,
        error_bound=error_bound,
        chunk_shape=_parse_chunk_shape(args.chunk),
        jobs=args.jobs,
        fields=rules,
        attrs={"source": str(args.source)},
    )
    result = CompressionPipeline(config).compress(fieldset, args.archive)
    print(
        f"packed {len(result.fields)} fields into {args.archive}: "
        f"{_human_bytes(result.original_nbytes)} -> {_human_bytes(result.compressed_nbytes)} "
        f"(ratio {result.ratio:.2f}x)"
    )
    return 0


def _format_codec_params(params: Dict) -> str:
    """Compact ``k=v`` rendering of manifest codec parameters for listings.

    Error bounds collapse to ``mode:value`` and nested dicts (a temporal-delta
    codec's ``base_params``) render recursively, so the whole manifest-recorded
    configuration of a field is visible in one column.
    """
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, dict):
            if set(value) == {"mode", "value"}:  # an ErrorBound dict
                rendered = f"{value['mode']}:{value['value']:g}"
            elif not value:
                continue
            else:
                rendered = "{" + _format_codec_params(value) + "}"
        else:
            rendered = f"{value}"
        parts.append(f"{key}={rendered}")
    return " ".join(parts) if parts else "-"


def _cmd_ls(args: argparse.Namespace) -> int:
    from repro.store.reader import ArchiveReader

    with ArchiveReader(args.archive) as reader:
        if args.json:
            payload = [entry.to_dict() for entry in reader.fields()]
            for entry in payload:
                entry.pop("chunks")  # offsets are noise for a listing
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"{'field':<12} {'shape':<16} {'dtype':<8} {'codec':<12} "
              f"{'chunks':>6} {'size':>10} {'ratio':>7}  {'anchors':<14} params")
        for entry in reader.fields():
            anchors = ",".join(entry.anchors) if entry.anchors else "-"
            print(
                f"{entry.name:<12} {'x'.join(map(str, entry.shape)):<16} {entry.dtype:<8} "
                f"{entry.codec:<12} {len(entry.chunks):>6} "
                f"{_human_bytes(entry.compressed_nbytes):>10} {entry.ratio:>6.2f}x  "
                f"{anchors:<14} {_format_codec_params(entry.codec_params)}"
            )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.store.reader import ArchiveReader

    region = parse_region(args.region) if args.region else None
    with ArchiveReader(args.archive, jobs=args.jobs) as reader:
        if args.fraction is None:
            data = reader.read_region(args.field, region)
            chunks_decoded = reader.cache_stats()["chunks_decoded"]
        else:
            data, info = reader.read_region_preview(args.field, region, fraction=args.fraction)
    if args.output:
        np.save(args.output, data)
        destination = args.output if str(args.output).endswith(".npy") else f"{args.output}.npy"
        print(f"wrote {destination}: shape {data.shape}, dtype {data.dtype}")
    label = f"{args.field}{' ' + args.region if args.region else ''}"
    summary = (
        f"shape {tuple(data.shape)}, min {data.min():.6g}, max {data.max():.6g}, "
        f"mean {data.mean():.6g}"
    )
    if args.fraction is None:
        print(f"{label}: {summary} ({chunks_decoded} chunks decompressed)")
        return 0
    pct = 100.0 * info["bytes_decoded"] / info["bytes_total"] if info["bytes_total"] else 100.0
    print(f"{label} @ fraction {args.fraction:g}: {summary}")
    print(
        f"decoded {info['groups_decoded']}/{info['groups_total']} coefficient groups, "
        f"{_human_bytes(info['bytes_decoded'])} of {_human_bytes(info['bytes_total'])} "
        f"entropy bytes ({pct:.1f}%), rms error estimate {info['rms_error_estimate']:.6g} "
        f"({info['chunks']} chunks)"
    )
    if info.get("fallback"):
        print(
            f"note: {args.field}'s codec has no progressive layout — this was a "
            "full decode billed at full payload size, not a partial preview"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.store.reader import ArchiveReader

    with ArchiveReader(args.archive, jobs=args.jobs) as reader:
        report = reader.verify(deep=args.deep)
    mode = "deep" if args.deep else "crc"
    for name, field_report in report["fields"].items():
        status = "ok" if field_report["ok"] else "CORRUPTED"
        print(f"{name:<12} {field_report['chunks']:>5} chunks  {status}")
    for error in report["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(f"{mode} verification {'passed' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _cmd_unpack(args: argparse.Namespace) -> int:
    from repro.data.io import write_fieldset
    from repro.pipeline import CompressionPipeline, PipelineConfig

    names = [f.strip() for f in args.fields.split(",")] if args.fields else None
    pipeline = CompressionPipeline(PipelineConfig(jobs=args.jobs))
    fieldset = pipeline.decompress(args.archive, fields=names)
    # preserve the archive's precision: write_fieldset stores one dtype for
    # the whole set, so promote to the widest restored dtype
    dtype = np.result_type(*[field.data.dtype for field in fieldset])
    write_fieldset(fieldset, args.destination, dtype=dtype)
    print(f"unpacked {len(fieldset)} fields to {args.destination} (dtype {dtype})")
    return 0


# --------------------------------------------------------------------------- #
# time-stepped subcommands
# --------------------------------------------------------------------------- #
def _cmd_append(args: argparse.Namespace) -> int:
    from pathlib import Path as _Path

    from repro.encoding.entropy import get_entropy_coder
    from repro.store.codecs import check_codec_params
    from repro.store.temporal import TemporalSpec
    from repro.store.writer import ArchiveWriter
    from repro.sz.errors import ErrorBound

    rule: Dict = {}
    if args.codec is not None:
        rule["codec"] = args.codec
    if args.error_bound is not None:
        rule["error_bound"] = (
            ErrorBound.absolute(args.error_bound)
            if args.mode == "abs"
            else ErrorBound.relative(args.error_bound)
        )
    if args.entropy is not None:
        # fail before loading any data; a field's recorded codec is checked
        # when the writer builds it (and the writer rolls the step back)
        get_entropy_coder(args.entropy)
        rule["codec_params"] = {"entropy": args.entropy}
        check_codec_params(args.base or args.codec or "sz", rule["codec_params"])
    fieldset = _load_source_fieldset(args.source, args.shape, args.seed)
    if args.fields:
        fieldset = fieldset.subset([f.strip() for f in args.fields.split(",")])
    exists = _Path(args.archive).exists()
    if args.temporal == "none" and (args.anchor_every is not None or args.base is not None):
        raise ArchiveError(
            "--temporal none contradicts --anchor-every/--base; drop the "
            "flags that no longer apply"
        )
    flags_given = (
        args.temporal is not None or args.anchor_every is not None or args.base is not None
    )
    if args.temporal == "none":
        temporal = {}  # explicitly no temporal policy for this step
    elif flags_given:
        temporal = TemporalSpec(
            mode=args.temporal or "delta",
            anchor_every=args.anchor_every if args.anchor_every is not None else 8,
            base=args.base,
        )
    elif not exists:
        # a brand-new stream defaults to delta coding with the stock cadence
        temporal = TemporalSpec()
    else:
        # continue whatever cadence the archive records per field
        temporal = None
    if not exists and not args.create:
        raise ArchiveError(
            f"archive {args.archive} does not exist; pass --create to start a "
            "new time-stepped archive"
        )
    # the writer continues each recorded field's codec, bound, params and
    # chunk grid; the flags given here override them for every field
    with ArchiveWriter(
        args.archive,
        chunk_shape=_parse_chunk_shape(args.chunk),
        max_workers=args.jobs,
        mode="a" if exists else "w",
        recover=args.recover,
        attrs=None if exists else {"source": str(args.source), "dataset": fieldset.name},
    ) as writer:
        entry = writer.add_timestep(
            fieldset,
            step=args.step,
            time=args.time,
            temporal=temporal,
            field_rules={name: rule for name in fieldset.names} if rule else None,
        )
        stored = [writer.manifest[name] for name in entry.fields.values()]
        total_in = sum(e.original_nbytes for e in stored)
        total_out = sum(e.compressed_nbytes for e in stored)
        n_delta = sum(1 for e in stored if e.codec == "temporal-delta")
    ratio = total_in / total_out if total_out else float("inf")
    time_tag = f" (t={entry.time:g})" if entry.time is not None else ""
    print(
        f"appended step {entry.step}{time_tag} to {args.archive}: "
        f"{len(stored)} fields ({n_delta} delta, {len(stored) - n_delta} independent), "
        f"{_human_bytes(total_in)} -> {_human_bytes(total_out)} (ratio {ratio:.2f}x)"
    )
    return 0


def _cmd_steps(args: argparse.Namespace) -> int:
    from repro.store.reader import ArchiveReader

    with ArchiveReader(args.archive, recover=args.recover) as reader:
        timesteps = reader.timesteps
        if args.json:
            payload = []
            for ts in timesteps:
                entry = ts.to_dict()
                entry["compressed_nbytes"] = sum(
                    reader.field(stored).compressed_nbytes for stored in ts.fields.values()
                )
                payload.append(entry)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if not timesteps:
            print(f"{args.archive}: no timestep index (not a time-stepped archive)")
            return 0
        print(f"{'step':>5} {'time':>10} {'fields':>7} {'delta':>6} {'size':>10}  temporal")
        for ts in timesteps:
            stored = [reader.field(name) for name in ts.fields.values()]
            n_delta = sum(1 for e in stored if e.codec == "temporal-delta")
            size = sum(e.compressed_nbytes for e in stored)
            specs = sorted(
                {
                    f"{spec.get('mode')}/k={spec.get('anchor_every')}"
                    for spec in ts.temporal.values()
                }
            )
            time_text = "-" if ts.time is None else f"{ts.time:g}"
            print(
                f"{ts.step:>5} {time_text:>10} {len(stored):>7} {n_delta:>6} "
                f"{_human_bytes(size):>10}  {','.join(specs) if specs else '-'}"
            )
    return 0


# --------------------------------------------------------------------------- #
# pipeline subcommands
# --------------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.pipeline import available_scenarios, run_scenario, scenario_table

    if args.list or args.scenario is None:
        print(scenario_table())
        if args.scenario is None and not args.list:
            print("\nusage: repro run <scenario> [-o archive]", file=sys.stderr)
            return 2
        return 0
    output = args.output or f"{args.scenario}.xfa"
    result = run_scenario(
        args.scenario, output, seed=args.seed, verify=not args.no_verify, jobs=args.jobs
    )
    print(result.format())
    random_access = result.extras.get("random_access")
    if random_access:
        print(
            f"random access: read {random_access['field']} region "
            f"{'x'.join(map(str, random_access['region_shape']))} touching "
            f"{random_access['chunks_decoded']}/{random_access['total_chunks']} chunks"
        )
    preview = result.extras.get("preview")
    if preview:
        pct = (
            100.0 * preview["bytes_decoded"] / preview["bytes_total"]
            if preview["bytes_total"]
            else 100.0
        )
        print(
            f"preview: {preview['field']} @ fraction {preview['fraction']:g} decoded "
            f"{preview['groups_decoded']}/{preview['groups_total']} groups, "
            f"{_human_bytes(preview['bytes_decoded'])} of "
            f"{_human_bytes(preview['bytes_total'])} entropy bytes ({pct:.1f}%), "
            f"rms error estimate {preview['rms_error_estimate']:.6g}"
        )
    serving = result.extras.get("serving")
    if serving:
        print(
            f"serving: {serving['ok']}/{serving['requests']} requests ok on "
            f"{serving['field']}, {serving['chunks_decoded']} chunk decodes total "
            f"(shared-cache dedup), p99 {serving['p99_seconds'] * 1e3:.2f} ms"
        )
    if result.verified_ok is False:
        for error in result.verify_report.get("errors", []):
            print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import serve
    from repro.serve.service import ArchiveService

    service = ArchiveService(list(args.archives), refresh=args.refresh, jobs=args.jobs)
    try:
        def ready(server) -> None:
            print(f"serving {len(service.archive_ids)} archive(s) at {server.url}")
            for archive_id in service.archive_ids:
                handle = service.handle(archive_id)
                print(f"  /archives/{archive_id}  <-  {handle.path} (generation {handle.generation})")
            sys.stdout.flush()
            if args.ready_file:
                # tests and scripts poll this file to learn the bound port
                Path(args.ready_file).write_text(server.url)

        serve(
            service,
            host=args.host,
            port=args.port,
            max_requests=args.max_requests,
            ready_callback=ready,
        )
        handled = int(service.request_stats().get("http.request.count", 0))
        print(f"served {handled} request(s)")
        return 0
    finally:
        service.close()


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.pipeline import CompressionPipeline, PipelineConfig, PipelineConfigError

    config = PipelineConfig.load(args.config)
    if args.jobs is not None:
        from dataclasses import replace

        config = replace(config, jobs=args.jobs).validate()
    source = args.source or config.source
    output = args.output or config.output
    if source is None:
        raise PipelineConfigError(
            "no source: pass --source or set \"source\" in the config JSON"
        )
    if output is None:
        raise PipelineConfigError(
            "no output: pass --output or set \"output\" in the config JSON"
        )
    fieldset = _load_source_fieldset(str(source), args.shape, args.seed)
    if args.fields:
        fieldset = fieldset.subset([f.strip() for f in args.fields.split(",")])
    result = CompressionPipeline(config).compress(fieldset, output)
    print(result.format())
    return 0


# --------------------------------------------------------------------------- #
# telemetry flags
# --------------------------------------------------------------------------- #
def _add_profile_arguments(parser: argparse.ArgumentParser, root: bool) -> None:
    """Attach the global telemetry flags (also accepted after the subcommand).

    Like ``--jobs``, each flag is declared on the root parser with its real
    default and on the shared subcommand parent with ``SUPPRESS``, so a value
    parsed at either position wins and the subparser never clobbers the root.
    """
    flag_default = False if root else argparse.SUPPRESS
    path_default = None if root else argparse.SUPPRESS
    parser.add_argument(
        "--profile",
        action="store_true",
        default=flag_default,
        help="collect telemetry and print a per-stage timing table (stderr)",
    )
    parser.add_argument(
        "--profile-json",
        metavar="PATH",
        default=path_default,
        help="collect telemetry and write the full snapshot as JSON to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=path_default,
        help="collect telemetry and write trace spans as a Chrome-trace JSON "
        "file to PATH (open in chrome://tracing or Perfetto)",
    )


def _profiling_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "profile", False)
        or getattr(args, "profile_json", None)
        or getattr(args, "trace", None)
    )


def _report_profiling(args: argparse.Namespace, recorder) -> None:
    """Emit the collected telemetry in every requested shape.

    Runs even when the command failed — a partial profile of a failing run is
    exactly what one wants for diagnosis.  The stage table goes to stderr so
    ``--json`` subcommand output on stdout stays machine-parseable.
    """
    from repro.obs import format_stage_table, write_chrome_trace, write_snapshot_json

    snapshot = recorder.snapshot()
    if getattr(args, "profile", False):
        table = format_stage_table(snapshot, title=f"telemetry: repro {args.command}")
        print(table if table else "== telemetry: no metrics recorded ==", file=sys.stderr)
    json_path = getattr(args, "profile_json", None)
    if json_path:
        write_snapshot_json(snapshot, json_path)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        write_chrome_trace(snapshot, trace_path)


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chunked archive store for error-bounded compressed scientific fields.",
    )
    jobs_help = (
        "worker threads for the chunk execution engine (compression and "
        "decompression; default: auto-sized to the machine, 1 = serial)"
    )
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N", help=jobs_help)
    _add_profile_arguments(parser, root=True)
    # the same flag is accepted after the subcommand (`repro verify a.xfa -j4`);
    # SUPPRESS keeps the subparser from clobbering a value parsed at the root
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "-j", "--jobs", type=int, default=argparse.SUPPRESS, metavar="N", help=jobs_help
    )
    _add_profile_arguments(jobs_parent, root=False)
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="compress a fieldset into an archive", parents=[jobs_parent])
    pack.add_argument("source", help="fieldset directory or synthetic dataset name (cesm/scale/hurricane)")
    pack.add_argument("archive", help="output archive path")
    pack.add_argument("--codec", default="sz", help="default codec for all fields (default: sz)")
    pack.add_argument(
        "--entropy",
        help="entropy coder for codecs with an entropy stage "
        "(registered: huffman, zlib, raw; default: the codec's default)",
    )
    pack.add_argument("--error-bound", type=float, default=1e-3, help="error bound value (default: 1e-3)")
    pack.add_argument("--mode", choices=("rel", "abs"), default="rel", help="error bound mode (default: rel)")
    pack.add_argument("--chunk", help="chunk shape, comma separated (default: 64 per axis)")
    pack.add_argument("--fields", help="comma-separated subset of fields to pack")
    pack.add_argument("--shape", help="grid shape for synthetic datasets, comma separated")
    pack.add_argument("--seed", type=int, default=None, help="seed for synthetic datasets")
    pack.add_argument(
        "--cross-field",
        action="append",
        default=[],
        metavar="TARGET=A1,A2",
        help="store TARGET with the cross-field codec anchored on fields A1,A2 (repeatable)",
    )
    pack.set_defaults(func=_cmd_pack)

    append = sub.add_parser(
        "append",
        help="append one fieldset as a timestep to a time-stepped archive",
        parents=[jobs_parent],
    )
    append.add_argument("archive", help="archive to append to (see --create)")
    append.add_argument("source", help="fieldset directory or synthetic dataset name")
    append.add_argument("--create", action="store_true",
                        help="create the archive if it does not exist yet")
    append.add_argument("--step", type=int, default=None,
                        help="timestep id (default: one past the last step)")
    append.add_argument("--time", type=float, default=None, help="wall-time tag for the step")
    append.add_argument(
        "--temporal", choices=("delta", "independent", "none"), default=None,
        help="time coding: delta residuals with periodic anchors, independent "
        "per-step storage, or none to skip temporal policy (default: continue "
        "the cadence the archive records; delta for a new archive)",
    )
    append.add_argument("--anchor-every", type=int, default=None, metavar="K",
                        help="independent anchor step every K occurrences "
                        "(default: the recorded cadence, 8 for a new archive)")
    append.add_argument("--base", default=None,
                        help="base codec for anchors and delta residuals (default: --codec)")
    append.add_argument("--codec", default=None,
                        help="codec for every field of this step (default: each "
                        "field's recorded codec, sz for new fields)")
    append.add_argument(
        "--entropy",
        help="entropy coder for every field of this step (registered: huffman, "
        "zlib, raw; default: each field's recorded coder, the codec's default "
        "for new fields)",
    )
    append.add_argument("--error-bound", type=float, default=None,
                        help="error bound value for every field of this step "
                        "(default: each field's recorded bound, 1e-3 for new fields)")
    append.add_argument("--mode", choices=("rel", "abs"), default="rel",
                        help="error bound mode (default: rel)")
    append.add_argument("--chunk", help="chunk shape for fields new to the stream, "
                        "comma separated (recorded fields keep their grid)")
    append.add_argument("--fields", help="comma-separated subset of fields to append")
    append.add_argument("--shape", help="grid shape for synthetic dataset sources")
    append.add_argument("--seed", type=int, default=None, help="seed for synthetic dataset sources")
    append.add_argument(
        "--recover", action="store_true",
        help="resume past a torn tail left by a crashed append session",
    )
    append.set_defaults(func=_cmd_append)

    steps = sub.add_parser(
        "steps", help="list the timestep index of a time-stepped archive",
        parents=[jobs_parent],
    )
    steps.add_argument("archive")
    steps.add_argument("--json", action="store_true", help="machine-readable output")
    steps.add_argument(
        "--recover", action="store_true",
        help="read through a torn tail (crashed append) via the recovery scan",
    )
    steps.set_defaults(func=_cmd_steps)

    ls = sub.add_parser("ls", help="list the fields of an archive", parents=[jobs_parent])
    ls.add_argument("archive")
    ls.add_argument("--json", action="store_true", help="machine-readable output")
    ls.set_defaults(func=_cmd_ls)

    extract = sub.add_parser(
        "extract",
        help="read a field (or region) out of an archive, in full or as a coarse preview",
        parents=[jobs_parent],
    )
    extract.add_argument("archive")
    extract.add_argument("field")
    extract.add_argument(
        "--region",
        help='region slices, e.g. "0:10,5:20" or "3,:,40:80"; negative bounds need '
        'the = form: --region=-10:,:-5',
    )
    extract.add_argument(
        "--fraction",
        type=float,
        default=None,
        help="coarse progressive read: entropy-byte budget per chunk as a fraction "
        "of the full payload, e.g. 0.25 (zfp grouped-layout fields decode a prefix "
        "of their significance groups, other codecs fall back to a full decode; "
        "default: full read)",
    )
    extract.add_argument("-o", "--output", help="write the region to a .npy file")
    extract.set_defaults(func=_cmd_extract)

    verify = sub.add_parser("verify", help="check chunk CRCs (and optionally decode)", parents=[jobs_parent])
    verify.add_argument("archive")
    verify.add_argument("--deep", action="store_true", help="also decompress every chunk")
    verify.set_defaults(func=_cmd_verify)

    unpack = sub.add_parser("unpack", help="decompress an archive back into a fieldset directory", parents=[jobs_parent])
    unpack.add_argument("archive")
    unpack.add_argument("destination")
    unpack.add_argument("--fields", help="comma-separated subset of fields to unpack")
    unpack.set_defaults(func=_cmd_unpack)

    run = sub.add_parser("run", help="run a registered pipeline scenario end to end", parents=[jobs_parent])
    run.add_argument("scenario", nargs="?", help="scenario name (see: repro run --list)")
    run.add_argument("--list", action="store_true", help="list registered scenarios")
    run.add_argument("-o", "--output", help="archive path (default: <scenario>.xfa)")
    run.add_argument("--seed", type=int, default=0, help="synthetic data seed (default: 0)")
    run.add_argument("--no-verify", action="store_true", help="skip the deep verification pass")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="serve archives over HTTP (manifest, regions, previews, timesteps) "
        "from one shared chunk cache",
        parents=[jobs_parent],
    )
    serve.add_argument(
        "archives",
        nargs="+",
        metavar="[ID=]ARCHIVE",
        help="archives to serve; prefix a path with ID= to choose its URL id "
        "(default id: the file stem)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8000, help="bind port (default: 8000; 0 picks a free port)"
    )
    serve.add_argument(
        "--refresh",
        choices=("auto", "manual"),
        default="auto",
        help="pick up appended generations automatically on the next request "
        "(auto, default) or only on POST /archives/{id}/refresh (manual)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after answering N requests (bounded smoke-test sessions)",
    )
    serve.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write the bound URL to PATH once the socket is listening "
        "(lets scripts discover an ephemeral --port 0)",
    )
    serve.set_defaults(func=_cmd_serve)

    compress = sub.add_parser(
        "compress",
        help="compress a fieldset as described by a pipeline config JSON",
        parents=[jobs_parent],
    )
    compress.add_argument("config", help="PipelineConfig JSON file (see docs/pipeline.md)")
    compress.add_argument(
        "--source", help="fieldset directory or synthetic dataset name (overrides config)"
    )
    compress.add_argument("--output", help="archive path to write (overrides config)")
    compress.add_argument("--fields", help="comma-separated subset of fields to compress")
    compress.add_argument("--shape", help="grid shape for synthetic dataset sources")
    compress.add_argument("--seed", type=int, default=None, help="seed for synthetic dataset sources")
    compress.set_defaults(func=_cmd_compress)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console-script entry point; returns the process exit code."""
    from repro.parallel.engine import ChunkTaskError

    parser = build_parser()
    args = parser.parse_args(argv)
    recorder = previous = None
    if _profiling_requested(args):
        from repro import obs

        # A fresh recorder per invocation: the profile covers exactly this
        # command, even when REPRO_TELEMETRY already installed a global one.
        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, ChunkTaskError) as exc:
        # ArchiveError/ArchiveCorruptionError are ValueError subclasses; plain
        # ValueError also covers malformed --region/--chunk/--shape strings
        # and unknown codec names; OSError covers missing, unreadable and
        # directory paths; ChunkTaskError wraps per-chunk worker failures
        # (its message names the failing field and chunk).  KeyError.__str__
        # would wrap the message in spurious quotes, so unwrap its argument.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            from repro import obs

            obs.set_recorder(previous)
            _report_profiling(args, recorder)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CLI docs
    sys.exit(main())
