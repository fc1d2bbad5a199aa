"""The ``actorprof`` command-line visualizer.

Mirrors the paper's run-time flags (Section III):

* ``-l``  — logical trace heatmap (from ``PEi_send.csv``)
* ``-lp`` — PAPI trace bar graph (from ``PEi_PAPI.csv``)
* ``-s``  — overall stacked bar graph, absolute and relative
  (from ``overall.txt``)
* ``-p``  — physical trace heatmap (from ``physical.txt``)

Like the paper's ``logical.py``/``physical.py``/``papi.py``/``Overall.py``
scripts, the trace path is a positional argument and the total number of
PEs (``num_PEs``) is a required input for text trace directories.  SVG
charts land next to the traces (or in ``--out``); text summaries print
to stdout.

A ``.aptrc`` archive (:mod:`repro.core.store`, recognised by its suffix
or its magic bytes) works wherever a trace directory does:
``--num-pes`` becomes optional because archives are self-describing,
and ``--export-archive PATH`` re-packs a text trace directory into one.

``-t`` draws the timeline of ``trace.json`` as ``actorprof viz`` draws an
archive's: through its LOD pyramid, as the per-PE gantt
(``timeline.svg``) and the machine-wide timeline (``utilization.svg``).

Any other first word names a subcommand, each with its own ``--help``:

* ``actorprof runs list|show|add|rm`` — the on-disk run registry,
* ``actorprof diff RUN_A RUN_B`` — compare two stored runs (directories,
  archives, or registered run ids),
* ``actorprof faults template|check`` — author deterministic fault plans
  (:mod:`repro.sim.faults`),
* ``actorprof run APP`` — execute a built-in app under the profiler,
  optionally under ``--fault-plan`` and/or as a ``--sweep``, archiving
  the traces; a run that dies mid-execution is salvaged into a degraded
  archive (exit code 3) instead of losing everything,
* ``actorprof check WORKLOAD`` — the ActorCheck determinism auditor
  (:mod:`repro.check`),
* ``actorprof whatif WORKLOAD`` — critical path and virtual speedups
  (:mod:`repro.whatif`),
* ``actorprof serve`` — the long-lived trace service
  (:mod:`repro.serve`): streaming archive ingest with backpressure plus
  registry/query/diff/viz over HTTP,
* ``actorprof push RUN.aptrc`` — upload an archive to that service,
* ``actorprof query RUN EXPR`` — one declarative query against a stored
  run,
* ``actorprof viz RUN`` — LOD-pyramid gantt/heatmap/timeline as a
  standalone (or live pan/zoom) HTML page.

Examples::

    actorprof -l -p -s traces/ --num-pes 16 --out charts/
    actorprof traces/ --num-pes 16 --export-archive run.aptrc
    actorprof -l -s run.aptrc
    actorprof runs add run.aptrc --registry runs/
    actorprof diff runs/a.aptrc runs/b.aptrc
    actorprof faults template plan.json
    actorprof run histogram --fault-plan plan.json -o crashed.aptrc
    actorprof diff crashed.aptrc healthy.aptrc
    actorprof viz healthy.aptrc
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.diffing import open_traces
from repro.core.report import (
    mosaic_report,
    overall_report,
    papi_report,
    physical_report,
)
from repro.core.store.archive import LOADERS, Archive, ArchiveError, is_archive
from repro.core.viz.bars import grouped_bar_graph
from repro.core.viz.heatmap import heatmap_svg
from repro.core.viz.stacked import stacked_bar_graph
from repro.core.viz.violin import violin_svg


#: ``-t``'s outputs: (file name, LOD view, title).
_TIMELINE_VIEWS = (("timeline.svg", "gantt", "Execution timeline"),
                  ("utilization.svg", "timeline", "PE utilization over time"))


class _BadArguments(Exception):
    """A usage error: :func:`main` prints the message and exits 2."""


def _registry_options() -> argparse.ArgumentParser:
    """``--registry``, for every subcommand that resolves run ids."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--registry", type=Path, default=None,
                        help="run registry directory, where run ids "
                             "resolve (default: $ACTORPROF_RUNS or "
                             "~/.actorprof/runs)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof",
        description="ActorProf trace visualizer for FA-BSP executions",
        epilog="subcommands, each with its own --help: "
               + ", ".join(_COMMANDS),
    )
    parser.add_argument("trace_dir", type=Path,
                        help="directory containing the trace files, or a "
                             ".aptrc trace archive")
    parser.add_argument("--num-pes", type=int, default=None,
                        help="total number of PEs used in the run (num_PEs); "
                             "required for trace directories, read from "
                             "metadata for .aptrc archives")
    parser.add_argument("-l", dest="logical", action="store_true",
                        help="logical trace heatmap (PEi_send.csv)")
    parser.add_argument("-lp", dest="papi", action="store_true",
                        help="PAPI trace bar graph (PEi_PAPI.csv)")
    parser.add_argument("-s", dest="overall", action="store_true",
                        help="overall stacked bar graph (overall.txt)")
    parser.add_argument("-p", dest="physical", action="store_true",
                        help="physical trace heatmap (physical.txt)")
    parser.add_argument("-t", dest="timeline", action="store_true",
                        help="LOD gantt + machine-wide timeline of "
                             "trace.json (timeline.svg, utilization.svg)")
    parser.add_argument("--violin", action="store_true",
                        help="also emit violin plots for -l / -p traces")
    parser.add_argument("--export-archive", type=Path, default=None,
                        metavar="PATH",
                        help="re-pack the trace directory into a single "
                             ".aptrc binary archive at PATH")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory for SVGs (default: trace dir)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress text reports on stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _COMMANDS:
            return _COMMANDS[argv[0]](argv[1:])
        return _trace_main(build_parser().parse_args(argv))
    except _BadArguments as exc:
        print(exc, file=sys.stderr)
        return 2


def _trace_main(args) -> int:
    if not (args.logical or args.papi or args.overall or args.physical
            or args.timeline or args.export_archive):
        raise _BadArguments("nothing to do: pass at least one of -l, -lp, "
                            "-s, -p, -t, --export-archive")
    use_archive = is_archive(args.trace_dir)
    if use_archive:
        if args.export_archive is not None:
            raise _BadArguments("--export-archive needs a text trace "
                                "directory as input")
        if args.timeline:
            raise _BadArguments("-t needs a trace directory (trace.json is "
                                "not stored in .aptrc archives)")
    else:
        if not args.trace_dir.is_dir():
            raise _BadArguments(f"trace directory or archive "
                                f"{args.trace_dir} does not exist")
        if args.num_pes is None:
            raise _BadArguments("--num-pes is required when reading a trace "
                                "directory")
    out = args.out or (args.trace_dir.parent if use_archive else args.trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    emitted: list[Path] = []

    def say(text: str) -> None:
        if not args.quiet:
            print(text)

    try:
        with (Archive(args.trace_dir) if use_archive
              else open_traces(args.trace_dir, args.num_pes)) as source:
            if args.num_pes is None:
                args.num_pes = source.n_pes
            return _render(args, source, out, emitted, say)
    except (FileNotFoundError, ValueError) as exc:
        raise _BadArguments(f"cannot read traces: {exc}")


def _render(args, source, out, emitted, say) -> int:
    # an open Archive, or open_traces' view of a text trace directory
    archive = source if isinstance(source, Archive) else None

    def load(kind):
        """Load one trace kind from the archive or the text directory."""
        return source[kind] if archive is None else LOADERS[kind](archive)

    if args.logical:
        trace = load("logical")
        path = out / "logical_heatmap.svg"
        path.write_text(heatmap_svg(trace.matrix(), title="Logical trace heatmap"))
        emitted.append(path)
        if args.violin:
            path = out / "logical_violin.svg"
            path.write_text(violin_svg(
                {"sends": trace.sends_per_pe(), "recvs": trace.recvs_per_pe()},
                title="Logical trace send/recv quartiles",
            ))
            emitted.append(path)
        say(mosaic_report(trace))

    if args.papi:
        trace = load("papi")
        series = {ev: trace.totals_per_pe(ev) for ev in trace.events}
        path = out / "papi_bars.svg"
        path.write_text(grouped_bar_graph(series, title="PAPI counters per PE"))
        emitted.append(path)
        say(papi_report(trace))

    if args.overall:
        profile = load("overall")
        for rel, name in ((False, "overall_absolute.svg"), (True, "overall_relative.svg")):
            path = out / name
            path.write_text(stacked_bar_graph(profile, relative=rel))
            emitted.append(path)
        say(overall_report(profile))

    if args.physical:
        trace = load("physical")
        path = out / "physical_heatmap.svg"
        path.write_text(heatmap_svg(trace.matrix(), title="Physical trace heatmap"))
        emitted.append(path)
        for kind in ("local_send", "nonblock_send"):
            m = trace.matrix(kind)
            if m.sum():
                path = out / f"physical_heatmap_{kind}.svg"
                path.write_text(heatmap_svg(m, title=f"Physical trace: {kind}"))
                emitted.append(path)
        if args.violin:
            path = out / "physical_violin.svg"
            path.write_text(violin_svg(
                {"sends": trace.sends_per_pe(), "recvs": trace.recvs_per_pe()},
                title="Physical trace send/recv quartiles",
            ))
            emitted.append(path)
        # node-level hotspot view ("hotspots of 'node'", paper §III-D);
        # node boundaries come from the logical trace's node columns
        try:
            from repro.core.analysis import aggregate_to_nodes

            logical_spec = (archive.spec() if archive is not None
                            else load("logical").spec)
            if logical_spec.nodes > 1:
                node_m = aggregate_to_nodes(trace.matrix(), logical_spec)
                path = out / "physical_heatmap_nodes.svg"
                path.write_text(heatmap_svg(
                    node_m, title="Physical trace: node-level hotspots",
                    xlabel="destination node", ylabel="source node",
                    entity="node",
                ))
                emitted.append(path)
        except (FileNotFoundError, ValueError, ArchiveError):
            pass  # no logical trace to infer node boundaries from
        say(physical_report(trace))

    if args.timeline:
        from repro.core.export import timeline_from_chrome
        from repro.core.lod import LodView
        from repro.core.store.lod import build_pyramid
        from repro.core.viz.lodviews import render_view

        trace_json = args.trace_dir / "trace.json"
        if not trace_json.exists():
            raise _BadArguments(f"{trace_json} not found (run with "
                                "enable_timeline=True)")
        tl, _spec = timeline_from_chrome(trace_json)
        lod = LodView.from_pyramid(build_pyramid(tl))
        for name, view, title in _TIMELINE_VIEWS:
            path = out / name
            path.write_text(render_view(lod, view, title=title))
            emitted.append(path)
        say(f"timeline: {tl.span_count()} spans, "
            f"{tl.net_count()} network events, "
            f"horizon {tl.end_time():,} cycles")

    if args.export_archive is not None:
        from repro.core.store.writer import export_run

        traces = {kind: source[kind]
                  for kind in ("logical", "physical", "papi", "overall")
                  if kind in source}
        if not traces:
            raise _BadArguments(f"no traces found in {args.trace_dir} to export")
        path = export_run(
            args.export_archive,
            logical=traces.get("logical"),
            physical=traces.get("physical"),
            papi=traces.get("papi"),
            overall=traces.get("overall"),
        )
        emitted.append(path)
        say(f"archived {', '.join(sorted(traces))} → {path} "
            f"({path.stat().st_size:,} bytes)")

    say("\nwrote: " + ", ".join(str(p) for p in emitted))
    return 0


# ----------------------------------------------------------------------
# `actorprof runs` — the registry subcommands
# ----------------------------------------------------------------------

def _runs_parser() -> argparse.ArgumentParser:
    common = _registry_options()
    parser = argparse.ArgumentParser(
        prog="actorprof runs",
        description="manage the on-disk registry of .aptrc trace archives",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", parents=[common], help="list registered runs")
    show = sub.add_parser("show", parents=[common],
                          help="show one run's metadata and sections")
    show.add_argument("run", help="run id (or unique prefix)")
    add = sub.add_parser("add", parents=[common],
                         help="register an existing .aptrc archive")
    add.add_argument("archive", type=Path, help="path to the archive")
    add.add_argument("--id", default=None, help="run id (default: file stem)")
    rm = sub.add_parser("rm", parents=[common],
                        help="delete a run from the registry")
    rm.add_argument("run", help="run id (or unique prefix)")
    return parser


def _runs_main(argv: list[str]) -> int:
    from repro.core.store.registry import (
        RegistryError,
        RunRegistry,
        default_registry_root,
    )

    args = _runs_parser().parse_args(argv)
    registry = RunRegistry(args.registry or default_registry_root())
    try:
        if args.command == "list":
            runs = registry.list()
            if not runs:
                print(f"no runs registered in {registry.root}")
                return 0
            for info in runs:
                print(info.describe())
            return 0
        if args.command == "show":
            info = registry.resolve(args.run)
            print(f"run:     {info.run_id}")
            print(f"file:    {info.path} ({info.size_bytes:,} bytes)")
            print(f"created: {info.created}")
            if info.fingerprint:
                print(f"sha256:  {info.fingerprint}")
            for key, value in sorted(info.meta.items()):
                if isinstance(value, dict):  # workload, fault_plan, ...
                    value = json.dumps(value, sort_keys=True,
                                       separators=(",", ":"))
                print(f"meta.{key}: {value}")
            with Archive(info.path) as archive:
                for name in archive.sections:
                    section = archive.section(name)
                    refs = [ref for col in section.columns
                            for ref in section.chunk_refs(col)]
                    with_stats = sum(1 for ref in refs if ref.stats is not None)
                    if with_stats == len(refs) and refs:
                        stats = "chunk stats (query pushdown enabled)"
                    elif with_stats:
                        stats = f"chunk stats on {with_stats}/{len(refs)} chunks"
                    else:
                        stats = "no chunk stats (full decode on query)"
                    print(f"section {name}: {section.rows:,} rows in "
                          f"{section.n_chunks} chunks, "
                          f"columns {', '.join(section.columns)}, {stats}")
                # LOD pyramid summary; pyramid_info returns None (never
                # raises) for pre-pyramid or malformed archives
                from repro.core.store.lod import pyramid_info

                lod = pyramid_info(archive)
                if lod is None:
                    print("lod pyramid: none (viz falls back to a flat "
                          "in-memory one; to store it, 'actorprof viz "
                          "COPY.aptrc --backfill' a copy and 'runs add' it)")
                else:
                    widths = "/".join(str(w) for w in lod.widths)
                    buckets = "/".join(str(b) for b in lod.buckets)
                    shape = ("time-resolved" if lod.time_resolved
                             else "flat (no timeline)")
                    print(f"lod pyramid: {lod.levels} level(s), {shape}, "
                          f"widths {widths}, buckets {buckets}, "
                          f"horizon {lod.horizon:,} cycles")
            return 0
        if args.command == "add":
            info = registry.add(args.archive, run_id=args.id)
            print(f"registered {info.run_id} ← {args.archive}")
            return 0
        if args.command == "rm":
            info = registry.remove(args.run)
            print(f"removed {info.run_id}")
            return 0
    except (RegistryError, ArchiveError, OSError) as exc:
        raise _BadArguments(f"runs {args.command} failed: {exc}")
    raise AssertionError(f"unhandled runs command {args.command!r}")


# ----------------------------------------------------------------------
# `actorprof faults` — fault-plan authoring
# ----------------------------------------------------------------------

def _faults_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof faults",
        description="author and validate deterministic fault-injection "
                    "plans (JSON) for 'actorprof run --fault-plan'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    template = sub.add_parser(
        "template", help="write an example fault plan to PATH"
    )
    template.add_argument("path", type=Path, help="output JSON path")
    template.add_argument("--crash", action="append", default=[],
                          metavar="PE:CYCLE",
                          help="add a crash fault (repeatable), e.g. 2:200000")
    template.add_argument("--drop", type=float, default=None, metavar="P",
                          help="add an all-edges drop probability")
    template.add_argument("--seed", type=int, default=0,
                          help="fault RNG seed stored in the plan")
    check = sub.add_parser(
        "check", help="validate a fault plan and print its summary"
    )
    check.add_argument("path", type=Path, help="plan JSON to check")
    check.add_argument("--num-pes", type=int, default=None,
                       help="validate PE references against this job size")
    return parser


def _faults_main(argv: list[str]) -> int:
    from repro.sim.faults import CrashFault, EdgeFault, FaultPlan

    args = _faults_parser().parse_args(argv)
    try:
        if args.command == "template":
            crashes = []
            for spec_text in args.crash:
                pe_text, _, cycle_text = spec_text.partition(":")
                try:
                    crashes.append(CrashFault(int(pe_text), int(cycle_text)))
                except ValueError:
                    raise _BadArguments(f"bad --crash {spec_text!r}: use PE:CYCLE")
            edges = []
            if args.drop is not None:
                edges.append(EdgeFault(drop=args.drop))
            if not crashes and not edges:
                # the didactic default: one crash + a lossy edge
                crashes = [CrashFault(pe=1, at_cycle=200_000)]
                edges = [EdgeFault(src=0, dst=1, drop=0.1, delay=0.05,
                                   delay_cycles=5_000)]
            plan = FaultPlan(crashes=tuple(crashes), edges=tuple(edges),
                             seed=args.seed)
            plan.save(args.path)
            print(f"wrote fault plan template → {args.path}")
            print(plan.describe())
            return 0
        if args.command == "check":
            plan = FaultPlan.load(args.path)
            if args.num_pes is not None:
                plan.validate(args.num_pes)
            print(plan.describe())
            if args.num_pes is not None:
                print(f"plan is valid for {args.num_pes} PEs")
            return 0
    except (ValueError, OSError) as exc:
        raise _BadArguments(f"faults {args.command} failed: {exc}")
    raise AssertionError(f"unhandled faults command {args.command!r}")


# ----------------------------------------------------------------------
# options and helpers shared by `actorprof run`, `check` and `whatif`
# ----------------------------------------------------------------------

def _workload_options(*, updates: int, table_size: int, scale: int,
                      scale_flag: str = "--scale") -> argparse.ArgumentParser:
    """Machine, problem-size, seed and fault-plan options.

    The three commands differ only in their default sizes, and in how
    ``whatif`` spells the R-MAT scale (its ``--scale`` is a cost factor).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0,
                        help="root seed of the workload's RNG streams and "
                             "of any schedule jitter (default 0)")
    parent.add_argument("--nodes", type=int, default=2,
                        help="simulated nodes (default 2)")
    parent.add_argument("--pes-per-node", type=int, default=2,
                        help="PEs per node (default 2)")
    parent.add_argument("--updates", type=int, default=updates,
                        help=f"histogram: updates per PE (default {updates})")
    parent.add_argument("--table-size", type=int, default=table_size,
                        help="histogram: table slots per PE "
                             f"(default {table_size})")
    parent.add_argument(scale_flag, dest="rmat_scale", type=int,
                        default=scale, metavar="SCALE",
                        help=f"triangle: R-MAT scale (default {scale})")
    parent.add_argument("--distribution", default="cyclic",
                        choices=("cyclic", "range", "block"),
                        help="triangle: row distribution (default cyclic)")
    parent.add_argument("--fault-plan", type=Path, default=None,
                        metavar="PLAN.json",
                        help="inject the faults described in this plan "
                             "(see 'actorprof faults'); check and whatif "
                             "reject plans that crash a PE")
    return parent


def _jobs_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="spread the independent runs (sweep points, "
                             "schedules, replay points) across N worker "
                             "processes (default 1: in-process); the "
                             "output is byte-identical either way")
    return parent


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise _BadArguments(f"--jobs must be >= 1: {args.jobs}")


def _load_fault_plan(args, *, check_fit: bool = True):
    """The :class:`FaultPlan` named by ``--fault-plan``, or None; unless
    ``check_fit`` is off, it must fit ``--nodes`` x ``--pes-per-node``."""
    if args.fault_plan is None:
        return None
    from repro.sim.faults import FaultPlan

    try:
        plan = FaultPlan.load(args.fault_plan)
    except (ValueError, OSError) as exc:
        raise _BadArguments(f"bad fault plan: {exc}") from exc
    try:
        return (plan.validate(args.nodes * args.pes_per_node) if check_fit
                else plan)
    except ValueError as exc:
        raise _BadArguments(
            f"fault plan does not fit this machine: {exc}") from None


def _options(args) -> dict:
    """The shared workload options, by descriptor key."""
    return {"nodes": args.nodes, "pes_per_node": args.pes_per_node,
            "seed": args.seed, "updates": args.updates,
            "table_size": args.table_size, "scale": args.rmat_scale,
            "distribution": args.distribution}


def _descriptor(options: dict, kind: str) -> dict:
    """App ``kind``'s descriptor: the ``options`` keys it takes."""
    from repro.check import HistogramWorkload, TriangleWorkload

    cls = HistogramWorkload if kind == "histogram" else TriangleWorkload
    keys = ("nodes", "pes_per_node", "seed", *cls.problem)
    return {"kind": kind, **{k: options[k] for k in keys}}


def _workload(args, index: int = 0):
    """The auditable workload ``check``/``whatif`` were asked for
    (``index`` picks the generated program)."""
    from repro.check import GeneratedWorkload, generate_spec
    from repro.check.workloads import workload_from_descriptor
    from repro.machine.spec import MachineSpec

    if args.workload != "generated":
        return workload_from_descriptor(
            _descriptor(_options(args), args.workload))
    return GeneratedWorkload(generate_spec(args.seed, index),
                             MachineSpec(args.nodes, args.pes_per_node),
                             args.seed, f"generated-{index}")


# ----------------------------------------------------------------------
# `actorprof run` — execute a built-in app under the profiler
# ----------------------------------------------------------------------

def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof run",
        description="run a built-in FA-BSP app under ActorProf, optionally "
                    "under a fault plan; traces are archived even when the "
                    "run dies (degraded archive, exit code 3)",
        parents=[_workload_options(updates=2000, table_size=512, scale=8),
                 _jobs_options()],
    )
    parser.add_argument("app", choices=("histogram", "triangle"),
                        help="which app to run")
    parser.add_argument("-o", "--out", dest="export_archive", type=Path,
                        default=None, metavar="PATH",
                        help="archive the run's traces to PATH (.aptrc); "
                             "required to salvage a failing run; with "
                             "--sweep, PATH is a directory that receives "
                             "one APP-TAG.aptrc per sweep point")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="PARAM=V1,V2,...",
                        help="sweep a parameter over several values "
                             "(repeatable; points are the cartesian "
                             "product).  Sweepable: the options the app "
                             "takes, spelled with underscores: nodes, "
                             "pes_per_node, seed, and updates, table_size "
                             "(histogram) or scale, distribution (triangle)")
    parser.add_argument("--sweep-report", type=Path, default=None,
                        metavar="PATH",
                        help="write the machine-readable sweep outcome "
                             "JSON to PATH")
    return parser


def _parse_sweeps(items: list[str], base: dict) -> dict[str, list]:
    """Parse repeated ``--sweep PARAM=V1,V2,...`` into an ordered dict;
    PARAM is a key of the ``base`` descriptor, parsed like its value."""
    sweeps: dict[str, list] = {}
    for item in items:
        name, sep, values_text = item.partition("=")
        name = name.strip().lower()
        if not sep or not values_text:
            raise ValueError(f"bad --sweep {item!r}: use PARAM=V1,V2,...")
        if name not in base:
            raise ValueError(f"cannot sweep {name!r}; sweepable parameters "
                             f"are {', '.join(base)}")
        if name in sweeps:
            raise ValueError(f"--sweep {name} given twice")
        parse = type(base[name])
        try:
            values = [parse(v.strip()) for v in values_text.split(",")]
        except ValueError:
            raise ValueError(f"bad --sweep {item!r}: {name} wants "
                             f"{parse.__name__} values") from None
        sweeps[name] = values
    return sweeps


def _run_sweep(args, sweeps: dict[str, list], base: dict,
               fault_plan: dict | None) -> int:
    """Execute the cartesian ``sweeps`` of the ``base`` descriptor
    through the :mod:`repro.exec` engine, one ``run_app_point`` each;
    every point's workload is built first, so a bad value exits 2."""
    import itertools

    from repro.check.parallel import run_app_point
    from repro.check.workloads import workload_from_descriptor
    from repro.exec import execute

    _check_jobs(args)
    out_dir = args.export_archive  # a *directory* in sweep mode
    runs = []
    names = list(sweeps)
    for combo in itertools.product(*sweeps.values()):
        point = dict(zip(names, combo))
        tag = "-".join(f"{n}{v}" for n, v in point.items())
        kwargs = {"workload": {**base, **point}, "fault_plan": fault_plan}
        try:
            workload_from_descriptor(kwargs["workload"])
        except ValueError as exc:
            raise _BadArguments(f"bad sweep point {tag}: {exc}") from None
        if out_dir is not None:
            kwargs["archive_name"] = f"{args.app}-{tag}.aptrc"
        runs.append((tag, kwargs))
    print(f"sweep: {len(runs)} points "
          f"({' x '.join(f'{n}={len(v)}' for n, v in sweeps.items())}), "
          f"jobs={args.jobs}")

    records = execute(run_app_point, runs, jobs=args.jobs,
                      scratch_dir=out_dir)
    points = []
    for rec in records:
        if rec.ok:
            point = dict(rec.value)
        else:  # a worker died or raised: a per-point failure record
            point = {"app": args.app, "summary": "", "exit_code": 1,
                     "error": rec.error, "archive": None,
                     "archive_sha256": None, "artifacts": []}
        point["tag"] = rec.tag
        points.append(point)
        status = (point["summary"] or point["error"]
                  or f"exit {point['exit_code']}")
        marker = "ok" if point["exit_code"] == 0 else f"rc={point['exit_code']}"
        print(f"  [{marker}] {rec.tag}: {status}")
        if point["archive"] is not None and out_dir is not None:
            print(f"         archived → {out_dir / point['archive']}")

    # Same aggregation contract as `actorprof check`: the process exits
    # with the max per-point code, the report lists every distinct
    # nonzero code so no failure kind is masked.
    exit_code = max((p["exit_code"] for p in points), default=0)
    exit_codes = sorted({p["exit_code"] for p in points if p["exit_code"]})
    if exit_codes:
        print("sweep failures: exit codes "
              + ", ".join(str(c) for c in exit_codes)
              + f" (process exits with {exit_code})", file=sys.stderr)
    if args.sweep_report is not None:
        # no job count in the payload: the report's bytes must not
        # depend on how the sweep was parallelized
        payload = {
            "app": args.app,
            "sweep": {n: list(v) for n, v in sweeps.items()},
            "exit_code": exit_code,
            "exit_codes": exit_codes,
            "points": points,
        }
        args.sweep_report.parent.mkdir(parents=True, exist_ok=True)
        args.sweep_report.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote sweep report → {args.sweep_report}")
    return exit_code


def _run_main(argv: list[str]) -> int:
    args = _run_parser().parse_args(argv)
    base = _descriptor(_options(args), args.app)
    try:
        sweeps = _parse_sweeps(args.sweep, {k: v for k, v in base.items()
                                            if k != "kind"})
    except ValueError as exc:
        raise _BadArguments(f"bad sweep: {exc}")
    # a swept machine size is checked per point, by the run worker
    plan = _load_fault_plan(
        args, check_fit=not {"nodes", "pes_per_node"} & sweeps.keys())
    plan_dict = plan.to_dict() if plan is not None else None
    if sweeps:
        return _run_sweep(args, sweeps, base, plan_dict)
    # a plain run is a one-point sweep executed in-process
    from repro.check.parallel import run_app_point

    out = args.export_archive
    outcome = run_app_point(
        out.parent if out is not None else Path("."),
        workload=base, fault_plan=plan_dict,
        archive_name=out.name if out is not None else None)
    if outcome["exit_code"] == 0:
        print(f"{outcome['summary']} on {args.nodes}x{args.pes_per_node} PEs "
              f"(seed {args.seed})")
        if out is not None:
            print(f"archived traces → {out} ({out.stat().st_size:,} bytes)")
        return 0
    print(f"run failed: {outcome['error']}", file=sys.stderr)
    if out is None:
        print("no --out given; traces were not salvaged", file=sys.stderr)
    elif outcome["exit_code"] == 3:
        print(f"salvaged degraded traces → {out} "
              f"({out.stat().st_size:,} bytes)", file=sys.stderr)
    return outcome["exit_code"]


# ----------------------------------------------------------------------
# `actorprof check` — the ActorCheck determinism auditor
# ----------------------------------------------------------------------

def _check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof check",
        description="audit a workload for schedule nondeterminism: "
                    "re-execute it under K perturbed-but-legal schedules "
                    "(tie-break permutation, flush-order jitter, buffer "
                    "sweeps), verify trace invariants, and diff the runs. "
                    "Exit 0 = deterministic, 4 = confirmed nondeterminism, "
                    "5 = invariant violation, 6 = a run failed or its "
                    "worker died.",
        parents=[_workload_options(updates=400, table_size=64, scale=6),
                 _jobs_options()],
    )
    parser.add_argument("workload", choices=("histogram", "triangle",
                                             "generated"),
                        help="which workload to audit")
    parser.add_argument("--schedules", type=int, default=8, metavar="K",
                        help="number of perturbed schedules (default 8; "
                             "schedule 0 is the default policy)")
    parser.add_argument("--programs", type=int, default=2, metavar="N",
                        help="generated: audit N random actor programs "
                             "(default 2)")
    parser.add_argument("--out", dest="report", type=Path, default=None,
                        metavar="PATH",
                        help="write the machine-readable JSON verdict(s) "
                             "to PATH")
    parser.add_argument("--keep-archives", type=Path, default=None,
                        metavar="DIR",
                        help="keep every schedule's .aptrc archive in DIR "
                             "(default: temporary, deleted)")
    parser.add_argument("--skip-store-check", action="store_true",
                        help="skip the archive/CSV round-trip invariant "
                             "(faster for large sweeps)")
    parser.add_argument("--cache", type=Path, default=None, metavar="DIR",
                        help="result cache directory: schedule runs whose "
                             "(workload, seed, schedule) fingerprint is "
                             "already cached are restored instead of rerun")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the verdict line(s)")
    return parser


def _check_main(argv: list[str]) -> int:
    from repro.check import audit

    args = _check_parser().parse_args(argv)
    if args.schedules < 1:
        raise _BadArguments(f"--schedules must be >= 1: {args.schedules}")
    _check_jobs(args)
    fault_plan = _load_fault_plan(args)
    n_workloads = args.programs if args.workload == "generated" else 1
    workloads = [_workload(args, i) for i in range(n_workloads)]
    reports = []
    try:
        for workload in workloads:
            out_dir = None
            if args.keep_archives is not None:
                out_dir = args.keep_archives / workload.name
            report = audit(
                workload,
                schedules=args.schedules,
                out_dir=out_dir,
                store_equivalence=not args.skip_store_check,
                fault_plan=fault_plan,
                jobs=args.jobs,
                cache=args.cache,
            )
            reports.append(report)
            if args.quiet:
                print(f"{workload.name}: {report.verdict}")
            else:
                print(report.render())
    except ValueError as exc:
        raise _BadArguments(f"check failed: {exc}")
    # The process can only exit with one code, so `max` wins there (the
    # codes are ordered by severity: 4 < 5 < 6) — but aggregating with
    # max alone used to *hide* the other failures: a K-program audit
    # where one program diverged (4) and another broke an invariant (5)
    # reported only the 5.  The JSON payload therefore carries every
    # distinct nonzero code alongside the per-workload reports.
    exit_code = max(r.exit_code for r in reports)
    exit_codes = sorted({r.exit_code for r in reports if r.exit_code})
    if len(exit_codes) > 1:
        print("multiple failure kinds: exit codes "
              + ", ".join(str(c) for c in exit_codes)
              + f" (process exits with {exit_code})", file=sys.stderr)
    if args.report is not None:
        if len(reports) == 1:
            payload = reports[0].to_dict()
        else:
            payload = {
                "exit_code": exit_code,
                "exit_codes": exit_codes,
                "reports": [r.to_dict() for r in reports],
            }
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote verdict report → {args.report}")
    return exit_code


# ----------------------------------------------------------------------
# `actorprof whatif` — causal critical-path + virtual-speedup profiler
# ----------------------------------------------------------------------

def _whatif_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof whatif",
        description="causal what-if profiling: reconstruct the "
                    "happens-before DAG of one profiled run, rank the "
                    "critical path (work, span, per-region parallelism, "
                    "hottest handlers and transfer edges), predict virtual "
                    "speedups by re-weighting the DAG, and optionally "
                    "*replay* the workload under perturbed cost models "
                    "(--scale / --sweep) to measure them for real. "
                    "Scale factors multiply the target's COST: "
                    "proc=0.5x means PROC work runs twice as fast. "
                    "Exit 0 = ok, 2 = bad arguments, 6 = a replay failed.",
        parents=[_workload_options(updates=400, table_size=64, scale=6,
                                   scale_flag="--scale-rmat"),
                 _jobs_options()],
    )
    parser.add_argument("workload", choices=("histogram", "triangle",
                                             "generated"),
                        help="which workload to analyze")
    parser.add_argument("--program", type=int, default=0, metavar="N",
                        help="generated: which generated program (default 0)")
    parser.add_argument("--scale", action="append", default=[],
                        metavar="TARGET=FACTOR",
                        help="replay one point with this cost scale; repeat "
                             "to compose scales into the same point (e.g. "
                             "--scale mailbox:0=2x --scale net.latency=0.5)")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="TARGET=F1,F2,...",
                        help="replay the cartesian product of these factor "
                             "axes (repeatable)")
    parser.add_argument("--candidate-factor", type=float, default=0.5,
                        metavar="F",
                        help="factor used for the ranked single-target "
                             "predictions (default 0.5 = a 2x speedup)")
    parser.add_argument("--cache", type=Path, default=None, metavar="DIR",
                        help="result cache directory for replay points "
                             "(keys include the scale factors)")
    parser.add_argument("--out", dest="report", type=Path, default=None,
                        metavar="PATH",
                        help="write the machine-readable JSON report to PATH")
    parser.add_argument("--keep-archives", type=Path, default=None,
                        metavar="DIR",
                        help="keep the baseline and per-point .aptrc "
                             "archives in DIR (default: temporary)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the text report on stdout")
    return parser


def _whatif_main(argv: list[str]) -> int:
    import repro.api as api
    from repro.core.report import whatif_report
    from repro.whatif import Scales, parse_sweep

    args = _whatif_parser().parse_args(argv)
    _check_jobs(args)
    try:
        scale_sets = []
        if args.scale:
            scale_sets.append(Scales.from_args(args.scale))
        sweeps = [parse_sweep(item) for item in args.sweep]
        if not (args.candidate_factor > 0
                and args.candidate_factor != float("inf")):
            raise ValueError(
                f"--candidate-factor must be a positive finite number: "
                f"{args.candidate_factor}"
            )
    except ValueError as exc:
        raise _BadArguments(str(exc))
    fault_plan = _load_fault_plan(args)
    try:
        report = api.whatif(
            _workload(args, args.program),
            scale_sets=scale_sets,
            sweeps=sweeps,
            jobs=args.jobs,
            cache=args.cache,
            out_dir=args.keep_archives,
            fault_plan=fault_plan,
            candidate_factor=args.candidate_factor,
        )
    except ValueError as exc:
        raise _BadArguments(f"whatif failed: {exc}")
    if not args.quiet:
        print(whatif_report(report))
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote what-if report → {args.report}")
    return report["exit_code"]


# ----------------------------------------------------------------------
# `actorprof serve` / `actorprof push` — the trace service
# ----------------------------------------------------------------------

def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof serve",
        description="run the ActorProf trace service: streaming .aptrc "
                    "ingest with backpressure, a sharded run registry, "
                    "and query/diff endpoints backed by a worker pool "
                    "and a shared content-addressed result cache "
                    "(see docs/SERVICE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8750,
                        help="TCP port (default 8750; 0 picks a free one)")
    parser.add_argument("--data-dir", type=Path,
                        default=Path("actorprof-serve"),
                        help="service state root: registry, artifact "
                             "store, and upload spool (default "
                             "./actorprof-serve)")
    parser.add_argument("--registry", type=Path, default=None,
                        help="serve an existing registry directory "
                             "instead of DATA_DIR/runs")
    parser.add_argument("--shards", type=int, default=4,
                        help="registry manifest shards for write "
                             "concurrency (default 4; fixed at registry "
                             "creation; one made by 'runs add' has 1)")
    parser.add_argument("--workers", type=int, default=4,
                        help="query/diff worker pool width (default 4)")
    parser.add_argument("--cache-max-bytes", type=int,
                        default=256 * 1024 * 1024, metavar="N",
                        help="artifact-store LRU size cap (default "
                             "256 MiB; 0 = unbounded)")
    parser.add_argument("--max-active-ingests", type=int, default=8,
                        metavar="N",
                        help="concurrent uploads admitted before 429 "
                             "(default 8)")
    parser.add_argument("--max-archive-bytes", type=int,
                        default=64 * 1024 * 1024, metavar="N",
                        help="largest accepted archive (default 64 MiB)")
    parser.add_argument("--max-pending-bytes", type=int,
                        default=256 * 1024 * 1024, metavar="N",
                        help="total spool reservation before 429 "
                             "(default 256 MiB)")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        metavar="SECONDS",
                        help="Retry-After advertised on 429 (default 1)")
    parser.add_argument("--allow-remote-shutdown", action="store_true",
                        help="enable POST /shutdown (tests and CI smoke)")
    return parser


def _serve_main(argv: list[str]) -> int:
    from repro.serve import IngestLimits, ServerConfig
    from repro.serve import run as serve_run

    args = _serve_parser().parse_args(argv)
    try:
        config = ServerConfig(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            shards=args.shards,
            workers=args.workers,
            cache_max_bytes=args.cache_max_bytes or None,
            ingest=IngestLimits(
                max_active=args.max_active_ingests,
                max_archive_bytes=args.max_archive_bytes,
                max_pending_bytes=args.max_pending_bytes,
                retry_after=args.retry_after,
            ),
            allow_shutdown=args.allow_remote_shutdown,
            registry_root=args.registry,
        )
        return serve_run(config)
    except (ValueError, OSError) as exc:
        raise _BadArguments(f"serve failed: {exc}")


def _push_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof push",
        description="upload a .aptrc archive to a running ActorProf "
                    "service (chunked streaming; waits out 429 "
                    "backpressure and retries)",
    )
    parser.add_argument("archive", type=Path, help="the .aptrc to upload")
    parser.add_argument("--server", default="127.0.0.1:8750",
                        metavar="HOST:PORT",
                        help="service address (default 127.0.0.1:8750)")
    parser.add_argument("--id", default=None,
                        help="run id to register under (default: "
                             "run-<fingerprint prefix>, which makes "
                             "pushes idempotent)")
    parser.add_argument("--retries", type=int, default=8,
                        help="rounds of backpressure to wait out "
                             "(default 8)")
    return parser


def _push_main(argv: list[str]) -> int:
    from repro.serve import Backpressure, ServeClient, ServeError

    args = _push_parser().parse_args(argv)
    if not args.archive.is_file():
        raise _BadArguments(f"archive {args.archive} does not exist")
    host, _, port_text = args.server.partition(":")
    try:
        port = int(port_text) if port_text else 8750
    except ValueError:
        raise _BadArguments(f"bad --server {args.server!r}: use HOST:PORT")
    client = ServeClient(host or "127.0.0.1", port)
    try:
        result = client.push(args.archive, run_id=args.id,
                             retries=args.retries)
    except Backpressure as exc:
        print(f"push failed: server still under backpressure after "
              f"{args.retries} retries ({exc.message})", file=sys.stderr)
        return 4
    except (ServeError, OSError) as exc:
        raise _BadArguments(f"push failed: {exc}")
    verb = "deduplicated against" if result.get("deduped") else "registered as"
    print(f"pushed {args.archive} → {verb} {result['run']} "
          f"({result['size_bytes']:,} bytes, "
          f"sha256 {result['fingerprint'][:12]})")
    if result.get("degraded"):
        print("note: archive is degraded (salvaged from a failed run)")
    return 0


# ----------------------------------------------------------------------
# `actorprof diff` — compare two stored runs
# ----------------------------------------------------------------------

def _diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof diff",
        description="compare two stored runs (the cyclic-vs-range workflow)",
        parents=[_registry_options()],
    )
    parser.add_argument("run_a", help="trace directory, .aptrc archive, or "
                                      "registered run id (run A)")
    parser.add_argument("run_b", help="trace directory, .aptrc archive, or "
                                      "registered run id (run B)")
    parser.add_argument("--num-pes", type=int, default=None,
                        help="PE count (required only for trace directories)")
    return parser


def _diff_main(argv: list[str]) -> int:
    import repro.api as api

    args = _diff_parser().parse_args(argv)
    try:
        report = api.diff(args.run_a, args.run_b, n_pes=args.num_pes,
                          label_a=args.run_a, label_b=args.run_b,
                          registry=args.registry)
    except (FileNotFoundError, ValueError) as exc:
        raise _BadArguments(f"diff failed: {exc}")
    print(report)
    return 0


# ----------------------------------------------------------------------
# `actorprof query` — one declarative query against a stored run
# ----------------------------------------------------------------------

def _query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof query",
        description="evaluate one declarative trace query against a "
                    "stored run (trace directory, archive path or "
                    "registered run id)",
        parents=[_registry_options()],
    )
    parser.add_argument("run", help="trace directory, .aptrc archive, or "
                                    "registered run id")
    parser.add_argument("expr", help="query text, e.g. "
                                     "'sends where src == 0 group by dst'")
    parser.add_argument("--section", default="logical",
                        choices=("logical", "physical"),
                        help="which trace section to query (default logical)")
    parser.add_argument("--num-pes", type=int, default=None,
                        help="PE count (required only for trace directories)")
    return parser


def _query_main(argv: list[str]) -> int:
    import repro.api as api
    from repro.core.query import QueryError, query_trace
    from repro.core.store.registry import RegistryError

    args = _query_parser().parse_args(argv)
    try:
        if Path(args.run).is_dir():  # registered runs are archives
            with open_traces(args.run, args.num_pes) as traces:
                result = query_trace(traces[args.section], args.expr)
        else:
            with api.open_run(args.run, registry=args.registry) as run:
                result = run.query(args.expr, section=args.section)
    except (QueryError, ArchiveError, RegistryError, FileNotFoundError,
            KeyError, ValueError) as exc:
        raise _BadArguments(f"query failed: {exc}")
    if isinstance(result, list):
        for key, amount in result:
            print(f"{key}: {amount:,}")
    else:
        print(f"{result:,}")
    return 0


# ----------------------------------------------------------------------
# `actorprof viz` — LOD-pyramid views and the pan/zoom HTML page
# ----------------------------------------------------------------------

def _viz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorprof viz",
        description="render LOD-pyramid views (gantt, heatmap, timeline) "
                    "of a stored run into a standalone HTML page; with "
                    "--server the page pans/zooms against a live "
                    "'actorprof serve' instance's /runs/{id}/viz endpoints",
        parents=[_registry_options()],
    )
    parser.add_argument("run", help=".aptrc archive or registered run id")
    parser.add_argument("--view", action="append", default=[],
                        choices=("gantt", "heatmap", "timeline"),
                        help="which view(s) to render (repeatable; "
                             "default: all three)")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="output HTML path (default: RUN_viz.html "
                             "next to the archive)")
    parser.add_argument("--t0", type=int, default=None,
                        help="viewport start, cycles (default 0)")
    parser.add_argument("--t1", type=int, default=None,
                        help="viewport end, cycles (default: run horizon)")
    parser.add_argument("--res", type=int, default=None,
                        help="viewport resolution in buckets (default: "
                             "per-view; gantt 96, heatmap 16, timeline 120)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="base URL of a running 'actorprof serve' "
                             "(e.g. http://127.0.0.1:8750); embeds live "
                             "pan/zoom controls in the HTML")
    parser.add_argument("--backfill", action="store_true",
                        help="first backfill LOD pyramid sections into the "
                             "archive in place (no-op if already present); "
                             "RUN must be a path, not a registered run id")
    return parser


def _viz_main(argv: list[str]) -> int:
    import repro.api as api
    from repro.core.lod import DEFAULT_RES, LodError
    from repro.core.store.registry import RegistryError
    from repro.core.viz.lodviews import VIEWS, viz_html

    args = _viz_parser().parse_args(argv)
    if args.res is not None and args.res < 1:
        raise _BadArguments(f"--res must be >= 1: {args.res}")
    if args.backfill and not Path(args.run).exists():
        # the registry keys dedup and artifact caches on the fingerprint
        # it recorded, so a registered archive is never rewritten
        raise _BadArguments("--backfill rewrites the archive file, so RUN "
                            "must be a path, not a registered run id: "
                            "backfill a copy and 'actorprof runs add' it "
                            "(viz on the id works without it)")
    views = list(dict.fromkeys(args.view)) or list(VIEWS)
    try:
        path, run_id = api._resolve(args.run, args.registry)
        if args.backfill:
            from repro.core.store.lod import backfill_pyramid

            backfill_pyramid(path)
            print(f"backfilled LOD pyramid into {path}")
        rendered = {}
        with api.open_run(path) as run:
            for view in views:
                rendered[view] = run.viz(view, t0=args.t0, t1=args.t1,
                                         res=args.res)
            horizon = run.lod().horizon
        res = ({v: args.res for v in views} if args.res is not None
               else {v: DEFAULT_RES[v] for v in views})
        page = viz_html(rendered, run_label=run_id, horizon=horizon,
                        server=args.server, run_id=run_id, res=res)
    except (LodError, ArchiveError, RegistryError, FileNotFoundError,
            ValueError, OSError) as exc:
        raise _BadArguments(f"viz failed: {exc}")
    out = args.out or path.with_name(f"{run_id}_viz.html")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(page)
    print(f"wrote {out} ({len(views)} view(s), horizon {horizon:,} cycles)")
    return 0


_COMMANDS = {
    "runs": _runs_main,
    "diff": _diff_main,
    "faults": _faults_main,
    "run": _run_main,
    "check": _check_main,
    "whatif": _whatif_main,
    "serve": _serve_main,
    "push": _push_main,
    "query": _query_main,
    "viz": _viz_main,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
