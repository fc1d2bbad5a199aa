"""The three simulator-driven workloads: tri_batch, tri_fine, hist_wide.

All three run an FA-BSP application from ``repro.apps`` under
``ActorProf``, export the traces with an LOD pyramid, open the archive
through ``repro.api`` and query/render it.  They differ in which runtime
path carries the work (see the workload table in README.md).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro.api as api
from repro import ActorProf, ConveyorConfig, MachineSpec, ProfileFlags
from repro.apps import count_triangles, histogram
from repro.core.lod import DEFAULT_RES
from repro.core.query import query_trace
from repro.core.store.archive import Archive
from repro.graphs import LowerTriangular, graph500_input

import oracles
from harness import Ctx, Samples, Workload, own_peak_rss_mb, stat
from probes import HostSplitProbe

#: Repeats of the selective archive query inside one iteration.
QUERY_REPS = 20
SELECTIVE = ("sends", ("src", "==", 3), "dst")


def timed_selective_queries(ctx: Ctx, path: Path, cols: dict) -> None:
    """``query_ms``: Archive open + one selective query, fastest of reps."""
    text = oracles.query_text(*SELECTIVE)
    want = oracles.query_oracle(cols, *SELECTIVE)
    laps = []
    for _ in range(QUERY_REPS):
        with ctx.span("core.query.selective") as lap:
            with Archive(path) as archive:
                got = query_trace(archive.section("logical"), text)
        laps.append(lap.dur)
        ctx.check(f"archive query {text!r}", oracles.as_pairs(got) == want)
    ctx.value("query_ms", min(laps) * 1e3)


class SimWorkload(Workload):
    """Shared pipeline: simulate → record → export → open → query → render."""

    flags: ProfileFlags
    machine: MachineSpec
    #: The sample that is this workload's ``throughput_per_s``.
    THROUGHPUT = "sim.msgs_per_s"
    FIRST_VIEW = "heatmap"

    def run_app(self, ctx: Ctx, profiler):
        raise NotImplementedError

    # -- stages -----------------------------------------------------------

    def profiled_run(self, ctx: Ctx):
        ap = ActorProf(self.flags)
        with ctx.span("app.profiled") as lap:
            result = self.run_app(ctx, ap)
        stats = result.run.world.scheduler.stats
        sends = ap.logical.total_sends()
        ctx.value("sends", sends)
        ctx.value("sim.msgs_per_s", sends / lap.dur)
        ctx.value("sim.sched_wall_s", stats.wall_s)
        ctx.value("sim.handoffs_per_s", stats.handoffs / stats.wall_s)
        ctx.value("sim.us_per_handoff", stats.wall_s / stats.handoffs * 1e6)
        ctx.value("hclib.world_build_s", lap.dur - stats.wall_s)
        for field in ("handoffs", "selections", "pred_evals", "yield_fast",
                      "events_fired", "event_batches"):
            ctx.value(f"sim.{field}", getattr(stats, field))
        ctx.value("machine.sim_cycles_max", max(result.run.clocks))
        ctx.value("core.profiler.logical_rows",
                  len(ap.logical.to_columns()[0]["src"]))
        ctx.value("core.profiler.papi_rows",
                  sum(len(ap.papi_trace.rows(pe))
                      for pe in range(self.machine.n_pes)))
        if ap.timeline is not None:
            ctx.value("core.profiler.spans", ap.timeline.span_count())
        return ap, result

    def export(self, ctx: Ctx, ap: ActorProf) -> Path:
        path = ctx.workdir / "run.aptrc"
        with ctx.span("core.store.writer.export"):
            ap.export_archive(path, meta={"app": type(self).__name__,
                                          "seed": ctx.seed}, lod=True)
        ctx.value("archive_bytes", path.stat().st_size)
        return path

    def render(self, ctx: Ctx, run, view: str) -> None:
        with ctx.span(f"core.viz.render.{view}"):
            svg = run.viz(view)
        ctx.check(f"{view} svg parses", oracles.svg_ok(svg))
        ctx.value(f"core.viz.svg_bytes.{view}", len(svg.encode("utf-8")))

    def first_view(self, ctx: Ctx, ap: ActorProf):
        """Finished run → export → open → ``FIRST_VIEW`` SVG; returns the
        archive path and the still-open run."""
        with ctx.span("first_view"):
            path = self.export(ctx, ap)
            with ctx.span("api.open_run"):
                run = api.open_run(path)
            with ctx.span("core.lod.open"):
                run.lod()
            self.render(ctx, run, self.FIRST_VIEW)
        self.path, self.ap = path, ap
        return path, run

    def archive_queries(self, ctx: Ctx, run, ap: ActorProf, cols: dict) -> None:
        """Six archive queries and two in-memory ones, each with an oracle."""
        specs = [("sends",), ("bytes",), SELECTIVE,
                 ("bytes", ("size", ">=", 16), "src"),
                 ("sends", None, "dst", 4)]
        with ctx.span("core.query.archive"):
            got = [run.query(oracles.query_text(*spec)) for spec in specs]
            kinds = run.query("ops group by kind", section="physical")
        for spec, result in zip(specs, got):
            ctx.check(f"archive query {oracles.query_text(*spec)!r}",
                      oracles.as_pairs(result)
                      == oracles.query_oracle(cols, *spec))
        by_type = ap.physical.counts_by_type()
        ctx.check("archive ops group by kind",
                  dict(kinds) == {k: v for k, v in by_type.items() if v})
        text = oracles.query_text(*SELECTIVE)
        with ctx.span("core.query.inmem"):
            inmem = query_trace(ap.logical, text)
            inmem_kinds = query_trace(ap.physical, "ops group by kind")
        ctx.check(f"in-memory query {text!r}", oracles.as_pairs(inmem)
                  == oracles.query_oracle(cols, *SELECTIVE))
        ctx.check("in-memory ops group by kind", inmem_kinds == kinds)
        for kind in ("local_send", "nonblock_send", "nonblock_progress"):
            ctx.value(f"shmem.ops.{kind}", by_type.get(kind, 0))
        buffers = (ctx.sample["shmem.ops.local_send"]
                   + ctx.sample["shmem.ops.nonblock_send"])
        ctx.value("conveyors.buffer_ops", buffers)
        ctx.value("conveyors.msgs_per_buffer",
                  ap.logical.total_sends() / buffers)

    # -- trace-only layer probes ------------------------------------------

    def layer_probes(self, ctx: Ctx) -> None:
        self.host_split(ctx)
        with ctx.span("core.store.writer.export_nolod"):
            self.ap.export_archive(ctx.workdir / "nolod.aptrc", lod=False)
        with api.open_run(self.path) as run:
            lod = run.lod()
            with ctx.span("core.lod.series"):
                lod.pe_series(None, None, DEFAULT_RES["gantt"])

    def host_split(self, ctx: Ctx) -> None:
        """One run under :class:`HostSplitProbe`: MAIN / PROC / runtime."""
        probe = HostSplitProbe()
        with ctx.span("app.hostprobe"):
            result = self.run_app(ctx, probe)
        wall = result.run.world.scheduler.stats.wall_s
        ctx.check("host MAIN + PROC <= scheduler wall",
                  probe.main_s + probe.proc_s <= wall,
                  f"{probe.main_s:.3f} + {probe.proc_s:.3f} > {wall:.3f}")
        ctx.value("hclib.host_main_s", probe.main_s)
        ctx.value("hclib.host_proc_s", probe.proc_s)
        ctx.value("sim.host_runtime_s", wall - probe.main_s - probe.proc_s)
        ctx.value("hclib.proc_batches", probe.proc_batches)
        ctx.check("probe saw the same Conveyors ops as ActorProf",
                  probe.buffer_ops == ctx.sample["conveyors.buffer_ops"])

    # -- summaries --------------------------------------------------------

    def e2e(self, plain: Samples) -> dict:
        return {
            "pipeline_wall_s": self.pipeline_wall(plain),
            "throughput_per_s": plain.best_rate(self.THROUGHPUT),
            "time_to_first_view_s": plain.best("first_view"),
            "query_ms": plain.best("query_ms"),
            "first_view_svg_mb": plain.med(
                f"core.viz.svg_bytes.{self.FIRST_VIEW}", 1e-6),
            "archive_bytes": plain.med("archive_bytes"),
        }

    def sim_layers(self, plain: Samples, traced: Samples) -> dict:
        export = traced.best("core.store.writer.export").value
        out = {
            "sim_msgs_per_s": plain.best_rate("sim.msgs_per_s"),
            "sim_handoffs_per_s": plain.best_rate("sim.handoffs_per_s"),
            "core.store.writer.export_s":
                traced.best("core.store.writer.export"),
            "core.store.lod.build_s": stat([
                export - traced.best("core.store.writer.export_nolod").value]),
            "core.store.archive.open_s": traced.best("api.open_run"),
            "core.query.pruned_ms": traced.best("query_ms"),
            "pruned_query_ms": plain.best("query_ms"),
            "core.query.inmem_ms": traced.best("core.query.inmem", 1e3),
            "core.lod.open_s": traced.best("core.lod.open"),
            "core.lod.series_s": traced.best("core.lod.series"),
        }
        for name in ("sim.sched_wall_s", "sim.us_per_handoff",
                     "hclib.world_build_s", "hclib.host_main_s",
                     "hclib.host_proc_s", "sim.host_runtime_s"):
            out[name] = traced.best(name)
        for name in ("sim.handoffs", "sim.selections", "sim.pred_evals",
                     "sim.yield_fast", "sim.events_fired",
                     "sim.event_batches", "hclib.proc_batches",
                     "conveyors.buffer_ops", "conveyors.msgs_per_buffer",
                     "shmem.ops.local_send", "shmem.ops.nonblock_send",
                     "shmem.ops.nonblock_progress", "machine.sim_cycles_max",
                     "core.profiler.papi_rows", "core.profiler.logical_rows"):
            out[name] = traced.exact(name)
        if traced.has("core.profiler.spans"):
            out["core.profiler.spans"] = traced.exact("core.profiler.spans")
        for view in ("gantt", "heatmap", "timeline"):
            if traced.has(f"core.viz.render.{view}"):
                out[f"core.viz.render_s.{view}"] = traced.best(
                    f"core.viz.render.{view}")
                out[f"core.viz.svg_bytes.{view}"] = traced.exact(
                    f"core.viz.svg_bytes.{view}")
        paired = plain if plain.has("app.bare") else traced
        profiled = paired.best("app.profiled").value
        bare = paired.best("app.bare").value
        out["profile_overhead_ratio"] = stat([profiled / bare])
        out["core.profiler.record_s"] = stat([profiled - bare])
        out["core.profiler.us_per_send"] = stat([
            (profiled - bare) / traced.med("sends").value * 1e6])
        return out


class Triangle(SimWorkload):
    """Paper §IV case study; ``batch`` picks vectorised or per-message."""

    #: graph500 R-MAT, but edge factor 12 rather than the paper's 16:
    #: the LOD pyramid's bucket width is a power of two of the simulated
    #: horizon, and at 16 the horizon straddles 2**23 (scale 10) and
    #: sits just under 2**20 (scale 8), so ``archive_bytes`` flips by
    #: 25 % from one graph seed to the next.  At 12 it is mid-octave.
    EDGE_FACTOR = 12
    SMOKE_SCALE = 6
    STAGES = ("app.bare", "app.profiled", "first_view",
              "core.query.archive", "core.query.inmem",
              "core.viz.render.gantt", "core.viz.render.timeline",
              "core.query.selective")

    def __init__(self, *, batch: bool, scale: int, nodes: int) -> None:
        self.batch = batch
        self.scale = scale
        self.machine = MachineSpec.perlmutter_like(nodes, 16)
        self.flags = ProfileFlags.all(enable_timeline=True,
                                      papi_sample_interval=1)
        self.conveyors = ConveyorConfig(buffer_items=64)

    def setup(self, ctx: Ctx) -> None:
        scale = self.SMOKE_SCALE if ctx.smoke else self.scale
        with ctx.span("graphs.build"):
            edges = graph500_input(scale, self.EDGE_FACTOR, seed=ctx.seed)
            self.graph = LowerTriangular.from_edges(edges)
        n_pes = self.machine.n_pes
        self.expected = oracles.triangle_logical_matrix(self.graph, n_pes)
        # payload is the (j, k) pair: two int64 words
        self.cols = oracles.matrix_columns(self.expected, self.expected * 16)

    def run_app(self, ctx: Ctx, profiler):
        return count_triangles(self.graph, self.machine, "cyclic",
                               profiler=profiler,
                               conveyor_config=self.conveyors,
                               batch=self.batch, validate=True,
                               seed=ctx.seed)

    def iterate(self, ctx: Ctx) -> None:
        with ctx.span("app.bare"):
            bare = self.run_app(ctx, None)
        ap, prof = self.profiled_run(ctx)
        self.triangles = prof.triangles
        ctx.check("triangle count: bare == profiled == reference",
                  bare.triangles == prof.triangles == prof.reference)
        ctx.check("simulated clocks identical bare vs profiled",
                  bare.run.clocks == prof.run.clocks)
        self.logical = ap.logical.matrix()
        ctx.check("logical matrix == graph oracle",
                  np.array_equal(self.logical, self.expected))
        path, run = self.first_view(ctx, ap)
        with run:
            self.archive_queries(ctx, run, ap, self.cols)
            self.render(ctx, run, "gantt")
            self.render(ctx, run, "timeline")
        timed_selective_queries(ctx, path, self.cols)

    def probe(self, ctx: Ctx) -> None:
        no_timeline = ActorProf(ProfileFlags.all(papi_sample_interval=1))
        with ctx.span("app.profiled_no_timeline"):
            self.run_app(ctx, no_timeline)
        self.layer_probes(ctx)

    def layers(self, plain: Samples, traced: Samples) -> dict:
        out = self.sim_layers(plain, traced)
        out["graphs.build_s"] = stat([self.setup_spans["graphs.build"]])
        out["core.profiler.timeline_s"] = stat([
            traced.best("app.profiled").value
            - traced.best("app.profiled_no_timeline").value])
        return out

    def checks(self) -> dict:
        return {"triangles": self.triangles,
                "logical_matrix_sha256": oracles.sha256_of(self.logical),
                "archive_sha256": oracles.sha256_of(self.path)}


class HistWide(SimWorkload):
    """Listing 1–2 histogram on 1024 PEs: scheduler-bound, no app work."""

    UPDATES, TABLE = 2, 64
    flags = ProfileFlags.all()
    THROUGHPUT = "sim.handoffs_per_s"
    #: the first view of a 1024-PE run is the gantt, whose cost is
    #: O(n_pes); the O(n_pes**2) heatmap is measured in finish()
    FIRST_VIEW = "gantt"
    STAGES = ("app.profiled", "first_view", "core.query.archive",
              "core.query.inmem", "core.query.selective")

    def setup(self, ctx: Ctx) -> None:
        self.machine = MachineSpec(16 if ctx.smoke else 256, 4)
        self.heatmap: dict = {}

    def run_app(self, ctx: Ctx, profiler):
        return histogram(self.UPDATES, self.TABLE, self.machine,
                         profiler=profiler, validate=True, seed=ctx.seed)

    def iterate(self, ctx: Ctx) -> None:
        ap, result = self.profiled_run(ctx)
        self.result = result
        self.logical = ap.logical.matrix()
        ctx.check("per-PE receives == logical matrix column sums",
                  result.per_pe_received == self.logical.sum(axis=0).tolist())
        cols = oracles.matrix_columns(self.logical, ap.logical.bytes_matrix())
        path, run = self.first_view(ctx, ap)
        with run:
            self.archive_queries(ctx, run, ap, cols)
        timed_selective_queries(ctx, path, cols)

    def probe(self, ctx: Ctx) -> None:
        with ctx.span("app.bare"):
            bare = self.run_app(ctx, None)
        ctx.check("simulated clocks identical bare vs profiled",
                  bare.run.clocks == self.result.run.clocks)
        self.layer_probes(ctx)

    def finish(self, ctx: Ctx) -> None:
        """Traced pass only: the heatmap of the 1024-PE run, rendered in
        a second fresh interpreter.  One ``<rect>`` per PE pair makes it
        a ~148 MB SVG that takes ~7 s and ~1 GB to build — too much to
        repeat in every run, and it must not count towards the
        simulator's own ``peak_rss_mb``."""
        if not ctx.trace_run:
            return
        child = Path(__file__).with_name("child.py")
        with ctx.span("core.viz.heatmap_child"):
            proc = subprocess.run(
                [sys.executable, str(child), "--heatmap", str(self.path)],
                capture_output=True, text=True, timeout=150)
        ok = proc.returncode == 0
        ctx.check("heatmap child exited 0", ok, proc.stderr[-300:])
        if ok:
            self.heatmap = json.loads(proc.stdout.splitlines()[-1])
            ctx.check("heatmap svg parses", self.heatmap["svg_ok"])

    def layers(self, plain: Samples, traced: Samples) -> dict:
        out = self.sim_layers(plain, traced)
        out["core.viz.render_s.heatmap"] = stat([self.heatmap["render_s"]])
        out["core.viz.svg_bytes.heatmap"] = stat([self.heatmap["svg_bytes"]])
        out["core.viz.peak_rss_mb"] = stat([self.heatmap["peak_rss_mb"]])
        return out

    def checks(self) -> dict:
        return {"updates": self.result.total_updates,
                "logical_matrix_sha256": oracles.sha256_of(self.logical),
                "archive_sha256": oracles.sha256_of(self.path)}


def render_heatmap_child(path: str) -> dict:
    """Body of ``child.py --heatmap``: open → heatmap, then report."""
    with api.open_run(path) as run:
        run.lod()
        t1 = time.perf_counter()
        svg = run.viz("heatmap")
    t2 = time.perf_counter()
    peak = own_peak_rss_mb()
    return {"render_s": t2 - t1,
            "svg_bytes": len(svg.encode("utf-8")), "peak_rss_mb": peak,
            "svg_ok": oracles.svg_ok(svg)}
