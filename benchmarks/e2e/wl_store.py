"""store_scan: the store, query and LOD layers with no simulator.

Writes sit beside reads and prunable predicates beside unprunable ones,
so a decode win that costs encode time, archive size or the
pushdown-on-but-nothing-pruned path shows up in the same run.
"""

from __future__ import annotations

import numpy as np

import repro.api as api
from repro.core.query import query_trace
from repro.core.store import codec
from repro.core.store.archive import Archive
from repro.core.store.frame import Frame
from repro.core.store.lod import backfill_pyramid
from repro.core.store.registry import RunRegistry

import oracles
import synth
from harness import Ctx, Samples, Workload, stat
from wl_sim import SELECTIVE, timed_selective_queries

N_PES = 64
GROUPS = 64
FULL_SCAN = ("bytes", ("size", ">=", 16), "src")
#: ``dst`` is random in every row group, so its chunk stats prune nothing.
UNPRUNABLE = ("bytes", ("dst", "==", 3), "src")


class StoreScan(Workload):
    ROWS, SMOKE_ROWS = 1_000_000, 50_000
    STAGES = ("core.store.writer.write", "core.query.full_scan",
              "core.query.unprunable", "core.query.selective",
              "core.query.footer_agg", "first_view")

    def setup(self, ctx: Ctx) -> None:
        self.rows = self.SMOKE_ROWS if ctx.smoke else self.ROWS
        rng = np.random.default_rng(ctx.seed)
        self.chunks = synth.make_chunks(rng, self.rows, GROUPS, N_PES)
        self.rows = sum(len(c["src"]) for c in self.chunks)
        self.cols = synth.flatten(self.chunks)
        self.want = {spec: oracles.query_oracle(self.cols, *spec)
                     for spec in (FULL_SCAN, UNPRUNABLE, ("sends",),
                                  ("bytes",))}
        self.path = ctx.workdir / "scan.aptrc"

    def scan(self, ctx: Ctx, span: str, spec, pushdown: bool) -> float:
        text = oracles.query_text(*spec)
        with ctx.span(span) as lap:
            with Archive(self.path) as archive:
                got = query_trace(archive.section("logical"), text,
                                  pushdown=pushdown)
        ctx.check(f"{text!r} pushdown={pushdown}",
                  oracles.as_pairs(got) == self.want[spec])
        return lap.dur

    def iterate(self, ctx: Ctx) -> None:
        with ctx.span("core.store.writer.write"):
            synth.write_archive(self.path, self.chunks, N_PES,
                                meta={"seed": ctx.seed})
        ctx.value("archive_bytes", self.path.stat().st_size)
        self.archive_sha256 = oracles.sha256_of(self.path)
        self.scan(ctx, "core.query.full_scan", FULL_SCAN, pushdown=False)
        self.scan(ctx, "core.query.unprunable", UNPRUNABLE, pushdown=True)
        timed_selective_queries(ctx, self.path, self.cols)
        with ctx.span("core.query.footer_agg"):
            with Archive(self.path) as archive:
                section = archive.section("logical")
                sends = query_trace(section, "sends")
                nbytes = query_trace(section, "bytes")
                decoded = set(archive.decoded_columns)
        ctx.check("footer aggregates", (sends, nbytes)
                  == (self.want[("sends",)], self.want[("bytes",)]))
        ctx.check("footer aggregates decode no column", decoded == set(),
                  str(decoded))
        with ctx.span("first_view"):
            with ctx.span("core.store.lod.backfill"):
                backfill_pyramid(self.path)
            with ctx.span("api.open_run"):
                run = api.open_run(self.path)
            with run:
                with ctx.span("core.lod.open"):
                    run.lod()
                with ctx.span("core.viz.render.heatmap"):
                    svg = run.viz("heatmap")
        ctx.check("heatmap svg parses", oracles.svg_ok(svg))
        ctx.value("core.viz.svg_bytes.heatmap", len(svg.encode("utf-8")))

    def probe(self, ctx: Ctx) -> None:
        """Each store layer alone, through its own public function."""
        for name in synth.COLUMNS:
            with ctx.span(f"core.store.codec.encode.{name}"):
                encoded = [codec.encode_column(c[name]) for c in self.chunks]
            ctx.value(f"core.store.codec.bytes.{name}",
                      sum(len(payload) for payload, _ in encoded))
            with ctx.span(f"core.store.codec.decode.{name}"):
                decoded = [codec.decode_column(payload, encoding, len(c[name]))
                           for (payload, encoding), c
                           in zip(encoded, self.chunks)]
            ctx.check(f"codec round trip {name}", all(
                np.array_equal(d, c[name])
                for d, c in zip(decoded, self.chunks)))
        with ctx.span("core.store.archive.open"):
            archive = Archive(self.path)
        with archive:
            section = archive.section("logical")
            with ctx.span("core.store.archive.column"):
                # the three columns the full-scan query reads
                for name in ("src", "size", "count"):
                    section.column(name)
            for label, (_, (field, op, value), _) in (
                    ("selective", SELECTIVE), ("unprunable", UNPRUNABLE)):
                frame = Frame(section)
                with ctx.span("core.store.frame.prune"):
                    frame.prune(field, op, value)
                ctx.value(f"core.store.frame.chunks_kept_frac.{label}",
                          float(frame.keep.mean()))
        # The same unprunable query with pushdown off: what stat checks
        # that prune nothing cost on top of a plain scan.  One lap of a
        # 1 M-row scan takes 0.10 s or 0.20-0.30 s depending on whether
        # numpy's 8 MB temporaries come from recycled heap or freshly
        # mapped pages, so the two are alternated and the fastest kept.
        laps = [(self.scan(ctx, "probe.unprunable.push", UNPRUNABLE, True),
                 self.scan(ctx, "probe.unprunable.nopush", UNPRUNABLE, False))
                for _ in range(3)]
        ctx.value("unprunable_push_s", min(push for push, _ in laps))
        ctx.value("unprunable_nopush_s", min(nopush for _, nopush in laps))
        registry = RunRegistry(ctx.workdir / f"registry-{ctx.iteration}")
        with ctx.span("core.store.registry.add"):
            registry.add_dedup(self.path, run_id="scan")

    def e2e(self, plain: Samples) -> dict:
        return {
            "pipeline_wall_s": self.pipeline_wall(plain),
            "throughput_per_s": stat([
                self.rows / plain.best("core.query.full_scan").value]),
            "time_to_first_view_s": plain.best("first_view"),
            "query_ms": plain.best("query_ms"),
            "first_view_svg_mb": plain.med("core.viz.svg_bytes.heatmap", 1e-6),
            "archive_bytes": plain.med("archive_bytes"),
        }

    def layers(self, plain: Samples, traced: Samples) -> dict:
        mrows = self.rows / 1e6
        out = {
            "scan_mrows_per_s": stat([
                mrows / plain.best("core.query.full_scan").value]),
            "encode_mrows_per_s": stat([
                mrows / plain.best("core.store.writer.write").value]),
            "pruned_query_ms": plain.best("query_ms"),
            "core.store.writer.write_s": traced.best("core.store.writer.write"),
            "core.store.lod.backfill_s": traced.best("core.store.lod.backfill"),
            "core.store.archive.open_s": traced.best("core.store.archive.open"),
            "core.store.archive.column_s":
                traced.best("core.store.archive.column"),
            "core.query.eval_s": stat([
                traced.best("core.query.full_scan").value
                - traced.best("core.store.archive.column").value]),
            "core.store.frame.prune_s": traced.best("core.store.frame.prune"),
            "core.query.pruned_ms": traced.best("query_ms"),
            "core.query.unprunable_s": stat([min(
                traced.best("core.query.unprunable").value,
                traced.best("unprunable_push_s").value)]),
            "core.query.unprunable_nopush_s":
                traced.best("unprunable_nopush_s"),
            "core.query.footer_agg_ms":
                traced.best("core.query.footer_agg", 1e3),
            "core.lod.open_s": traced.best("core.lod.open"),
            "core.viz.render_s.heatmap": traced.best("core.viz.render.heatmap"),
            "core.viz.svg_bytes.heatmap":
                traced.exact("core.viz.svg_bytes.heatmap"),
            "core.store.registry.add_s":
                traced.best("core.store.registry.add"),
        }
        for name in synth.COLUMNS:
            out[f"core.store.codec.encode_s.{name}"] = traced.best(
                f"core.store.codec.encode.{name}")
            out[f"core.store.codec.decode_s.{name}"] = traced.best(
                f"core.store.codec.decode.{name}")
            out[f"core.store.codec.bytes.{name}"] = traced.exact(
                f"core.store.codec.bytes.{name}")
        for label in ("selective", "unprunable"):
            key = f"core.store.frame.chunks_kept_frac.{label}"
            out[key] = traced.exact(key)
        return out

    def checks(self) -> dict:
        return {"rows": self.rows,
                "logical_columns_sha256": oracles.sha256_of(
                    np.concatenate([self.cols[c] for c in synth.COLUMNS])),
                "archive_sha256": self.archive_sha256}
