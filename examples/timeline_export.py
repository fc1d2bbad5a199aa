#!/usr/bin/env python
"""Timeline tracing and standard-format export (paper §VI future work).

Profiles a triangle-counting run with the timeline capability enabled and
exports the result as:

* ``timeline_out/trace.json`` — Google Trace Event format
  (open in chrome://tracing or https://ui.perfetto.dev),
* ``timeline_out/actorprof.*`` — a simplified OTF file set,
* ``timeline_out/timeline.svg`` / ``utilization.svg`` — the LOD
  pyramid's per-PE gantt and machine-wide timeline, the two views
  ``actorprof timeline_out --num-pes 16 -t`` draws from ``trace.json``.

Run:  python examples/timeline_export.py
"""

from pathlib import Path

from repro import ActorProf, MachineSpec, ProfileFlags
from repro.apps.triangle import count_triangles
from repro.core.lod import LodView
from repro.core.store.lod import build_pyramid
from repro.core.viz.lodviews import render_view
from repro.graphs import LowerTriangular, graph500_input


def main() -> None:
    outdir = Path("timeline_out")
    graph = LowerTriangular.from_edges(graph500_input(8, edge_factor=8, seed=0))
    machine = MachineSpec.perlmutter_like(2, 8)

    ap = ActorProf(ProfileFlags.all(enable_timeline=True, papi_sample_interval=32))
    res = count_triangles(graph, machine, "cyclic", profiler=ap)
    print(f"counted {res.triangles} triangles on {machine.n_pes} PEs "
          f"(validated: {res.triangles == res.reference})")

    tl = ap.timeline
    print(f"timeline: {tl.span_count()} region spans, "
          f"{tl.net_count()} network events, "
          f"horizon {tl.end_time():,} cycles")

    written = ap.write_traces(outdir)
    print(f"Google Trace Event file: {written['chrome_trace']}")
    print(f"OTF file set: {len(written['otf'])} files "
          f"({written['otf'][0]}, ...)")

    # binned to the display's resolution, however many spans there are
    lod = LodView.from_pyramid(build_pyramid(tl))
    (outdir / "timeline.svg").write_text(render_view(
        lod, "gantt", title="Execution timeline (note PE0's long PROC tail)"))
    (outdir / "utilization.svg").write_text(
        render_view(lod, "timeline", title="PE utilization over time"))
    print(f"charts: {outdir}/timeline.svg, {outdir}/utilization.svg")

    # the region totals in the timeline agree with the overall profile
    assert (tl.region_totals("MAIN") == ap.overall.t_main).all()
    assert (tl.region_totals("PROC") == ap.overall.t_proc).all()
    print("cross-check: timeline region totals == overall profile totals")


if __name__ == "__main__":
    main()
