"""``actorprof -t``: the timeline of ``trace.json`` drawn through its LOD
pyramid, as ``timeline.svg`` (per-PE gantt) and ``utilization.svg``
(machine-wide timeline)."""

from repro import ActorProf, MachineSpec, ProfileFlags
from repro.apps.triangle import count_triangles
from repro.core.cli import main
from repro.core.export import write_chrome_trace
from repro.core.lod import DEFAULT_RES, open_lod
from repro.core.store.archive import Archive
from repro.core.timeline import TimelineTrace
from repro.core.viz.lodviews import lod_gantt_svg, lod_timeline_svg
from repro.graphs import LowerTriangular, graph500_input


def make_timeline():
    tl = TimelineTrace(2)
    tl.add_span(0, "MAIN", 0, 400)
    tl.add_span(0, "PROC", 500, 700, mailbox=0)
    tl.add_span(0, "FINISH", 0, 1000)
    tl.add_span(1, "MAIN", 100, 300)
    tl.add_net_event(450, "local_send", 0, 1, 128)
    tl.add_net_event(650, "nonblock_send", 1, 0, 64)
    return tl


def render(tmp_path, tl, n_pes):
    """``-t`` over a trace directory holding only ``tl``'s trace.json."""
    traces, out = tmp_path / "traces", tmp_path / "charts"
    traces.mkdir()
    write_chrome_trace(tl, MachineSpec(1, n_pes), traces / "trace.json")
    assert main([str(traces), "--num-pes", str(n_pes), "-t",
                 "--out", str(out), "--quiet"]) == 0
    return ((out / "timeline.svg").read_text(),
            (out / "utilization.svg").read_text())


def test_dash_t_is_the_lod_render_of_the_archived_run(tmp_path):
    """Both files are, byte for byte, what the LOD renderers draw from
    the same profiler's archive at the default resolution."""
    graph = LowerTriangular.from_edges(graph500_input(6, edge_factor=8,
                                                      seed=0))
    ap = ActorProf(ProfileFlags.all(enable_timeline=True))
    count_triangles(graph, MachineSpec(2, 2), "cyclic", profiler=ap)
    traces, out = tmp_path / "traces", tmp_path / "charts"
    ap.write_traces(traces)
    assert main([str(traces), "--num-pes", "4", "-t",
                 "--out", str(out), "--quiet"]) == 0
    with Archive(ap.export_archive(tmp_path / "run.aptrc", lod=True)) as a:
        lod = open_lod(a)
        gantt = lod_gantt_svg(lod.pe_series(None, None, DEFAULT_RES["gantt"]),
                              title="Execution timeline")
        timeline = lod_timeline_svg(
            lod.pe_series(None, None, DEFAULT_RES["timeline"]),
            title="PE utilization over time")
    assert lod.info.time_resolved
    assert (out / "timeline.svg").read_text() == gantt
    assert (out / "utilization.svg").read_text() == timeline


def test_timeline_svg_structure(tmp_path):
    gantt, _ = render(tmp_path, make_timeline(), 2)
    assert "<svg" in gantt
    assert "Execution timeline [level " in gantt
    assert "PE0" in gantt and "PE1" in gantt
    assert "PE0 bucket 0: MAIN " in gantt
    # FINISH spans only bound COMM, they are never drawn as a region
    assert "FINISH" not in gantt
    assert "cycles (rdtsc)" in gantt


def test_timeline_svg_empty_timeline(tmp_path):
    gantt, utilization = render(tmp_path, TimelineTrace(1), 1)
    assert "<svg" in gantt and "PE0" in gantt
    assert "<svg" in utilization


def test_timeline_decimation_bounds_size(tmp_path):
    """The gantt draws buckets, not spans: at most three segments per
    PE and bucket, however many spans the lane holds."""
    tl = TimelineTrace(1)
    for i in range(5000):
        tl.add_span(0, "MAIN", 2 * i, 2 * i + 1)
    gantt, _ = render(tmp_path, tl, 1)
    # a lane background, three legend swatches, the segments
    assert gantt.count("<rect") <= 1 + 3 + 3 * 2 * DEFAULT_RES["gantt"]


def test_utilization_svg(tmp_path):
    _, utilization = render(tmp_path, make_timeline(), 2)
    assert "PE utilization over time [level " in utilization
    assert " PE-cycles</title>" in utilization
    assert "PE1" not in utilization  # machine-wide: no lanes

