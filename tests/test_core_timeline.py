"""Tests for the timeline trace and its exporters."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.core.export.chrome import to_chrome_trace, write_chrome_trace
from repro.core.export.otf import FUNCTION_IDS, write_otf
from repro.conveyors.hooks import SEND_TYPES
from repro.core.timeline import FINISH, MAIN, TimelineTrace
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


# ----------------------------------------------------------- unit level


def test_add_and_query_spans():
    tl = TimelineTrace(2)
    tl.add_span(0, "MAIN", 0, 100)
    tl.add_span(0, "PROC", 120, 150, mailbox=1)
    tl.add_span(1, "MAIN", 10, 20)
    assert tl.span_count() == 3
    assert tl.span_bounds().tolist() == [0, 2, 3]
    # PE-major, region codes into REGIONS (MAIN 0, PROC 1)
    assert {k: v.tolist() for k, v in tl.span_columns().items()} == {
        "pe": [0, 0, 1], "region": [0, 1, 0], "start": [0, 120, 10],
        "end": [100, 150, 20], "mailbox": [-1, 1, -1]}


def test_unknown_region_or_kind_rejected():
    tl = TimelineTrace(1)
    with pytest.raises(ValueError, match="region 'IDLE'"):
        tl.add_span(0, "IDLE", 0, 1)
    with pytest.raises(ValueError, match="kind 'teleport'"):
        tl.add_net_event(0, "teleport", 0, 0, 8)


def test_invalid_span_rejected():
    tl = TimelineTrace(1)
    with pytest.raises(ValueError):
        tl.add_span(0, "MAIN", 100, 50)
    with pytest.raises(ValueError):
        TimelineTrace(1, max_spans_per_pe=0)


def test_span_cap_drops_tail():
    tl = TimelineTrace(1, max_spans_per_pe=2)
    for i in range(5):
        tl.add_span(0, "MAIN", i, i + 1)
    assert tl.span_count() == 2
    assert tl.dropped_spans == 3


def test_net_events_and_end_time():
    tl = TimelineTrace(2)
    tl.add_span(0, "MAIN", 0, 100)
    tl.add_net_event(500, "local_send", 0, 1, 64)
    assert tl.end_time() == 500
    assert tl.net_count() == 1
    assert tl.net_columns()["kind"].tolist() == [SEND_TYPES.index("local_send")]


def test_region_totals():
    tl = TimelineTrace(2)
    tl.add_span(0, "MAIN", 0, 100)
    tl.add_span(0, "MAIN", 200, 250)
    tl.add_span(1, "PROC", 0, 30)
    assert tl.region_totals("MAIN").tolist() == [150, 0]
    assert tl.region_totals("PROC").tolist() == [0, 30]


# ------------------------------------------------------ integrated runs


@pytest.fixture(scope="module")
def profiled_run():
    ap = ActorProf(ProfileFlags.all(enable_timeline=True))

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx)
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        async with ctx.finish():
            a.start()
            for i in range(30):
                a.send(int(ctx.rng.integers(0, 8)),
                       int(ctx.rng.integers(0, ctx.n_pes)))
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(2, 4), profiler=ap, seed=3)
    return ap


def test_runtime_produces_consistent_timeline(profiled_run):
    ap = profiled_run
    tl = ap.timeline
    spec = ap.world.spec
    # timeline MAIN/PROC totals must equal the overall profile's
    assert np.array_equal(tl.region_totals("MAIN"), ap.overall.t_main)
    assert np.array_equal(tl.region_totals("PROC"), ap.overall.t_proc)
    # one FINISH span per PE spanning the measured total
    spans = tl.span_columns()
    fin = spans["region"] == FINISH
    assert spans["pe"][fin].tolist() == list(range(spec.n_pes))
    assert np.array_equal((spans["end"] - spans["start"])[fin],
                          ap.overall.t_total)
    # network events match the physical trace operation count
    assert tl.net_count() == ap.physical.total_operations()


def test_spans_are_non_overlapping_per_pe(profiled_run):
    spans = profiled_run.timeline.span_columns()
    busy = spans["region"] != FINISH
    pe, start, end = (spans[c][busy] for c in ("pe", "start", "end"))
    order = np.lexsort((start, pe))
    pe, start, end = pe[order], start[order], end[order]
    same_pe = pe[1:] == pe[:-1]
    assert (end[:-1][same_pe] <= start[1:][same_pe]).all()


# --------------------------------------------------------- chrome export


def test_chrome_trace_structure(profiled_run, tmp_path):
    ap = profiled_run
    obj = to_chrome_trace(ap.timeline, ap.world.spec, clock_ghz=2.0)
    events = obj["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i"} <= phases
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == ap.timeline.span_count()
    # pid is the node, tid the PE
    for e in spans:
        assert e["pid"] == ap.world.spec.node_of(e["tid"])
    # flow events pair up (s then f with the same id)
    starts = [e["id"] for e in events if e["ph"] == "s"]
    ends = [e["id"] for e in events if e["ph"] == "f"]
    assert sorted(starts) == sorted(ends)
    # timestamps are µs: 2 GHz → cycles / 2000
    main0 = next(e for e in spans if e["name"] == "MAIN" and e["tid"] == 0)
    spans = ap.timeline.span_columns()
    raw = spans["start"][(spans["pe"] == 0) & (spans["region"] == MAIN)][0]
    assert main0["ts"] == pytest.approx(raw / 2000.0)

    path = write_chrome_trace(ap.timeline, ap.world.spec, tmp_path / "t.json")
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == len(events)


def test_chrome_trace_validates_clock():
    tl = TimelineTrace(1)
    with pytest.raises(ValueError):
        to_chrome_trace(tl, MachineSpec(1, 1), clock_ghz=0)


# ------------------------------------------------------------ otf export


def test_otf_file_set(profiled_run, tmp_path):
    ap = profiled_run
    spec = ap.world.spec
    written = write_otf(ap.timeline, spec, tmp_path, name="t")
    assert (tmp_path / "t.otf").exists()
    assert (tmp_path / "t.0.def").exists()
    assert len(written) == 2 + spec.n_pes
    defs = (tmp_path / "t.0.def").read_text()
    assert "DEFTIMERRESOLUTION" in defs
    assert 'DEFFUNCTION 1 "MAIN" 1' in defs
    assert defs.count("DEFPROCESS ") == spec.n_pes
    assert defs.count("DEFPROCESSGROUP") == spec.nodes


def parse_otf_events(path) -> list[tuple]:
    """The OTF writer's oracle: one ``.events`` stream back as tuples.

    ENTER/LEAVE → ("ENTER"/"LEAVE", function_id, time, process);
    SEND → ("SEND", time, src, dst, nbytes, kind).
    """
    out: list[tuple] = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] in ("ENTER", "LEAVE"):
            out.append((parts[0], int(parts[1]), int(parts[2]), int(parts[3])))
        elif parts[0] == "SEND":
            kind = line.split('"')[1]
            out.append(("SEND", int(parts[1]), int(parts[2]), int(parts[3]),
                        int(parts[4]), kind))
        else:
            raise ValueError(f"unknown OTF record: {line!r}")
    return out


def test_otf_events_roundtrip(profiled_run, tmp_path):
    ap = profiled_run
    write_otf(ap.timeline, ap.world.spec, tmp_path, name="t")
    evs = parse_otf_events(tmp_path / "t.1.events")
    enters = [e for e in evs if e[0] == "ENTER"]
    leaves = [e for e in evs if e[0] == "LEAVE"]
    assert len(enters) == len(leaves) == ap.timeline.span_bounds()[1]
    # balanced per function id
    for fid in FUNCTION_IDS.values():
        assert sum(1 for e in enters if e[1] == fid) == sum(
            1 for e in leaves if e[1] == fid
        )
    # timestamps are sorted
    times = [e[1] if e[0] == "SEND" else e[2] for e in evs]
    assert times == sorted(times)
    sends = [e for e in evs if e[0] == "SEND"]
    assert len(sends) == (ap.timeline.net_columns()["src"] == 0).sum()


def test_otf_parse_rejects_junk(tmp_path):
    p = tmp_path / "bad.events"
    p.write_text("WAT 1 2 3\n")
    with pytest.raises(ValueError):
        parse_otf_events(p)
