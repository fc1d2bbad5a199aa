"""Tests for the LOD summary pyramid: build, store, backfill, query.

The differential properties here are the pyramid's contract: every
level is an *exact* aggregation — per-PE occupancy totals equal the
``overall`` section, per-edge count/bytes totals equal a full decode of
the ``physical`` section, and coarser levels are exact pairwise sums of
finer ones.  The backfill tests pin format compatibility: the original
data region is copied byte-for-byte, so pre-pyramid readers see the
exact same sections.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import ActorProf, ConveyorConfig, ProfileFlags
from repro.apps import count_triangles, histogram
from repro.conveyors.hooks import SEND_TYPES
from repro.core.lod import DEFAULT_RES, LodView, open_lod
from repro.core.rowstore import scatter_matrix
from repro.core.logical import LogicalTrace
from repro.core.store.archive import Archive, load_overall, load_run
from repro.core.store.frame import Frame
from repro.core.store.lod import (
    EDGE_SECTION,
    PE_SECTION,
    LodError,
    backfill_pyramid,
    build_flat_pyramid,
    build_pyramid,
    has_pyramid,
    level_widths,
    pyramid_info,
    read_level,
)
from repro.core.store.writer import ArchiveWriter
from repro.core.timeline import REGIONS, TimelineTrace
from repro.graphs import LowerTriangular, graph500_input
from repro.machine.spec import MachineSpec

from tests.archive_tools import as_v1, as_v2, strip_chunk_stats
from tests.lod_oracle import build_pyramid_fold
from tests.test_golden_archives import GOLDEN_DIR


@pytest.fixture(scope="module")
def profiled():
    ap = ActorProf(ProfileFlags.all(enable_timeline=True))
    histogram(500, 128, MachineSpec(2, 2), profiler=ap)
    return ap


@pytest.fixture(scope="module")
def lod_archive(profiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("lod") / "hist.aptrc"
    return profiled.export_archive(path, meta={"app": "hist"}, lod=True)


def _pe_totals(cols, n_pes):
    out = np.zeros((n_pes, 3), dtype=np.int64)
    for i, c in enumerate(("t_main", "t_proc", "t_comm")):
        np.add.at(out[:, i], cols["pe"], cols[c])
    return out


def _edge_totals(cols, n_pes):
    count = scatter_matrix(cols["src"], cols["dst"], cols["count"],
                           (n_pes, n_pes))
    nbytes = scatter_matrix(cols["src"], cols["dst"], cols["bytes"],
                            (n_pes, n_pes))
    return count, nbytes


# ----------------------------------------------------------------------
# shape
# ----------------------------------------------------------------------

def test_level_widths_geometric():
    widths = level_widths(1_000_000, base=1024, floor=64)
    assert all(w2 == 2 * w1 for w1, w2 in zip(widths, widths[1:]))
    assert all(w & (w - 1) == 0 for w in widths)  # powers of two
    # finest level has at most `base` buckets; log2(base/floor)+1 levels
    assert -(-1_000_000 // widths[0]) <= 1024
    assert len(widths) == (1024 // 64).bit_length()


def test_pyramid_attrs_describe_every_level(profiled):
    pyramid = build_pyramid(profiled.timeline)
    assert pyramid.time_resolved
    assert pyramid.levels == len(pyramid.widths) == len(pyramid.buckets())
    attrs = pyramid.attrs()
    assert attrs["n_pes"] == 4
    assert list(attrs["widths"]) == list(pyramid.widths)


# ----------------------------------------------------------------------
# differential properties: every level is an exact aggregation
# ----------------------------------------------------------------------

def test_every_level_preserves_pe_occupancy_totals(profiled):
    pyramid = build_pyramid(profiled.timeline)
    base = _pe_totals(pyramid.pe_levels[0], pyramid.n_pes)
    for k in range(1, pyramid.levels):
        np.testing.assert_array_equal(
            _pe_totals(pyramid.pe_levels[k], pyramid.n_pes), base)


def _spread_span_scalar(row, start, end, width):
    """Cycles of one span into one row's buckets, bucket by bucket (the
    per-span loop build_pyramid's vectorised pass replaced)."""
    if end <= start:
        return
    b0, b1 = start // width, (end - 1) // width
    if b0 == b1:
        row[b0] += end - start
        return
    row[b0] += (b0 + 1) * width - start
    row[b1] += end - b1 * width
    row[b0 + 1:b1] += width


@given(st.integers(1, 4), st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from(REGIONS),
    st.integers(0, 5000), st.one_of(st.integers(0, 3), st.integers(0, 3000))),
    max_size=40))
def test_level_zero_occupancy_matches_per_span_spreading(n_pes, spans):
    timeline = TimelineTrace(n_pes)
    for pe, region, start, length in spans:
        timeline.add_span(pe % n_pes, region, start, start + length)
    pyramid = build_pyramid(timeline)
    width, n_buckets = pyramid.widths[0], pyramid.buckets()[0]
    want = {region: np.zeros((n_pes, n_buckets), dtype=np.int64)
            for region in REGIONS}
    cols = timeline.span_columns()
    for pe, code, start, end in zip(*(cols[c].tolist() for c in
                                      ("pe", "region", "start", "end"))):
        _spread_span_scalar(want[REGIONS[code]][pe], start, end, width)
    want["COMM"] = np.maximum(want["FINISH"] - want["MAIN"] - want["PROC"], 0)
    cols = pyramid.pe_levels[0]
    for region, column in (("MAIN", "t_main"), ("PROC", "t_proc"),
                           ("COMM", "t_comm")):
        got = np.zeros((n_pes, n_buckets), dtype=np.int64)
        got[cols["pe"], cols["bucket"]] = cols[column]
        np.testing.assert_array_equal(got, want[region], err_msg=region)


#: Span and event times: anywhere up to a horizon whose level-0 width is
#: at most 64 cycles, or on a multiple of 64 — a bucket boundary at
#: every level whatever width the horizon picks.
_TIMES = st.one_of(st.integers(0, 60_000), st.integers(0, 937).map(
    lambda k: 64 * k))


def _timeline(n_pes, spans, net):
    timeline = TimelineTrace(n_pes)
    for pe, region, a, b in spans:
        timeline.add_span(pe % n_pes, region, min(a, b), max(a, b))
    for time, kind, src, dst, nbytes in net:
        timeline.add_net_event(time, kind, src % n_pes, dst % n_pes, nbytes)
    return timeline


@given(st.integers(1, 5),
       st.lists(st.tuples(st.integers(0, 4), st.sampled_from(REGIONS),
                          _TIMES, _TIMES), max_size=30),
       st.lists(st.tuples(_TIMES, st.sampled_from(SEND_TYPES),
                          st.integers(0, 4), st.integers(0, 4),
                          st.integers(0, 4096)), max_size=30))
# 5 level-0 buckets of 1 cycle (odd), a PE without spans, a zero-length
# span, net events at t = 0 and at t = end_time()
@example(3, [(0, "FINISH", 0, 5), (2, "MAIN", 1, 3), (2, "PROC", 4, 4)],
         [(0, "local_send", 0, 2, 8), (5, "nonblock_send", 2, 0, 16)])
# 1024 level-0 buckets of 4 cycles (even), spans ending on boundaries,
# an event at t = end_time() = 4096 — one past the last bucket
@example(2, [(0, "FINISH", 0, 4096), (0, "MAIN", 64, 128),
             (1, "PROC", 4, 4092), (1, "FINISH", 0, 4096)],
         [(0, "local_send", 1, 1, 8), (4096, "nonblock_send", 0, 1, 24),
          (4095, "nonblock_send", 0, 1, 24)])
# 938 level-0 buckets of 64 cycles: odd at levels 1, 2 and 4
@example(1, [(0, "FINISH", 0, 60_000), (0, "PROC", 128, 59_968)],
         [(60_000, "nonblock_progress", 0, 0, 0)])
def test_pyramid_matches_the_fold_oracle_at_every_level(n_pes, spans, net):
    """Dense pairwise per-PE sums and the composite-key edge group-by
    give the per-level sparse folds' columns exactly, on both sides."""
    timeline = _timeline(n_pes, spans, net)
    got, want = build_pyramid(timeline), build_pyramid_fold(timeline)
    assert (got.horizon, got.widths) == (want.horizon, want.widths)
    for side in ("pe_levels", "edge_levels"):
        for level, (g, w) in enumerate(zip(getattr(got, side),
                                           getattr(want, side))):
            assert list(g) == list(w)
            for column in w:
                assert g[column].dtype == w[column].dtype == np.int64
                np.testing.assert_array_equal(
                    g[column], w[column], err_msg=f"{side}[{level}].{column}")


#: sha256 of ``export_archive(lod=True)`` after a batched triangle run on
#: ``perlmutter_like(2, 16)`` (graph500 scale 6, edge factor 12, seed 0,
#: timeline on): a time-resolved pyramid of 639, 320, 160, 80 and 40
#: buckets, digest taken from the fold-built pyramid (tests/lod_oracle.py)
#: and re-pinned for format version 3 (its version-2 spelling is the old
#: pin, byte for byte).
TRI_BATCH_LOD_SHA256 = (
    "6690fe72d9ef3e46f1c2b43c2754587556887669596233948a705991f5fd7dc8")


def test_time_resolved_pyramid_of_a_2x16_run_is_pinned(tmp_path):
    graph = LowerTriangular.from_edges(graph500_input(6, 12, seed=0))
    ap = ActorProf(ProfileFlags.all(enable_timeline=True,
                                    papi_sample_interval=1))
    count_triangles(graph, MachineSpec.perlmutter_like(2, 16), "cyclic",
                    profiler=ap, batch=True, validate=True, seed=0,
                    conveyor_config=ConveyorConfig(buffer_items=64))
    path = ap.export_archive(tmp_path / "run.aptrc",
                             meta={"app": "Triangle", "seed": 0}, lod=True)
    with Archive(path) as archive:
        assert pyramid_info(archive).buckets == (639, 320, 160, 80, 40)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRI_BATCH_LOD_SHA256


def test_every_level_preserves_edge_totals(profiled):
    pyramid = build_pyramid(profiled.timeline)
    count0, bytes0 = _edge_totals(pyramid.edge_levels[0], pyramid.n_pes)
    for k in range(1, pyramid.levels):
        count_k, bytes_k = _edge_totals(pyramid.edge_levels[k],
                                        pyramid.n_pes)
        np.testing.assert_array_equal(count_k, count0)
        np.testing.assert_array_equal(bytes_k, bytes0)


def test_pyramid_edges_match_full_decode_of_physical(lod_archive):
    """Pyramid aggregates == full-decode aggregation, per edge."""
    with Archive(lod_archive) as archive:
        n_pes = archive.n_pes
        section = archive.section("physical")
        src, dst = section.column("src"), section.column("dst")
        count, size = section.column("count"), section.column("size")
        full_count = scatter_matrix(src, dst, count, (n_pes, n_pes))
        full_bytes = scatter_matrix(src, dst, count * size, (n_pes, n_pes))
        for level in range(pyramid_info(archive).levels):
            cols = read_level(archive, "edge", level)
            lod_count, lod_bytes = _edge_totals(cols, n_pes)
            np.testing.assert_array_equal(lod_count, full_count)
            np.testing.assert_array_equal(lod_bytes, full_bytes)


def test_pyramid_occupancy_matches_overall_section(lod_archive):
    with Archive(lod_archive) as archive:
        overall = load_overall(archive)
        t_main = np.asarray(overall.t_main, dtype=np.int64)
        t_proc = np.asarray(overall.t_proc, dtype=np.int64)
        t_comm = np.asarray(overall.t_total, dtype=np.int64) - t_main - t_proc
        for level in range(pyramid_info(archive).levels):
            cols = read_level(archive, "pe", level)
            totals = _pe_totals(cols, archive.n_pes)
            np.testing.assert_array_equal(totals[:, 0], t_main)
            np.testing.assert_array_equal(totals[:, 1], t_proc)
            np.testing.assert_array_equal(totals[:, 2], t_comm)


def test_read_level_roundtrips_the_in_memory_pyramid(profiled, lod_archive):
    pyramid = build_pyramid(profiled.timeline)
    with Archive(lod_archive) as archive:
        for k in range(pyramid.levels):
            cols = read_level(archive, "pe", k)
            for c in ("bucket", "pe", "t_main", "t_proc", "t_comm"):
                np.testing.assert_array_equal(
                    cols[c], np.asarray(pyramid.pe_levels[k][c]))


def test_read_level_decodes_only_lod_sections(lod_archive):
    """The decode spy: a viz-style read touches no raw event columns."""
    with Archive(lod_archive) as archive:
        read_level(archive, "pe", 2)
        read_level(archive, "edge", 2)
        touched = {section for section, _ in archive.decoded_columns}
        assert touched <= {PE_SECTION, EDGE_SECTION}


@pytest.mark.parametrize("kind, name", [("pe", PE_SECTION),
                                        ("edge", EDGE_SECTION)])
def test_read_level_decodes_one_chunk_per_column_and_caches_nothing(
        lod_archive, monkeypatch, kind, name):
    """One level is one row group: a read decodes exactly that chunk of
    each column — per call — and leaves nothing on the section."""
    with Archive(lod_archive) as archive:
        section = archive.section(name)
        decoded = []
        real = archive._decode_chunk

        def spy(sec, column, ref):
            decoded.append((sec, column, ref))
            return real(sec, column, ref)

        monkeypatch.setattr(archive, "_decode_chunk", spy)
        for _ in range(2):  # the second read decodes again: no cache
            decoded.clear()
            read_level(archive, kind, 2)
            assert sorted(decoded, key=lambda d: d[1]) == sorted(
                ((name, c, section.chunk_refs(c)[2]) for c in section.columns),
                key=lambda d: d[1])
            assert not section._cache


# ----------------------------------------------------------------------
# golden-archive byte identity + backfill compatibility
# ----------------------------------------------------------------------

def test_export_with_lod_is_deterministic(tmp_path):
    paths = []
    for i in range(2):
        ap = ActorProf(ProfileFlags.all(enable_timeline=True))
        histogram(300, 64, MachineSpec(2, 2), profiler=ap)
        paths.append(ap.export_archive(tmp_path / f"r{i}.aptrc",
                                       meta={"app": "h"}, lod=True))
    assert paths[0].read_bytes() == paths[1].read_bytes()


BACKFILLED = {
    "histogram":
        "ea018e14dc1b7aaad8021b9d511b20fc5da39fc62e0255981c193670581f64c5",
    "triangle":
        "1d81d2cc9570785a4cab99afe719e012fb4de82c7fb367a96a97eb140572f236",
}


@pytest.mark.parametrize("name", ["histogram", "triangle"])
def test_backfill_golden_is_deterministic(name, tmp_path):
    golden = GOLDEN_DIR / f"{name}.aptrc"
    out_a = backfill_pyramid(golden, tmp_path / "a.aptrc")
    out_b = backfill_pyramid(golden, tmp_path / "b.aptrc")
    assert out_a.read_bytes() == out_b.read_bytes()
    # the original bytes minus footer+trailer are a strict prefix: old
    # readers' chunk offsets stay valid
    with Archive(golden) as archive:
        data = golden.read_bytes()[:archive.data_end]
    assert out_a.read_bytes().startswith(data)
    # and the bytes are pinned (re-pinned for format versions 2 and 3;
    # the v1 and v2 fixtures' backfill is in test_golden_archives.py)
    assert hashlib.sha256(out_a.read_bytes()).hexdigest() == BACKFILLED[name]


@pytest.mark.parametrize("rows", [
    [(2, 4, 8, 1), (2, 0, 8, 1)],    # one source, dst == n_pes
    [(2, -1, 8, 1), (2, 0, 8, 1)],   # one source, dst < 0
    [(7, 0, 8, 1), (7, 1, 8, 1)],    # one source, src == 7 >= n_pes
    [(-1, 0, 8, 1), (1, 1, 8, 1)],   # many sources, src < 0
])
def test_backfill_refuses_a_pe_out_of_range(rows, tmp_path, capsys):
    """An archived edge whose PE lies outside ``[0, n_pes)`` is a
    ValueError (``viz failed``, rc 2), never a count added to another
    PE's row or column."""
    from repro.core.cli import main

    attrs = {"nodes": 1, "pes_per_node": 4, "n_pes": 4}
    path = tmp_path / "bad.aptrc"
    with ArchiveWriter(path, meta=attrs) as writer:
        section = writer.begin_section(
            "logical", ("src", "dst", "size", "count"), attrs=attrs)
        section.write_chunk(dict(zip(("src", "dst", "size", "count"),
                                     zip(*rows))))
        section.end()
    with pytest.raises(ValueError, match="bincount"):
        backfill_pyramid(path, tmp_path / "out.aptrc")
    assert main(["viz", str(path), "--backfill"]) == 2
    assert "viz failed: bincount" in capsys.readouterr().err


def test_backfill_is_idempotent(tmp_path):
    golden = GOLDEN_DIR / "histogram.aptrc"
    path = tmp_path / "h.aptrc"
    path.write_bytes(golden.read_bytes())
    backfill_pyramid(path)
    first = path.read_bytes()
    backfill_pyramid(path)  # already pyramided → no-op
    assert path.read_bytes() == first


def test_backfill_preserves_existing_sections_exactly(tmp_path):
    golden = GOLDEN_DIR / "histogram.aptrc"
    filled = backfill_pyramid(golden, tmp_path / "filled.aptrc")
    with Archive(golden) as before, Archive(filled) as after:
        assert before.meta == after.meta
        assert set(after.sections) == set(before.sections) | {
            PE_SECTION, EDGE_SECTION}
        for name in before.sections:
            old, new = before.section(name), after.section(name)
            assert old.rows == new.rows
            for column in old.columns:
                np.testing.assert_array_equal(old.column(column),
                                              new.column(column))
    # the full loader (the pre-pyramid reader path) is unaffected
    run_before, run_after = load_run(golden), load_run(filled)
    assert run_before.logical.total_sends() == run_after.logical.total_sends()
    assert run_before.meta == run_after.meta


def test_backfilled_pyramid_is_flat_but_queryable(tmp_path):
    filled = backfill_pyramid(GOLDEN_DIR / "histogram.aptrc",
                              tmp_path / "f.aptrc")
    with Archive(filled) as archive:
        assert has_pyramid(archive)
        info = pyramid_info(archive)
        assert info is not None and not info.time_resolved
        assert info.levels == 1
        view = LodView.from_archive(archive)
        window = view.edge_window(res=1)
        assert window.count.sum() > 0


def test_legacy_archive_degrades_gracefully(tmp_path):
    golden = GOLDEN_DIR / "histogram.aptrc"
    with Archive(golden) as archive:
        assert not has_pyramid(archive)
        assert pyramid_info(archive) is None
        with pytest.raises(LodError, match="backfill"):
            read_level(archive, "pe", 0)
        # open_lod falls back to building a flat pyramid in memory
        view = open_lod(archive)
        assert view.edge_window(res=1).count.sum() > 0


# ----------------------------------------------------------------------
# viewport queries (core.lod)
# ----------------------------------------------------------------------

def test_select_level_prefers_coarsest_that_meets_res(lod_archive):
    with Archive(lod_archive) as archive:
        view = LodView.from_archive(archive)
        levels = view.info.levels
        # full window at res=1: any level has >= 1 bucket → coarsest wins
        assert view.select_level(0, view.horizon, 1) == levels - 1
        # an impossible resolution falls back to the finest level
        assert view.select_level(0, view.horizon, 10 ** 9) == 0
        # shrinking the window monotonically refines the level
        picked = [view.select_level(0, view.horizon // (2 ** i), 16)
                  for i in range(4)]
        assert picked == sorted(picked, reverse=True)


def test_viewport_snaps_to_bucket_boundaries(lod_archive):
    with Archive(lod_archive) as archive:
        view = LodView.from_archive(archive)
        vp = view.viewport(1000, view.horizon - 1000, 16)
        assert vp.t0 % vp.width == 0
        assert vp.t0 <= 1000 and vp.t1 >= view.horizon - 1000
        assert vp.buckets >= 1


def test_pe_series_totals_match_level_zero(lod_archive):
    with Archive(lod_archive) as archive:
        view = LodView.from_archive(archive)
        series = view.pe_series(res=DEFAULT_RES["gantt"])
        cols = read_level(archive, "pe", series.viewport.level)
        expected = _pe_totals(cols, view.n_pes)
        np.testing.assert_array_equal(series.occ.sum(axis=1), expected)


def test_refine_drills_into_one_bucket(lod_archive):
    with Archive(lod_archive) as archive:
        view = LodView.from_archive(archive)
        vp = view.viewport(res=8)
        child = view.refine(vp, bucket=0, res=8)
        assert child.level <= vp.level
        assert child.t0 >= vp.t0 and child.t1 <= vp.t1


def test_flat_pyramid_is_the_same_from_traces_and_from_sections(tmp_path):
    """One flat builder, two entrances: exporting a timeline-less run
    with ``lod=True`` and backfilling its ``lod=False`` twin store the
    same pyramid."""
    ap = ActorProf(ProfileFlags.all())  # no timeline → flat pyramid
    histogram(300, 64, MachineSpec(2, 2), profiler=ap)
    exported = ap.export_archive(tmp_path / "lod.aptrc", lod=True)
    filled = backfill_pyramid(
        ap.export_archive(tmp_path / "plain.aptrc", lod=False))
    with Archive(exported) as a, Archive(filled) as b:
        assert pyramid_info(a) == pyramid_info(b)
        assert not pyramid_info(a).time_resolved
        for kind in ("pe", "edge"):
            got, want = read_level(b, kind, 0), read_level(a, kind, 0)
            assert set(got) == set(want)
            for column in want:
                np.testing.assert_array_equal(got[column], want[column])
        assert read_level(a, "edge", 0)["count"].sum() > 0
    # same sections in the same order through either door
    assert exported.read_bytes() == filled.read_bytes()

    # row groups of one source PE (a zero-width src chunk, folded into
    # that PE's row) beside groups of many, with byte weights past the
    # 2**53 float-exactness guard (the np.add.at path) in both kinds
    big = 2 ** 50 + 1  # odd cell sums past 2**53: float64 would round them
    groups = [
        [(2, 0, 8, 1), (2, 3, 16, 2), (2, 0, 24, 1)],
        [(0, 1, 8, 3), (3, 1, 8, 1), (1, 2, 40, 2)],
        [(2, 1, big, 7), (2, 1, big, 4), (2, 3, 8, 1)],
        [(1, 0, big, 7), (3, 2, big, 7), (1, 0, big, 2), (1, 0, 16, 1)],
        [(0, 0, 8, 4)],
    ]
    attrs = {"nodes": 1, "pes_per_node": 4, "n_pes": 4}
    columns = ("src", "dst", "size", "count")
    want = {}
    for src, dst, size, count in (row for rows in groups for row in rows):
        c, b = want.get((src, dst), (0, 0))
        want[src, dst] = (c + count, b + count * size)

    def write(path):
        with ArchiveWriter(path, meta=attrs) as writer:
            section = writer.begin_section("logical", columns, attrs=attrs)
            for rows in groups:
                section.write_chunk(dict(zip(columns, zip(*rows))))
            section.end()
        return path

    plain = write(tmp_path / "groups.aptrc")
    with Archive(plain) as archive:
        constants = Frame(archive.section("logical")).constants("src")
    assert constants == [2, None, 2, None, 0]
    flat = {c: np.array([row[i] for rows in groups for row in rows])
            for i, c in enumerate(columns)}
    sources = {
        "trace": LogicalTrace.from_columns(flat, attrs),
        "v3": plain,
        "v2 nostats": strip_chunk_stats(as_v2(write(tmp_path / "v2.aptrc"))),
        "v1 nostats": strip_chunk_stats(as_v1(write, tmp_path / "v1.aptrc")),
    }
    for label, source in sources.items():
        if label == "trace":
            edge0 = build_flat_pyramid(n_pes=4, edges=source).edge_levels[0]
        else:
            filled = backfill_pyramid(source, tmp_path / f"{label}-lod.aptrc")
            with Archive(filled) as archive:
                edge0 = read_level(archive, "edge", 0)
        got = {(s, d): (c, b) for s, d, c, b in zip(*(
            edge0[k].tolist() for k in ("src", "dst", "count", "bytes")))}
        assert got == want, label
