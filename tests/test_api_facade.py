"""Tests for the :mod:`repro.api` facade.

Parity is the contract: every facade call must return byte-for-byte
what the entry point it replaced returned (pinned here as golden text
or computed through the layer below), without emitting a warning.
"""

import warnings

import pytest

import repro.api as api
from repro.core.query import query_trace
from repro.core.store.archive import Archive
from repro.core.store.registry import RunRegistry

from tests.test_golden_archives import GOLDEN_DIR, V1_DIR

HIST = GOLDEN_DIR / "histogram.aptrc"
TRI = GOLDEN_DIR / "triangle.aptrc"

QUERIES = [
    "sends",
    "bytes",
    "sends where src == 0",
    "sends group by dst top 3",
    "sends where src_node != dst_node",
]


# ----------------------------------------------------------------------
# open_run / Run
# ----------------------------------------------------------------------

def test_open_run_by_path():
    with api.open_run(HIST) as run:
        assert run.run_id == "histogram"
        assert run.meta["workload"]["kind"] == "histogram"
        assert run.n_pes == 4
        assert "logical" in run.sections


def test_open_run_by_registered_id(tmp_path):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(HIST, run_id="golden-hist")
    with api.open_run("golden-hist", registry=tmp_path / "reg") as run:
        assert run.run_id == "golden-hist"
        assert run.query("sends") == _legacy_query(HIST, "sends")


def test_open_run_rejects_non_archives(tmp_path):
    bogus = tmp_path / "x.aptrc"
    bogus.write_bytes(b"not an archive")
    with pytest.raises(ValueError):
        api.open_run(bogus)


def test_run_archive_escape_hatch():
    with api.open_run(HIST) as run:
        assert isinstance(run.archive, Archive)
        assert run.archive.n_pes == run.n_pes


# ----------------------------------------------------------------------
# query parity
# ----------------------------------------------------------------------

def _legacy_query(path, text, section="logical"):
    with Archive(path) as archive:
        return query_trace(archive.section(section), text)


@pytest.mark.parametrize("query", QUERIES)
def test_facade_query_matches_legacy(query):
    with api.open_run(HIST) as run:
        assert run.query(query) == _legacy_query(HIST, query)


def test_facade_query_physical_section():
    with api.open_run(HIST) as run:
        facade = run.query("ops group by kind", section="physical")
    assert facade == _legacy_query(HIST, "ops group by kind", "physical")


# ----------------------------------------------------------------------
# diff parity
# ----------------------------------------------------------------------

#: What the pre-facade trace-object diff printed for the two golden archives.
LEGACY_DIFF = """\
== comparing 'histogram' (A) vs 'triangle' (B) ==
logical: sends A=800 B=1,743; hottest-sender ratio 0.21x, hottest-receiver ratio 0.29x
logical: send imbalance A=1.00 B=2.19
logical: |A−B| matrix mass = 1,273 messages
overall: total-time ratio A/B = 0.24 (A faster)
overall: shares A MAIN/COMM/PROC = 5%/74%/21%; B = 4%/75%/21%
physical ops (A vs B): local_send: 12 vs 23; nonblock_progress: 6 vs 13; nonblock_send: 8 vs 19
physical wire bytes ratio A/B = 0.33"""


def test_facade_diff_matches_legacy_byte_for_byte():
    with api.open_run(HIST) as run:
        assert run.diff(TRI, label_b="triangle") == LEGACY_DIFF
    assert api.diff(HIST, TRI, label_a="histogram",
                    label_b="triangle") == LEGACY_DIFF


def test_run_diff_accepts_run_objects():
    with api.open_run(HIST) as a, api.open_run(TRI) as b:
        # both sides are labelled by run id, not by side B's raw path
        assert a.diff(b) == LEGACY_DIFF
        assert a.diff(b, label_b=str(TRI)) == a.diff(TRI)


def test_diff_resolves_ids_and_directories_like_open_run(tmp_path):
    from repro.core.store.archive import load_run

    registry = RunRegistry(tmp_path / "reg")
    registry.add(HIST, run_id="golden-hist")
    traces = load_run(TRI)
    traces.logical.write(tmp_path / "tri")
    traces.physical.write(tmp_path / "tri")
    traces.overall.write(tmp_path / "tri")
    assert api.diff("golden-hist", tmp_path / "tri",
                    n_pes=traces.logical.spec.n_pes,
                    label_a="histogram", label_b="triangle",
                    registry=tmp_path / "reg") == LEGACY_DIFF


# ----------------------------------------------------------------------
# whatif
# ----------------------------------------------------------------------

def test_facade_whatif_matches_legacy():
    from repro.check.workloads import HistogramWorkload
    from repro.machine.spec import MachineSpec
    from repro.whatif.engine import _run_whatif

    def workload():
        return HistogramWorkload(updates=150, table_size=32,
                                 machine=MachineSpec(2, 2), seed=0)

    legacy = _run_whatif(workload())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        facade = api.whatif(workload())
    assert facade == legacy


def test_run_whatif_requires_matching_workload():
    from repro.check.workloads import TriangleWorkload
    from repro.machine.spec import MachineSpec

    with api.open_run(V1_DIR / "histogram.aptrc") as run:
        with pytest.raises(ValueError, match="workload"):
            run.whatif()  # v1 archives carry no replayable descriptor
    with api.open_run(HIST) as run:
        mismatched = TriangleWorkload(scale=6, distribution="cyclic",
                                      machine=MachineSpec(2, 2), seed=0)
        with pytest.raises(ValueError, match="histogram"):
            run.whatif(mismatched)


def test_run_whatif_rejects_a_different_seed():
    from repro.check.workloads import HistogramWorkload
    from repro.machine.spec import MachineSpec

    with api.open_run(HIST) as run:
        assert run.meta["workload"]["seed"] == 0
        reseeded = HistogramWorkload(updates=200, table_size=32,
                                     machine=MachineSpec(2, 2), seed=3)
        with pytest.raises(ValueError, match=r"seed 0, got .* seed 3"):
            run.whatif(reseeded)


# ----------------------------------------------------------------------
# viz
# ----------------------------------------------------------------------

def test_facade_viz_renders_all_views_without_pyramid_sections():
    # the golden archive predates pyramids: viz must fall back to an
    # in-memory flat pyramid, not crash
    with api.open_run(HIST) as run:
        for view in ("gantt", "heatmap", "timeline"):
            svg = run.viz(view)
            assert "<svg" in svg


def test_facade_viz_uses_pyramid_levels_only(tmp_path):
    from repro.core.store.lod import backfill_pyramid

    filled = backfill_pyramid(HIST, tmp_path / "h.aptrc")
    with api.open_run(filled) as run:
        assert "<svg" in run.viz("heatmap")
        touched = {section for section, _ in run.archive.decoded_columns}
        assert touched <= {"lod_pe", "lod_edge"}


def test_facade_viz_rejects_unknown_view():
    with api.open_run(HIST) as run:
        with pytest.raises(ValueError, match="view"):
            run.viz("sparkline")
