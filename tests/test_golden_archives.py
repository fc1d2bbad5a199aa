"""Golden-archive regression tests.

``tests/golden/`` holds one checked-in ``.aptrc`` archive per case study,
built from a fixed root seed under the default schedule.  The tests
rebuild each archive from scratch and assert *byte identity* — any drift
in the RNG streams, the scheduler, the conveyor batching, the profiler,
or the archive codec shows up here first.

``tests/golden/v1/`` holds the same runs as format-version-1 writers
left them — with chunk stats and, as ``*-nostats.aptrc``, in the older
stat-less footer layout — and ``tests/golden/v2/`` as the last
version-2 writer left them.  No writer can produce those bytes any more;
they are read-only fixtures (sha256 pinned below, never regenerated) for
the reader's compatibility matrix: a v1 or v2 file, with or without
stats, decodes, queries, diffs and backfills exactly like its v3 twin.

Regenerate the v3 goldens (only after an intentional format/behaviour
change) with::

    PYTHONPATH=src python -m tests.test_golden_archives
"""

import hashlib
from pathlib import Path

import pytest

from repro.check.policies import make_schedules
from repro.check.workloads import HistogramWorkload, TriangleWorkload
from repro.machine.spec import MachineSpec
from tests.archive_tools import read_footer, read_v3, rewrite_footer
from tests.conveyor_oracle import OracleConveyor, use_conveyor
from tests.sched_oracle import LinearScheduler, use_scheduler
from tests.trace_oracle import same_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
V1_DIR = GOLDEN_DIR / "v1"
V2_DIR = GOLDEN_DIR / "v2"

#: The v1 fixtures, byte for byte as the last version-1 writer left them.
V1_SHA256 = {
    "histogram.aptrc":
        "c794adca1c828417925cea250d899cb9872f3bd4a365c1b502a5b11a2c6011a6",
    "histogram-nostats.aptrc":
        "891b3eb9d3a151e672a59b256cba9b8b10d461d97139b6394727aef6ea0df85d",
    "triangle.aptrc":
        "214eb1f463181ecb893bee9642613824af1f4c2013771e4fdb5653f41949f1b5",
    "triangle-nostats.aptrc":
        "eae3d56e401d9ca18698645f9672a50985369c4146e2c46bd4e4a6613c219010",
}

#: The v2 fixtures, byte for byte as the last version-2 writer left them.
V2_SHA256 = {
    "histogram.aptrc":
        "f628190325353c2607eccc70af6a438b27bbc97954d5c26a399fef86367e2b8d",
    "triangle.aptrc":
        "39ed77050b69127f8a6791529534081088ad9196df674b60b27b9b5ee0a0702d",
}

QUERIES = ["sends", "bytes", "sends where src == 0",
           "sends where src_node != dst_node", "sends group by dst top 3"]

#: name -> workload factory; every golden archive is schedule 0, seed 0.
GOLDEN_WORKLOADS = {
    "histogram": lambda: HistogramWorkload(
        updates=200, table_size=32, machine=MachineSpec(2, 2), seed=0),
    "triangle": lambda: TriangleWorkload(
        scale=6, distribution="cyclic", machine=MachineSpec(2, 2), seed=0),
}


def _build(name: str, out_path: Path) -> Path:
    workload = GOLDEN_WORKLOADS[name]()
    schedule = make_schedules(workload.seed, 1)[0]
    art = workload.run(schedule, out_path)
    return art.archive_path


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_rebuild_is_byte_identical_to_golden(name, tmp_path):
    golden = GOLDEN_DIR / f"{name}.aptrc"
    assert golden.exists(), (
        f"missing golden archive {golden}; regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name}`"
    )
    rebuilt = _build(name, tmp_path / f"{name}.aptrc")
    assert rebuilt.read_bytes() == golden.read_bytes(), (
        f"rebuilt {name} archive differs from {golden} — the profiled "
        f"execution or the archive format drifted; if intentional, "
        f"regenerate the goldens and call it out in the changelog"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_rebuild_under_linear_oracle_is_byte_identical(
        name, tmp_path, monkeypatch):
    """The indexed selection and the O(n_pes) scan it replaced
    (``tests/sched_oracle.py``) schedule the case studies identically."""
    use_scheduler(monkeypatch, LinearScheduler)
    rebuilt = _build(name, tmp_path / f"{name}.aptrc")
    assert rebuilt.read_bytes() == (GOLDEN_DIR / f"{name}.aptrc").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_rebuild_under_conveyor_oracle_is_byte_identical(
        name, tmp_path, monkeypatch):
    """The hop-vector routing and the per-row router it is checked
    against (``tests/conveyor_oracle.py``) carry the case studies
    identically."""
    use_conveyor(monkeypatch, OracleConveyor)
    rebuilt = _build(name, tmp_path / f"{name}.aptrc")
    assert rebuilt.read_bytes() == (GOLDEN_DIR / f"{name}.aptrc").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_archives_load(name):
    from repro.core.store.archive import load_run

    golden = GOLDEN_DIR / f"{name}.aptrc"
    run = load_run(golden)
    assert run.logical is not None
    assert run.logical.total_sends() > 0
    assert run.meta["workload"] == GOLDEN_WORKLOADS[name]().descriptor()
    assert run.meta["schedule"] == 0


def _flavors(name: str) -> dict[str, Path]:
    """One run in every footer layout the reader accepts."""
    return {"v3": GOLDEN_DIR / f"{name}.aptrc",
            "v2": V2_DIR / f"{name}.aptrc",
            "v1+stats": V1_DIR / f"{name}.aptrc",
            "v1 nostats": V1_DIR / f"{name}-nostats.aptrc"}


def _version(path: Path) -> int:
    return read_v3(path)[1]["version"]


def _same_tables(old, new) -> None:
    """Every section of open archive ``old`` has the same attrs, rows,
    chunk entries and decoded columns in ``new``."""
    for s in old.sections:
        a, b = old.section(s), new.section(s)
        assert (a.attrs, a.rows, a.columns) == (b.attrs, b.rows, b.columns)
        for c in a.columns:
            assert a.chunk_refs(c) == b.chunk_refs(c), (s, c)
            assert a.column(c).tolist() == b.column(c).tolist(), (s, c)


def test_v1_fixtures_are_byte_untouched():
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in V1_DIR.iterdir()} == V1_SHA256
    assert {_version(p) for p in V1_DIR.iterdir()} == {1}


def test_v2_fixtures_are_byte_untouched():
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in V2_DIR.iterdir()} == V2_SHA256
    assert {_version(p) for p in V2_DIR.iterdir()} == {2}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_v3_golden_is_its_v2_fixture_under_a_binary_table(name, tmp_path):
    """The v3 golden keeps the v2 fixture's data region byte for byte,
    and its chunk table spelled back as v2 JSON entries is the v2
    fixture's footer, byte for byte: the table carries every field."""
    from repro.core.store.archive import Archive

    v3, v2 = GOLDEN_DIR / f"{name}.aptrc", V2_DIR / f"{name}.aptrc"
    assert _version(v3) == 3
    data_end = read_v3(v3)[0]
    assert v3.read_bytes()[:data_end] == v2.read_bytes()[:data_end]
    spelled = rewrite_footer(v3, read_footer(v3)[1], out=tmp_path / "v2.aptrc")
    assert spelled.read_bytes() == v2.read_bytes()
    with Archive(v3) as new, Archive(v2) as old:
        assert old.sections == new.sections
        _same_tables(old, new)


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_v2_golden_decodes_equal_to_v1(name):
    """Same run, three footer layouts: every section, attr and column
    value agrees; only v2 may hold ``pack`` chunks."""
    from repro.core.store.archive import Archive

    flavors = _flavors(name)
    assert _version(flavors["v2"]) == 2
    with Archive(flavors["v2"]) as new:
        packed = [ref.encoding for s in new.sections
                  for c in new.section(s).columns
                  for ref in new.section(s).chunk_refs(c)
                  if ref.encoding.startswith("pack:")]
        assert packed
        for label in ("v1+stats", "v1 nostats"):
            with Archive(flavors[label]) as old:
                # v1 meta predates the descriptor: a name and a seed
                assert old.meta == {**new.meta, "workload": name, "seed": 0}
                assert old.sections == new.sections
                for s in old.sections:
                    a, b = old.section(s), new.section(s)
                    assert (a.attrs, a.rows, a.columns) \
                        == (b.attrs, b.rows, b.columns), (label, s)
                    for c in a.columns:
                        assert all("pack" not in ref.encoding
                                   for ref in a.chunk_refs(c))
                        assert a.column(c).tolist() == b.column(c).tolist(), \
                            (label, s, c)


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_prestats_golden_queries_match_new_format(name):
    """v1 and v2 archives answer queries identically to v3 ones — the
    stat-less layout via the full-decode fallback (no footer stats)."""
    from repro.core.query import query_trace
    from repro.core.store.archive import Archive

    answers = {}
    for label, path in _flavors(name).items():
        with Archive(path) as archive:
            section = archive.section("logical")
            assert all(ref.stats is not None
                       for ref in section.chunk_refs("count")) \
                == (label != "v1 nostats")
            answers[label] = [query_trace(section, q) for q in QUERIES]
    assert answers["v2"] == answers["v3"]
    assert answers["v1+stats"] == answers["v3"]
    assert answers["v1 nostats"] == answers["v3"]


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_prestats_golden_diffs_match_new_format(name):
    """Column-wise archive diffing treats every footer layout the same."""
    from repro.api import diff

    reports = [diff(path, path, label_a="a", label_b="b")
               for path in _flavors(name).values()]
    assert reports[0] == reports[1] == reports[2] == reports[3]


@pytest.mark.parametrize("fixture", ["v1/histogram", "v1/histogram-nostats",
                                     "v2/histogram", "v2/triangle"])
def test_backfilled_old_fixture_is_a_v3_file_over_its_bytes(
        fixture, tmp_path):
    """Extending a v1 or v2 archive keeps its data region byte for byte
    (old chunk offsets and encodings stay valid) under a version-3
    footer that carries its chunk tables; the pyramid it gains decodes
    to the v3 golden's, and backfilling the v2 fixture gives the v3
    golden's backfill byte for byte."""
    from repro.core.store.archive import Archive, load_run
    from repro.core.store.lod import (
        EDGE_SECTION,
        PE_SECTION,
        backfill_pyramid,
        has_pyramid,
    )

    fixture = GOLDEN_DIR / f"{fixture}.aptrc"
    filled = backfill_pyramid(fixture, tmp_path / "filled.aptrc")
    assert _version(filled) == 3
    with Archive(fixture) as old, Archive(filled) as new:
        assert has_pyramid(new) and not has_pyramid(old)
        assert filled.read_bytes()[:old.data_end] \
            == fixture.read_bytes()[:old.data_end]
        assert set(new.sections) > set(old.sections)
        _same_tables(old, new)
    assert same_trace(load_run(filled).logical, load_run(fixture).logical)
    twin = backfill_pyramid(GOLDEN_DIR / fixture.name.replace("-nostats", ""),
                            tmp_path / "twin.aptrc")
    with Archive(filled) as got, Archive(twin) as want:
        for s in (PE_SECTION, EDGE_SECTION):
            assert got.section(s).attrs == want.section(s).attrs
            assert {c: v.tolist() for c, v in got.section(s).read().items()} \
                == {c: v.tolist() for c, v in want.section(s).read().items()}
    if fixture.parent == V2_DIR:
        assert filled.read_bytes() == twin.read_bytes()


def test_future_format_version_is_refused_by_name(tmp_path):
    from repro.core.store.archive import Archive, ArchiveError

    golden = GOLDEN_DIR / "histogram.aptrc"
    path = rewrite_footer(golden, {**read_footer(golden)[1], "version": 4},
                          out=tmp_path / "v4.aptrc")
    with pytest.raises(ArchiveError, match="format version 4"):
        Archive(path)


if __name__ == "__main__":  # golden regeneration entry point (v3 only)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDEN_WORKLOADS):
        path = _build(name, GOLDEN_DIR / f"{name}.aptrc")
        print(f"regenerated {path} ({path.stat().st_size:,} bytes)")
