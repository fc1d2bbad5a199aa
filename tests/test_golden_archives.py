"""Golden-archive regression tests.

``tests/golden/`` holds one checked-in ``.aptrc`` archive per case study,
built from a fixed root seed under the default schedule.  The tests
rebuild each archive from scratch and assert *byte identity* — any drift
in the RNG streams, the scheduler, the conveyor batching, the profiler,
or the archive codec shows up here first.

``tests/golden/v1/`` holds the same runs as format-version-1 writers
left them — with chunk stats and, as ``*-nostats.aptrc``, in the older
stat-less footer layout.  No writer can produce those bytes any more;
they are read-only fixtures (sha256 pinned below, never regenerated) for
the reader's compatibility matrix: a v1 file, with or without stats,
decodes, queries, diffs and backfills exactly like its v2 twin.

Regenerate the v2 goldens (only after an intentional format/behaviour
change) with::

    PYTHONPATH=src python tests/test_golden_archives.py
"""

import hashlib
from pathlib import Path

import pytest

from repro.check.policies import make_schedules
from repro.check.workloads import HistogramWorkload, TriangleWorkload
from repro.machine.spec import MachineSpec
from tests.archive_tools import read_footer, rewrite_footer
from tests.conveyor_oracle import OracleConveyor, use_conveyor
from tests.sched_oracle import LinearScheduler, use_scheduler
from tests.trace_oracle import same_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
V1_DIR = GOLDEN_DIR / "v1"

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
    return {"v2": GOLDEN_DIR / f"{name}.aptrc",
            "v1+stats": V1_DIR / f"{name}.aptrc",
            "v1 nostats": V1_DIR / f"{name}-nostats.aptrc"}


def _version(path: Path) -> int:
    return read_footer(path)[1]["version"]


def test_v1_fixtures_are_byte_untouched():
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in V1_DIR.iterdir()} == V1_SHA256
    assert {_version(p) for p in V1_DIR.iterdir()} == {1}


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
    """v1 archives answer queries identically to v2 ones — the stat-less
    layout via the full-decode fallback (no footer stats to use)."""
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
    assert answers["v1+stats"] == answers["v2"]
    assert answers["v1 nostats"] == answers["v2"]


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_prestats_golden_diffs_match_new_format(name):
    """Column-wise archive diffing treats every footer layout the same."""
    from repro.api import diff

    reports = [diff(path, path, label_a="a", label_b="b")
               for path in _flavors(name).values()]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("flavor", ["", "-nostats"])
def test_backfilled_v1_fixture_is_a_v2_file_over_the_v1_bytes(
        flavor, tmp_path):
    """Extending a v1 archive keeps its data region byte for byte (old
    chunk offsets and encodings stay valid) under a version-2 footer."""
    from repro.core.store.archive import Archive, load_run
    from repro.core.store.lod import backfill_pyramid, has_pyramid

    fixture = V1_DIR / f"histogram{flavor}.aptrc"
    filled = backfill_pyramid(fixture, tmp_path / "filled.aptrc")
    assert _version(filled) == 2
    with Archive(fixture) as old, Archive(filled) as new:
        assert has_pyramid(new) and not has_pyramid(old)
        assert filled.read_bytes()[:old.data_end] \
            == fixture.read_bytes()[:old.data_end]
        for s in old.sections:
            assert new.section_index[s] == old.section_index[s]
    assert same_trace(load_run(filled).logical, load_run(fixture).logical)


def test_future_format_version_is_refused_by_name(tmp_path):
    from repro.core.store.archive import Archive, ArchiveError

    golden = GOLDEN_DIR / "histogram.aptrc"
    path = rewrite_footer(golden, {**read_footer(golden)[1], "version": 3},
                          out=tmp_path / "v3.aptrc")
    with pytest.raises(ArchiveError, match="format version 3"):
        Archive(path)


if __name__ == "__main__":  # golden regeneration entry point (v2 only)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDEN_WORKLOADS):
        path = _build(name, GOLDEN_DIR / f"{name}.aptrc")
        print(f"regenerated {path} ({path.stat().st_size:,} bytes)")
