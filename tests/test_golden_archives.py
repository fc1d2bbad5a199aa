"""Golden-archive regression tests.

``tests/golden/`` holds one checked-in ``.aptrc`` archive per case study,
built from a fixed root seed under the default schedule.  The tests
rebuild each archive from scratch and assert *byte identity* — any drift
in the RNG streams, the scheduler, the conveyor batching, the profiler,
or the archive codec shows up here first.

The ``*-nostats.aptrc`` twins are the same archives written with the
chunk-stats footer extension disabled (the pre-extension footer layout).
They pin two guarantees: writers with stats off still emit those exact
bytes (stats only extend the footer JSON — payload encoding is
untouched), and stat-less archives keep loading and answering queries
identically to new-format ones via the full-decode fallback.

Regenerate (only after an intentional format/behaviour change) with::

    PYTHONPATH=src python tests/test_golden_archives.py
"""

from pathlib import Path

import pytest

from repro.check.policies import make_schedules
from repro.check.workloads import HistogramWorkload, TriangleWorkload
from repro.machine.spec import MachineSpec
from tests.sched_oracle import LinearScheduler, use_scheduler

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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
def test_golden_archives_load(name):
    from repro.core.store.archive import load_run

    golden = GOLDEN_DIR / f"{name}.aptrc"
    run = load_run(golden)
    assert run.logical is not None
    assert run.logical.total_sends() > 0
    assert run.meta["workload"] == name
    assert run.meta["seed"] == 0


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_stats_disabled_rebuild_matches_prestats_golden(
        name, tmp_path, monkeypatch):
    """With stats off, the writer emits the pre-extension bytes exactly."""
    from repro.core.store import writer

    monkeypatch.setattr(writer, "WRITE_CHUNK_STATS", False)
    rebuilt = _build(name, tmp_path / f"{name}.aptrc")
    golden = GOLDEN_DIR / f"{name}-nostats.aptrc"
    assert rebuilt.read_bytes() == golden.read_bytes(), (
        f"stats-disabled rebuild of {name} differs from the pre-stats "
        f"golden — the chunk payload encoding or base footer layout "
        f"drifted, which breaks old-format compatibility"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_prestats_golden_queries_match_new_format(name):
    """Stat-less archives answer queries identically to new-format ones
    (via the full-decode fallback — there are no footer stats to use)."""
    from repro.core.query import query_trace
    from repro.core.store.archive import Archive

    queries = ["sends", "bytes", "sends where src == 0",
               "sends where src_node != dst_node", "sends group by dst top 3"]
    with Archive(GOLDEN_DIR / f"{name}.aptrc") as new, \
            Archive(GOLDEN_DIR / f"{name}-nostats.aptrc") as old:
        for section in old.section("logical"), new.section("logical"):
            assert all(ref.stats is not None
                       for ref in section.chunk_refs("count")) \
                == (section is new.section("logical"))
        for query in queries:
            assert query_trace(old.section("logical"), query) \
                == query_trace(new.section("logical"), query)


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_prestats_golden_diffs_match_new_format(name):
    """Column-wise archive diffing treats both footer layouts the same."""
    from repro.api import diff

    new = GOLDEN_DIR / f"{name}.aptrc"
    old = GOLDEN_DIR / f"{name}-nostats.aptrc"
    report_new = diff(new, new, label_a="a", label_b="b")
    report_old = diff(old, old, label_a="a", label_b="b")
    assert report_new == report_old


if __name__ == "__main__":  # golden regeneration entry point
    from repro.core.store import writer

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDEN_WORKLOADS):
        path = _build(name, GOLDEN_DIR / f"{name}.aptrc")
        print(f"regenerated {path} ({path.stat().st_size:,} bytes)")
        writer.WRITE_CHUNK_STATS = False
        try:
            path = _build(name, GOLDEN_DIR / f"{name}-nostats.aptrc")
        finally:
            writer.WRITE_CHUNK_STATS = True
        print(f"regenerated {path} ({path.stat().st_size:,} bytes)")
