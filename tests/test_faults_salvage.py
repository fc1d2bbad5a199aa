"""Crash-time trace salvage: degraded .aptrc archives from failed runs.

The acceptance sequence from the fault-injection issue: kill a PE
mid-run in the triangle case-study workload, salvage whatever was
traced, and assert the archive (a) loads and is marked degraded,
(b) matches the surviving in-memory traces tuple-for-tuple, (c) is
byte-identical across two identically-seeded runs, and (d) diffs and
queries against a healthy run through the normal CLI.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.apps.triangle import count_triangles
from repro.core import ActorProf, ProfileFlags
from repro.core.cli import main as cli_main
from repro.core.store.archive import Archive, load_run
from repro.core.store.writer import TraceArchiver
from repro.experiments.casestudy import case_study_graph
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec
from repro.sim import FaultPlan, use_plan
from repro.sim.errors import SimulationError

SPEC = MachineSpec(2, 2)
GRAPH = case_study_graph(6)


def healthy_triangle(profiler=None):
    return count_triangles(GRAPH, SPEC, profiler=profiler, seed=0)


@pytest.fixture(scope="module")
def crash_cycle():
    """A cycle roughly halfway through the healthy run."""
    res = healthy_triangle()
    return max(res.run.clocks) // 2


def crashed_triangle(crash_cycle, pe=1):
    """Run the triangle workload, killing ``pe`` mid-run.

    Returns the profiler (holding the partial traces) and the failure.
    """
    ap = ActorProf(ProfileFlags.all())
    plan = FaultPlan.single_crash(pe, crash_cycle)
    with use_plan(plan):
        with pytest.raises(SimulationError) as exc_info:
            count_triangles(GRAPH, SPEC, profiler=ap, seed=0)
    return ap, exc_info.value


def test_crash_salvage_loads_and_is_degraded(tmp_path, crash_cycle):
    ap, failure = crashed_triangle(crash_cycle)
    path = ap.salvage_archive(tmp_path / "crashed.aptrc", failure=failure,
                              meta={"app": "triangle"})
    traces = load_run(path)
    assert traces.degraded
    assert traces.kinds() == ("logical", "physical", "papi", "overall")
    assert traces.meta["app"] == "triangle"
    assert traces.meta["crashed_pes"] == {"1": crash_cycle}
    assert type(failure).__name__ in traces.meta["failure"]
    assert ["crash", 1, -1, crash_cycle, ""] in traces.meta["fault_schedule"]
    with Archive(path) as archive:
        assert archive.degraded


def test_salvaged_traces_match_memory_tuple_for_tuple(tmp_path, crash_cycle):
    ap, failure = crashed_triangle(crash_cycle)
    path = ap.salvage_archive(tmp_path / "crashed.aptrc", failure=failure)
    traces = load_run(path)
    for kind, in_memory in (("logical", ap.logical),
                            ("physical", ap.physical),
                            ("papi", ap.papi_trace),
                            ("overall", ap.overall)):
        loaded = getattr(traces, kind)
        mem_cols, _ = in_memory.to_columns()
        got_cols, _ = loaded.to_columns()
        assert set(got_cols) == set(mem_cols), kind
        for name, col in mem_cols.items():
            assert np.array_equal(got_cols[name], col), (kind, name)


def test_salvaged_archives_are_byte_identical(tmp_path, crash_cycle):
    paths = []
    for i in range(2):
        ap, failure = crashed_triangle(crash_cycle)
        paths.append(ap.salvage_archive(tmp_path / f"run{i}.aptrc",
                                        failure=failure))
    a, b = (p.read_bytes() for p in paths)
    assert a == b


def test_salvaged_papi_totals_keep_the_open_finish(tmp_path, crash_cycle):
    """A crash in the middle of the finish: the region totals the trace
    folds in when read, and every PE's CSV including its finish summary
    row, are the values the per-exit-array profiler recorded."""
    assert crash_cycle == 76610
    ap, failure = crashed_triangle(crash_cycle)
    path = ap.salvage_archive(tmp_path / "crashed.aptrc", failure=failure)
    with Archive(path) as archive:
        attrs = archive.section("papi").attrs
    assert attrs["events"] == ["PAPI_TOT_INS", "PAPI_LST_INS"]
    assert attrs["main_totals"] == [[10494, 6678], [3498, 2226],
                                    [4257, 2709], [924, 588]]
    assert attrs["proc_totals"] == [[43920, 11712], [21360, 5696],
                                    [28080, 7488], [7980, 2128]]
    digest = hashlib.sha256()
    for csv in ap.papi_trace.write(tmp_path / "csv"):
        digest.update(csv.read_bytes())
    assert digest.hexdigest() == (
        "0312de8292ce3d00de2684eda33c7f588e3befc8023b65cd026115e21091b8c4")
    # the crashed PE's summary row: MAIN + PROC at the failure
    last = (tmp_path / "csv" / "PE1_PAPI.csv").read_text().splitlines()[-1]
    assert last == "0,1,0,1,0,-1,318,24858,7922"


def test_cli_queries_and_diffs_degraded_archive(tmp_path, capsys, crash_cycle):
    ap_h = ActorProf(ProfileFlags.all())
    healthy_triangle(profiler=ap_h)
    healthy = ap_h.export_archive(tmp_path / "healthy.aptrc")
    ap, failure = crashed_triangle(crash_cycle)
    crashed = ap.salvage_archive(tmp_path / "crashed.aptrc", failure=failure)
    assert cli_main([str(crashed), "--quiet", "--query",
                     "logical: sends group by src"]) == 0
    assert cli_main(["diff", str(crashed), str(healthy)]) == 0
    out = capsys.readouterr().out
    assert "comparing" in out


class _Inc(Actor):
    def __init__(self, ctx, arr):
        super().__init__(ctx)
        self.arr = arr

    def process(self, idx, sender):
        self.arr[idx] += 1


def _actor_program(ctx):
    arr = np.zeros(8, dtype=np.int64)
    a = _Inc(ctx, arr)
    with ctx.finish():
        a.start()
        for _ in range(200):
            a.send(int(ctx.rng.integers(0, 8)),
                   int(ctx.rng.integers(0, ctx.n_pes)))
        a.done()
    return int(arr.sum())


def test_streaming_archiver_salvage(tmp_path):
    """The streaming writer can also salvage a crashed run's spills."""
    arch = TraceArchiver(tmp_path / "stream.aptrc", spill_every=100,
                         meta={"app": "actors"})
    with use_plan(FaultPlan.single_crash(2, 20_000)):
        with pytest.raises(SimulationError) as exc_info:
            run_spmd(_actor_program, machine=MachineSpec(2, 4),
                     profiler=arch, seed=3)
    path = arch.salvage(failure=exc_info.value)
    traces = load_run(path)
    assert traces.degraded
    assert traces.meta["app"] == "actors"
    assert traces.meta["crashed_pes"] == {"2": 20_000}
    assert traces.logical is not None and traces.logical.total_sends() > 0
    # Spilled bytes and footer index are pinned (re-pinned for format
    # version 2 after comparing every decoded column and stat equal to
    # the v1 pin's).
    with Archive(path) as archive:
        data = path.read_bytes()[:archive.data_end]
        index = json.dumps(archive.section_index, sort_keys=True).encode()
        headline = archive.meta["failure"]
        assert archive.meta["failure_pe"] == 1
    assert hashlib.sha256(data).hexdigest() == (
        "c44187ebf38e48202f212b536df1cb42604d5bbf07ae9f1f5401b339494d42d4")
    assert hashlib.sha256(index).hexdigest() == (
        "0478bf502382ff6fbb04dfb7287f1f024b11f3e72ae41a7d84b28eab416c3f6b")
    assert "\n" not in headline and headline.startswith(
        "PEFailure: PE 1 failed: DeadlockError('simulation deadlocked;")


def _fails_here(ctx):
    _actor_program(ctx)
    if ctx.rank == 1:
        raise ValueError("boom")


def _fails_there(ctx):
    _actor_program(ctx)
    if ctx.rank != 1:
        return
    raise ValueError("boom")


def test_salvaged_bytes_carry_no_traceback(tmp_path):
    """``meta["failure"]`` is the failure's headline: the same failing
    program raised from two different source lines salvages to the same
    bytes (the traceback stays on the in-process exception)."""
    digests = set()
    for i, program in enumerate((_fails_here, _fails_there)):
        ap = ActorProf(ProfileFlags.all())
        with pytest.raises(SimulationError) as exc_info:
            run_spmd(program, machine=MachineSpec(1, 4), profiler=ap, seed=3)
        assert "Traceback" in str(exc_info.value)
        assert program.__name__ in str(exc_info.value)
        path = ap.salvage_archive(tmp_path / f"{i}.aptrc",
                                  failure=exc_info.value)
        with Archive(path) as archive:
            failure = archive.meta["failure"]
            assert archive.meta["failure_pe"] == 1
        assert failure == "PEFailure: PE 1 failed: ValueError('boom')"
        assert not any(part in failure
                       for part in ("Traceback", "\n", os.sep))
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    assert len(digests) == 1, digests


def test_salvage_requires_attachment(tmp_path):
    with pytest.raises(Exception, match="not attached"):
        TraceArchiver(tmp_path / "x.aptrc").salvage()


def test_both_salvage_paths_stamp_the_same_footer(tmp_path):
    """One crashed run, salvaged through the in-memory profiler and
    through the streaming archiver wrapped around it: same stamp."""
    ap = ActorProf(ProfileFlags.all())
    arch = TraceArchiver(tmp_path / "stream.aptrc", inner=ap, spill_every=100)
    with use_plan(FaultPlan.single_crash(2, 20_000)):
        with pytest.raises(SimulationError) as exc_info:
            run_spmd(_actor_program, machine=MachineSpec(2, 4),
                     profiler=arch, seed=3)
    streamed = arch.salvage(failure=exc_info.value)
    in_memory = ap.salvage_archive(tmp_path / "memory.aptrc",
                                   failure=exc_info.value)
    with Archive(streamed) as a, Archive(in_memory) as b:
        for key in ("degraded", "failure", "crashed_pes", "fault_schedule"):
            assert a.meta[key] == b.meta[key], key
        assert a.meta["crashed_pes"] == {"2": 20_000}
