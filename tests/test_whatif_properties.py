"""Differential property tests for the causal what-if profiler.

Each property cross-checks two independent implementations of the same
quantity:

* the *analyzer* (``repro.whatif.dag``), which reconstructs the
  happens-before DAG from one run's observation stream, against
* the *replay engine* (``repro.whatif.replay``), which actually
  re-executes the workload under a perturbed cost model.

Every example re-executes a simulated actor program, so example counts
stay small (the deterministic substream derivation carries the load);
they scale with the active hypothesis profile's example budget
(``tests/conftest.py``), which is how the nightly randomized run digs
deeper than tier-1.

The schedule-jitter property is deliberately *weaker* than "T_TOTAL is
schedule-invariant": tie-break and flush-order jitter legally move real
cycles around (they change when buffers flush), so the makespan shifts
by a few percent between legal schedules.  What must hold under every
legal schedule is (1) the program's *result* is bit-identical (race
freedom) and (2) the DAG rebuilt from that schedule's own observations
explains that schedule's makespan exactly — the critical path is always
a tight certificate for the run it was recorded from.  (2) is false
today for two known programs under one schedule — ``KNOWN_GAPS`` pins
them as strict expected failures (ROADMAP item 6a).
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.policies import make_schedules
from repro.check.workloads import GeneratedWorkload, generate_spec
from repro.machine.cost import CostModel
from repro.machine.spec import MachineSpec
from repro.whatif import (
    Scales,
    WhatifProfiler,
    build_dag,
    execute_point,
    run_totals,
)
from repro.whatif.dag import DagRecorder

#: Single-target perturbations the differential prediction test draws
#: from.  All are *speedups* (factor < 1): slow-downs reshape the
#: schedule more aggressively and get their own fixed-seed tests in
#: test_whatif_engine.py.
SPEEDUP_TARGETS = ("proc", "main", "comm", "net.latency", "net.bytes")


def _examples(n: int) -> int:
    """``n`` examples under the default budget of 100, scaled with the
    active profile's."""
    return max(n, n * settings.default.max_examples // 100)


def _workload(seed: int, index: int) -> GeneratedWorkload:
    return GeneratedWorkload(generate_spec(seed, index),
                             machine=MachineSpec(2, 2), seed=seed)


def _baseline(workload, tmp_path: Path):
    """Run once with the DAG recorder attached; return (artifacts, dag)."""
    recorder = DagRecorder()
    art = execute_point(workload, Scales(),
                        archive_path=tmp_path / "baseline.aptrc",
                        recorder=recorder)
    dag = build_dag(
        n_pes=workload.machine.n_pes,
        clocks=art.clocks,
        timeline=art.profiler.timeline,
        recorder=recorder,
        cost=CostModel(),
    )
    return art, dag


# ----------------------------------------------------------------------
# (a) work/span bracket: span <= T_TOTAL <= work
# ----------------------------------------------------------------------

@settings(max_examples=_examples(8), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), index=st.integers(0, 20))
def test_span_bounds_total_bounds_work(seed, index, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("whatif-bracket")
    art, dag = _baseline(_workload(seed, index), tmp)
    t_total = max(art.clocks)
    span = sum(e.weight for e in dag.critical_path())
    work = dag.work()
    assert span <= t_total <= work
    # The reconstruction must be *exact*: the critical path is not an
    # estimate but the longest path through the recorded run.
    assert span == t_total
    assert round(dag.predict_total()) == t_total


# ----------------------------------------------------------------------
# (b) neutral replay is byte-identical to the baseline
# ----------------------------------------------------------------------

@settings(max_examples=_examples(6), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), index=st.integers(0, 20))
def test_neutral_scales_replay_byte_identical(seed, index, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("whatif-neutral")
    workload = _workload(seed, index)
    base = execute_point(workload, Scales(),
                         archive_path=tmp / "base.aptrc")
    replay = execute_point(workload, Scales({"proc": 1.0, "buffer": 1.0}),
                           archive_path=tmp / "replay.aptrc")
    assert replay.archive_sha256 == base.archive_sha256
    assert replay.result_fingerprint == base.result_fingerprint
    assert run_totals(replay) == run_totals(base)


# ----------------------------------------------------------------------
# (c) predicted vs replayed T_TOTAL for single-target speedups
# ----------------------------------------------------------------------

@settings(max_examples=_examples(8), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    index=st.integers(0, 10),
    target=st.sampled_from(SPEEDUP_TARGETS),
    factor=st.sampled_from((0.25, 0.5, 0.75)),
)
def test_prediction_tracks_replay_for_speedups(seed, index, target, factor,
                                               tmp_path_factory):
    tmp = tmp_path_factory.mktemp("whatif-predict")
    workload = _workload(seed, index)
    art, dag = _baseline(workload, tmp)
    scales = Scales({target: factor})
    predicted = dag.predict_total(scales)
    replayed = execute_point(workload, scales,
                             archive_path=tmp / "point.aptrc")
    measured = max(replayed.clocks)
    # The DAG predicts from a frozen event structure; the replay may
    # re-batch flushes under the new rates, so allow a generous envelope
    # here — the fixed-seed engine tests pin the tight (<5%) cases.
    assert predicted <= max(art.clocks) + 1
    assert abs(predicted - measured) / measured <= 0.25, (
        f"{target}={factor}x: predicted {predicted}, replayed {measured}"
    )


# ----------------------------------------------------------------------
# (d) schedule jitter: results invariant, critical path always tight
# ----------------------------------------------------------------------

def _assert_critical_path_tight(workload, schedule, tmp: Path) -> str:
    """Run ``workload`` under ``schedule``; the DAG rebuilt from that
    run's own observations must explain its makespan exactly.  Returns
    the result fingerprint."""
    recorder = DagRecorder()
    art = workload.run(
        schedule, tmp / f"s{schedule.index}.aptrc",
        profiler=WhatifProfiler(recorder=recorder),
    )
    dag = build_dag(
        n_pes=workload.machine.n_pes,
        clocks=art.clocks,
        timeline=art.profiler.timeline,
        recorder=recorder,
        cost=CostModel(),
    )
    t_total = max(art.clocks)
    assert sum(e.weight for e in dag.critical_path()) == t_total, (
        f"critical path not tight under {schedule.describe()}"
    )
    assert round(dag.predict_total()) == t_total
    return art.result_fingerprint


@settings(max_examples=_examples(4), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), index=st.integers(0, 10))
def test_critical_path_tight_under_schedule_jitter(seed, index,
                                                   tmp_path_factory):
    tmp = tmp_path_factory.mktemp("whatif-jitter")
    workload = _workload(seed, index)
    # race-free by construction: every legal schedule computes the same
    # result, even though the makespans legitimately differ
    assert len({_assert_critical_path_tight(workload, schedule, tmp)
                for schedule in make_schedules(workload.seed, 3)}) == 1


#: ``(seed, index)`` falsifying examples of the property above that
#: randomized runs drew.  Under schedule 2 (jitter, ``buffer_items=4``)
#: the critical path falls short of the makespan — 35 700 vs 35 777 and
#: 89 040 vs 93 407; schedules 0 and 1 are tight for both.
KNOWN_GAPS = [(6, 6), (65535, 2)]


@pytest.mark.parametrize("schedule", [0, 1, pytest.param(2, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP 6a: build_dag misses a happens-before edge under "
           "jitter with buffer_items=4; un-pin when it is fixed"))])
@pytest.mark.parametrize("seed,index", KNOWN_GAPS)
def test_known_critical_path_gaps(seed, index, schedule, tmp_path):
    workload = _workload(seed, index)
    _assert_critical_path_tight(
        workload, make_schedules(workload.seed, 3)[schedule], tmp_path)


# ----------------------------------------------------------------------
# scale algebra properties (cheap, higher volume)
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    pe=st.integers(0, 7),
    mailbox=st.integers(0, 7),
    f1=st.floats(0.1, 10.0, allow_nan=False),
    f2=st.floats(0.1, 10.0, allow_nan=False),
)
def test_region_factors_compose_multiplicatively(pe, mailbox, f1, f2):
    sc = Scales({f"pe:{pe}": f1, "proc": f2, f"mailbox:{mailbox}": f1})
    expected = f1 * f2 * f1
    assert sc.region_factor(pe, "PROC", mailbox) == pytest.approx(expected)
    assert sc.region_factor(pe, "MAIN") == pytest.approx(f1)
    assert sc.region_factor(pe + 1, "COMM") == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(f1=st.floats(0.1, 10.0, allow_nan=False),
       f2=st.floats(0.1, 10.0, allow_nan=False))
def test_merged_scales_multiply_shared_targets(f1, f2):
    merged = Scales({"proc": f1}).merged(Scales({"proc": f2, "main": f2}))
    assert merged.factor("proc") == pytest.approx(f1 * f2)
    assert merged.factor("main") == pytest.approx(f2)
    assert merged.factor("comm") == 1.0
