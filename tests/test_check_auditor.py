"""Acceptance tests for the ActorCheck audit loop.

The two headline requirements: a deterministic workload passes a
multi-schedule audit, and a planted handler-order race is flagged as
*confirmed* nondeterminism naming the two divergent schedules.
"""

import pytest

from repro.check import HistogramWorkload, audit
from repro.check.workloads import GeneratedWorkload, ProgramSpec
from repro.machine.spec import MachineSpec
from repro.sim.faults import CrashFault, EdgeFault, FaultPlan


def _small_histogram(seed=0):
    return HistogramWorkload(updates=120, table_size=16,
                             machine=MachineSpec(1, 4), seed=seed)


def _racy_workload(seed=0):
    spec = ProgramSpec(mailboxes=2, payload_words=(2, 2), sends_per_pe=48,
                       planted_race=True)
    return GeneratedWorkload(spec, machine=MachineSpec(1, 4), seed=seed,
                             name="racy")


@pytest.fixture(scope="module")
def clean_report():
    return audit(_small_histogram(), schedules=4)


@pytest.fixture(scope="module")
def racy_report():
    return audit(_racy_workload(), schedules=4, store_equivalence=False)


def test_clean_workload_passes(clean_report):
    assert clean_report.verdict == "pass"
    assert clean_report.exit_code == 0
    assert clean_report.confirmed == []
    assert clean_report.violations == []


def test_clean_audit_replays_are_byte_identical(clean_report):
    assert len(clean_report.replays) == 2  # schedule 0 and one jittered
    assert all(r["identical"] for r in clean_report.replays)


def test_clean_audit_reports_benign_reordering(clean_report):
    # jittered schedules shuffle physical buffering, so archives differ —
    # but only benignly
    assert clean_report.benign


def test_audit_one_outcome_per_schedule(clean_report):
    assert len(clean_report.outcomes) == 4
    assert [o.schedule.index for o in clean_report.outcomes] == [0, 1, 2, 3]


def test_report_round_trips_to_dict(clean_report):
    d = clean_report.to_dict()
    assert d["verdict"] == "pass"
    assert d["exit_code"] == 0
    assert len(d["outcomes"]) == 4
    assert "byte-identical" in clean_report.render()


def test_planted_race_is_confirmed(racy_report):
    """The acceptance criterion: the race is CONFIRMED, not benign."""
    assert racy_report.verdict == "nondeterminism"
    assert racy_report.exit_code == 4
    assert racy_report.confirmed


def test_planted_race_names_two_divergent_schedules(racy_report):
    div = racy_report.confirmed[0]
    assert div.kind == "result"
    a, b = div.schedules
    assert a != b
    assert a == "0"  # diffed against the default-schedule baseline
    rendered = racy_report.render()
    assert f"CONFIRMED [result] schedules {a} vs {b}" in rendered


def test_planted_race_keeps_logical_trace_invariant(racy_report):
    """The race corrupts only the result — sends stay schedule-invariant,
    so the classifier must not blame the logical trace."""
    kinds = {d.kind for d in racy_report.confirmed}
    assert "logical-trace" not in kinds
    assert "replay" not in kinds  # each schedule is still bit-stable


def test_audit_rejects_zero_schedules():
    with pytest.raises(ValueError, match="at least one schedule"):
        audit(_small_histogram(), schedules=0)


def test_audit_rejects_crash_plans():
    plan = FaultPlan(crashes=(CrashFault(pe=1, at_cycle=1000),))
    with pytest.raises(ValueError, match="crashes cannot be audited"):
        audit(_small_histogram(), schedules=2, fault_plan=plan)


def test_audit_composes_with_nonfatal_fault_plan(tmp_path):
    """A delay/duplicate plan is deterministic per seed, so the audited
    workload must still pass under it."""
    plan = FaultPlan(edges=(EdgeFault(duplicate=0.2, delay=0.3,
                                      delay_cycles=500),), seed=7)
    report = audit(_small_histogram(), schedules=2,
                   out_dir=tmp_path / "arch", store_equivalence=False,
                   fault_plan=plan)
    assert report.verdict == "pass"
    assert all(r["identical"] for r in report.replays)
    assert (tmp_path / "arch" / "s0.aptrc").exists()
