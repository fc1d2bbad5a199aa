"""Tests for ActorCheck's trace-invariant engine.

A clean run must produce zero violations; each check must fire when its
artifact is tampered with in the way it guards against.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.check.invariants import (
    check_monotone_clocks,
    check_region_identity,
    check_send_conservation,
    check_store_equivalence,
    run_invariants,
)
from repro.check.policies import make_schedules
from repro.check.workloads import GeneratedWorkload, ProgramSpec
from repro.core.logical import LogicalTrace
from repro.machine.spec import MachineSpec


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One clean audited run every tampering test starts from."""
    wl = GeneratedWorkload(
        ProgramSpec(mailboxes=2, payload_words=(2, 2), sends_per_pe=40),
        machine=MachineSpec(1, 4), seed=3,
    )
    out = tmp_path_factory.mktemp("inv") / "clean.aptrc"
    return wl.run(make_schedules(3, 1)[0], out)


def test_clean_run_has_no_violations(artifacts):
    assert run_invariants(artifacts) == []


# ----------------------------------------------------------------------
# send conservation
# ----------------------------------------------------------------------

def test_tampered_receipts_fire(artifacts):
    bad = artifacts.receipts.copy()
    bad[0, 1] += 1
    art = replace(artifacts, receipts=bad)
    violations = check_send_conservation(art)
    assert any("handler receipts disagree" in v.detail for v in violations)
    assert all(v.invariant == "send-conservation" for v in violations)


def test_lost_pull_fires(artifacts):
    stats = [dict(g) for g in artifacts.group_stats]
    stats[0]["pulls"] -= 1
    art = replace(artifacts, group_stats=stats)
    violations = check_send_conservation(art)
    assert any("pushes !=" in v.detail for v in violations)


def test_phantom_push_fires(artifacts):
    stats = [dict(g) for g in artifacts.group_stats]
    stats[0]["pushes"] += 5
    stats[0]["pulls"] += 5
    art = replace(artifacts, group_stats=stats)
    violations = check_send_conservation(art)
    assert any("logical trace records" in v.detail for v in violations)


def test_wrong_receive_totals_fire(artifacts):
    totals = list(artifacts.received_per_pe)
    totals[0] += 1
    art = replace(artifacts, received_per_pe=totals)
    violations = check_send_conservation(art)
    assert any("column sums" in v.detail for v in violations)


# ----------------------------------------------------------------------
# region identity and clocks (synthetic artifacts: only the fields the
# checks read are populated)
# ----------------------------------------------------------------------

def _synthetic(t_main, t_proc, t_total, clocks):
    overall = SimpleNamespace(
        t_main=np.array(t_main, dtype=np.int64),
        t_proc=np.array(t_proc, dtype=np.int64),
        t_total=np.array(t_total, dtype=np.int64),
    )
    return SimpleNamespace(profiler=SimpleNamespace(overall=overall),
                           clocks=list(clocks))


def test_region_identity_holds_on_sane_numbers():
    art = _synthetic([10, 20], [5, 5], [20, 30], [20, 30])
    assert check_region_identity(art) == []
    assert check_monotone_clocks(art) == []


def test_negative_region_time_fires():
    art = _synthetic([-1, 0], [0, 0], [10, 10], [10, 10])
    violations = check_region_identity(art)
    assert any("negative region time" in v.detail for v in violations)


def test_main_plus_proc_exceeding_total_fires():
    art = _synthetic([8, 0], [8, 0], [10, 10], [10, 10])
    violations = check_region_identity(art)
    assert any("T_COMM would be negative" in v.detail for v in violations)


def test_tolerance_forgives_small_overshoot():
    art = _synthetic([6, 0], [5, 0], [10, 10], [11, 10])
    assert check_region_identity(art) != []
    assert check_region_identity(art, tolerance=0.2) == []


def test_backwards_clock_fires():
    art = _synthetic([1], [1], [5], [-3])
    violations = check_monotone_clocks(art)
    assert any("ran backwards" in v.detail for v in violations)


def test_total_exceeding_clock_fires():
    art = _synthetic([1], [1], [50], [10])
    violations = check_monotone_clocks(art)
    assert any("exceeds the final" in v.detail for v in violations)


# ----------------------------------------------------------------------
# store equivalence
# ----------------------------------------------------------------------

def test_store_equivalence_clean(artifacts):
    assert check_store_equivalence(artifacts) == []


def test_store_equivalence_detects_archive_drift(artifacts):
    # record one extra logical send AFTER the archive was exported: the
    # in-memory matrix no longer matches the archived one
    saved = artifacts.profiler.logical
    tampered = LogicalTrace.from_columns(*saved.to_columns())
    tampered.record(0, 1, 8)
    artifacts.profiler.logical = tampered
    try:
        violations = check_store_equivalence(artifacts)
        assert any("logical matrix does not" in v.detail for v in violations)
    finally:
        # put the untouched trace back so the module-scoped fixture stays clean
        artifacts.profiler.logical = saved
