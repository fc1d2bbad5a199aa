"""Tests for deterministic fault injection: plans, injector, scheduler."""

from dataclasses import replace

import pytest

from repro.hclib import run_spmd
from repro.machine import MachineSpec
from repro.sim import (
    CrashFault,
    EdgeFault,
    FaultInjector,
    FaultPlan,
    PECrashed,
    SlowPE,
    current_plan,
    use_plan,
)


# ----------------------------------------------------------------------
# FaultPlan validation + serialization
# ----------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(edges=(EdgeFault(drop=1.5),))
    with pytest.raises(ValueError, match="exceeds 1"):
        FaultPlan(edges=(EdgeFault(drop=0.7, duplicate=0.7),))
    with pytest.raises(ValueError, match="delay_cycles"):
        FaultPlan(edges=(EdgeFault(delay=0.1, delay_cycles=-1),))
    with pytest.raises(ValueError, match="crash cycle"):
        FaultPlan(crashes=(CrashFault(0, -5),))
    with pytest.raises(ValueError, match="multiplier"):
        FaultPlan(slow_pes=(SlowPE(0, 0.0),))
    with pytest.raises(ValueError, match="max_retries"):
        FaultPlan(max_retries=-1)


def test_plan_validate_against_job_size():
    plan = FaultPlan(
        crashes=(CrashFault(3, 100),),
        edges=(EdgeFault(src=0, dst=3, drop=0.1),),
        slow_pes=(SlowPE(2, 2.0),),
    )
    assert plan.validate(4) is plan
    with pytest.raises(ValueError, match="crash PE 3"):
        plan.validate(2)
    with pytest.raises(ValueError, match="slow PE"):
        FaultPlan(slow_pes=(SlowPE(9, 2.0),)).validate(4)
    with pytest.raises(ValueError, match="edge fault dst"):
        FaultPlan(edges=(EdgeFault(dst=9),)).validate(4)
    # wildcards never go out of range
    FaultPlan(edges=(EdgeFault(drop=0.5),)).validate(1)


def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        crashes=(CrashFault(1, 50_000), CrashFault(3, 99_999)),
        edges=(EdgeFault(src=0, dst=1, drop=0.25, delay=0.1,
                         delay_cycles=5_000),
               EdgeFault(duplicate=0.5)),  # wildcard edge
        slow_pes=(SlowPE(2, 3.5),),
        seed=7,
        max_retries=3,
        backoff_cycles=500,
    )
    path = tmp_path / "plan.json"
    plan.save(path)
    assert FaultPlan.load(path) == plan
    # wildcards serialize as "*"
    assert '"*"' in path.read_text()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_rejects_unknown_keys_and_bad_files(tmp_path):
    with pytest.raises(ValueError, match="unknown fault plan key"):
        FaultPlan.from_dict({"crashes": [], "typo": 1})
    with pytest.raises(ValueError, match="JSON object"):
        FaultPlan.from_dict([1, 2])
    with pytest.raises(ValueError, match="not valid JSON"):
        FaultPlan.from_json("{nope")
    with pytest.raises(ValueError, match="cannot read"):
        FaultPlan.load(tmp_path / "missing.json")


def test_plan_helpers():
    plan = FaultPlan(crashes=(CrashFault(2, 10_000),))
    assert not plan.empty
    assert FaultPlan().empty
    assert replace(plan, seed=9).seed == 9
    text = FaultPlan(
        crashes=(CrashFault(1, 1000),),
        edges=(EdgeFault(drop=0.1),),
        slow_pes=(SlowPE(0, 2.0),),
    ).describe()
    assert "crash" in text and "*->*" in text and "x2" in text
    assert "(no faults)" in FaultPlan().describe()


def test_use_plan_nesting():
    assert current_plan() is None
    outer = FaultPlan(crashes=(CrashFault(0, 1),))
    inner = FaultPlan(crashes=(CrashFault(1, 2),))
    with use_plan(outer):
        assert current_plan() is outer
        with use_plan(inner):
            assert current_plan() is inner
        assert current_plan() is outer
    assert current_plan() is None


# ----------------------------------------------------------------------
# FaultInjector determinism
# ----------------------------------------------------------------------

def test_edge_streams_independent_of_interleaving():
    plan = FaultPlan(edges=(EdgeFault(drop=0.3, duplicate=0.2, delay=0.4,
                                      delay_cycles=100),), seed=11)
    # draw edge (0, 1) alone
    alone = FaultInjector(plan, 4)
    fates_alone = [alone.send_outcome(0, 1, i) for i in range(40)]
    # draw the same edge interleaved with traffic on other edges
    mixed = FaultInjector(plan, 4)
    fates_mixed = []
    for i in range(40):
        mixed.send_outcome(2, 3, i)
        fates_mixed.append(mixed.send_outcome(0, 1, i))
        mixed.send_outcome(1, 0, i)
    assert fates_alone == fates_mixed


def test_injector_schedule_is_reproducible():
    plan = FaultPlan(edges=(EdgeFault(drop=0.5, delay=0.5,
                                      delay_cycles=10),), seed=3)

    def realize():
        inj = FaultInjector(plan, 2)
        for i in range(50):
            inj.send_outcome(0, 1, i * 10)
        return inj.schedule_rows()

    rows = realize()
    assert rows == realize()
    assert any(r[0] == "drop" for r in rows)
    assert any(r[0] == "delay" for r in rows)


def test_injector_seed_changes_schedule():
    base = FaultPlan(edges=(EdgeFault(drop=0.5),))

    def fates(plan):
        inj = FaultInjector(plan, 2)
        return [inj.send_outcome(0, 1, i).action for i in range(64)]

    assert fates(base) != fates(replace(base, seed=1))


def test_describe_schedule_lists_pending_crashes():
    inj = FaultInjector(FaultPlan(crashes=(CrashFault(1, 5_000),)), 2)
    assert "(pending) crash PE 1" in inj.describe_schedule()
    inj.note_crash(1, 5_000)
    text = inj.describe_schedule()
    assert "pending" not in text
    assert "crash" in text


# ----------------------------------------------------------------------
# scheduler crash semantics (through run_spmd)
# ----------------------------------------------------------------------

async def _independent_program(ctx):
    # no cross-PE communication: survivors finish even if one PE dies
    for _ in range(200):
        ctx.compute(ins=1_000, loads=200, stores=100)
        await ctx.yield_pe()
    return ctx.rank


def test_crash_unwinds_one_pe_and_raises_pecrashed():
    plan = FaultPlan(crashes=(CrashFault(1, 50_000),))
    with pytest.raises(PECrashed) as exc_info:
        run_spmd(_independent_program, machine=MachineSpec(1, 4),
                 fault_plan=plan)
    assert exc_info.value.rank == 1
    assert "injected crash" in str(exc_info.value)


def test_crash_records_in_scheduler_and_schedule():
    plan = FaultPlan(crashes=(CrashFault(2, 10_000),))
    with use_plan(plan):
        with pytest.raises(PECrashed):
            run_spmd(_independent_program, machine=MachineSpec(1, 4))


def test_crash_past_end_of_run_never_fires():
    # the PE finishes before the crash cycle: the run is healthy
    plan = FaultPlan(crashes=(CrashFault(0, 10**12),))
    res = run_spmd(_independent_program, machine=MachineSpec(1, 2),
                   fault_plan=plan)
    assert res.results == [0, 1]


def test_slow_pe_multiplier_stretches_clock():
    healthy = run_spmd(_independent_program, machine=MachineSpec(1, 2))
    slowed = run_spmd(
        _independent_program, machine=MachineSpec(1, 2),
        fault_plan=FaultPlan(slow_pes=(SlowPE(0, 3.0),)),
    )
    # PE 0 charges 3x the cycles for identical work; PE 1 is untouched
    assert slowed.clocks[0] > 2 * healthy.clocks[0]
    assert slowed.clocks[1] == healthy.clocks[1]


def test_empty_plan_is_free():
    base = run_spmd(_independent_program, machine=MachineSpec(1, 2))
    noop = run_spmd(_independent_program, machine=MachineSpec(1, 2),
                    fault_plan=FaultPlan())
    assert noop.world.faults is None
    assert noop.clocks == base.clocks
