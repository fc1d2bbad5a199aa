"""Unit tests for the cooperative scheduler."""

import pytest

from repro.sim import CoopScheduler, DeadlockError, PECrashed, PEFailure
from repro.sim.errors import SimulationError
from repro.sim.scheduler import PEState


async def idle(rank):
    """A PE program that returns at once."""


async def echo(rank):
    return rank


def test_single_pe_runs_to_completion():
    s = CoopScheduler(1)
    assert s.run(echo) == [0]
    assert [pe.state for pe in s._pes] == [PEState.DONE]


def test_requires_at_least_one_pe():
    with pytest.raises(ValueError):
        CoopScheduler(0)


def test_run_only_once():
    s = CoopScheduler(1)
    s.run(idle)
    with pytest.raises(SimulationError):
        s.run(idle)


def test_all_pes_run():
    s = CoopScheduler(8)
    assert s.run(echo) == list(range(8))


def test_min_clock_pe_runs_first():
    """A PE that advanced its clock yields to PEs that are behind."""
    s = CoopScheduler(3)
    order = []

    async def prog(rank):
        s.clocks[rank].advance((rank + 1) * 100)
        await s.yield_pe(rank)
        order.append(rank)

    s.run(prog)
    # After initial advances: clocks are 100, 200, 300 → completion in rank
    # order of increasing clock.
    assert order == [0, 1, 2]


def test_yield_returns_immediately_when_still_minimum():
    s = CoopScheduler(2)
    trace = []

    async def prog(rank):
        if rank == 0:
            # rank 0 stays at time 0, rank 1 jumps ahead: rank 0's yields
            # should not hand control over.
            for _ in range(3):
                await s.yield_pe(0)
                trace.append(("yield-kept", 0))
        else:
            s.clocks[1].advance(10**6)

    s.run(prog)
    assert trace.count(("yield-kept", 0)) == 3


def test_block_with_predicate_unblocks_when_true():
    s = CoopScheduler(2)
    box = {"ready": False, "result": None}

    async def prog(rank):
        if rank == 0:
            await s.block(0, predicate=lambda: box["ready"], reason="waiting for data")
            box["result"] = "got it"
        else:
            s.clocks[1].advance(50)
            box["ready"] = True
            await s.yield_pe(1)

    s.run(prog)
    assert box["result"] == "got it"


def test_block_with_wakeup_time_advances_clock():
    s = CoopScheduler(1)
    times = []

    async def prog(rank):
        await s.block(0, wakeup_time=500, reason="sleep")
        times.append(s.clocks[0].now)

    s.run(prog)
    assert times == [500]


def test_block_without_predicate_or_wakeup_rejected():
    s = CoopScheduler(1)
    with pytest.raises(PEFailure):
        s.run(lambda rank: s.block(rank, reason="oops"))


def test_wait_until_loops_until_predicate():
    s = CoopScheduler(2)
    box = {"n": 0, "seen": None}

    async def prog(rank):
        if rank == 0:
            await s.wait_until(
                0,
                predicate=lambda: box["n"] >= 3,
                wakeup_fn=lambda: s.clocks[0].now + 10,
                reason="counting",
            )
            box["seen"] = box["n"]
        else:
            for _ in range(3):
                s.clocks[1].advance(25)
                box["n"] += 1
                await s.yield_pe(1)

    s.run(prog)
    assert box["seen"] == 3


def test_deadlock_detected():
    s = CoopScheduler(2)

    async def prog(rank):
        # Both PEs wait on a predicate that can never become true.
        await s.block(rank, predicate=lambda: False, reason=f"pe{rank} stuck")

    with pytest.raises(PEFailure) as ei:
        s.run(prog)
    assert isinstance(ei.value.__cause__, DeadlockError)
    assert "stuck" in str(ei.value.__cause__)


def test_pe_exception_propagates_as_pefailure():
    s = CoopScheduler(4)

    async def prog(rank):
        if rank == 2:
            raise ValueError("boom on pe 2")

    with pytest.raises(PEFailure) as ei:
        s.run(prog)
    assert ei.value.rank == 2
    assert isinstance(ei.value.__cause__, ValueError)


def test_posted_events_fire_when_nothing_runnable():
    """A pending crash fires even when no PE is runnable and no timed
    wakeup exists — it is the only thing that can still make progress."""
    s = CoopScheduler(2)
    box = {}

    async def prog(rank):
        await s.block(rank, predicate=lambda: 1 in s.crashed, reason="await crash")
        box["observed"] = (dict(s.crashed), s.clocks[0].now)

    s.schedule_crash(1, 1000)
    with pytest.raises(PECrashed):
        s.run(prog)
    # The crash fired; the survivor's clock does not advance for a
    # predicate wake, only the victim's is moved to the crash cycle.
    assert box["observed"] == ({1: 1000}, 0)
    assert s.clocks[1].now == 1000


def test_events_fire_in_time_order_between_pe_steps():
    s = CoopScheduler(4)
    fired = []

    async def prog(rank):
        await s.block(rank, predicate=lambda: len(fired) == 3, reason="await all")

    for rank, t in ((3, 300), (1, 100), (2, 200)):  # scheduled out of order
        s.schedule_crash(rank, t, on_crash=lambda r, t: fired.append((t, r)))
    with pytest.raises(PECrashed):
        s.run(prog)
    assert fired == [(100, 1), (200, 2), (300, 3)]


def test_determinism_across_runs():
    def build():
        s = CoopScheduler(4)
        log = []

        async def prog(rank):
            for i in range(5):
                s.clocks[rank].advance((rank * 7 + i * 3) % 11 + 1)
                log.append((rank, s.clocks[rank].now))
                await s.yield_pe(rank)

        s.run(prog)
        return log

    assert build() == build()


def test_many_pes_scale():
    s = CoopScheduler(64)
    counter = {"n": 0}

    async def prog(rank):
        for _ in range(10):
            s.clocks[rank].advance(1)
            await s.yield_pe(rank)
        counter["n"] += 1

    s.run(prog)
    assert counter["n"] == 64
