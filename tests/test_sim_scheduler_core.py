"""Tests for the scheduler's indexed selection and scheduler edge cases.

Three groups:

* edge-case semantics that must hold on the production scheduler **and**
  the linear oracle (``tests/sched_oracle.py``): tie-break validation,
  same-cycle crashes, crash-during-tie, predicate-true-with-wakeup,
  failure attribution, crash and failure unwinding, deadlock report
  contents;
* :class:`~repro.sim.scheduler.WaitChannel` epoch bookkeeping specific to
  the indexed selection (predicate evaluation is gated on notifications);
* differential runs pinning the production scheduler against the linear
  oracle on real workloads — default policy, jittered policies, and a
  crash fault plan.
"""

import pytest

from repro.apps.histogram import histogram
from repro.check.policies import JitterPolicy, make_schedules
from repro.machine.spec import MachineSpec
from repro.sim import CoopScheduler, DeadlockError, PECrashed, PEFailure
from repro.sim.errors import SimulationError
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.scheduler import PEState, SchedulePolicy
from tests.sched_oracle import LinearScheduler, use_scheduler

CORES = {"indexed": CoopScheduler, "linear": LinearScheduler}


async def idle(rank):
    """A PE program that returns at once."""


@pytest.fixture(params=sorted(CORES))
def core(request):
    """The scheduler *class* under test."""
    return CORES[request.param]


# ---------------------------------------------------------------------------
# Edge cases (production scheduler and linear oracle)
# ---------------------------------------------------------------------------


class _NonCandidatePolicy(SchedulePolicy):
    """A broken policy that picks a rank outside the tied set."""

    def tie_break(self, time, ranks):
        return max(ranks) + 17


def test_tie_break_non_candidate_raises_named_error(core):
    s = core(3, policy=_NonCandidatePolicy())
    # All three PEs tie at clock 0 on the initial selection, which the
    # scheduler loop runs before any PE does.
    with pytest.raises(PEFailure) as ei:
        s.run(idle)
    cause = ei.value.__cause__
    assert isinstance(cause, SimulationError)
    assert "not among the tied candidates" in str(cause)
    assert "_NonCandidatePolicy" in str(cause)


def test_main_thread_failure_not_blamed_on_pe0(core):
    s = core(2, policy=_NonCandidatePolicy())
    with pytest.raises(PEFailure) as ei:
        s.run(idle)
    # The initial selection failed before any PE ran: the failure belongs
    # to the scheduler loop (labelled the main thread), not to PE 0.
    assert ei.value.rank == -1
    assert "main thread" in str(ei.value)
    assert not str(ei.value).startswith("PE 0 failed")


def test_pe_failure_rank_still_reported(core):
    s = core(4)

    async def prog(rank):
        if rank == 2:
            raise ValueError("boom")

    with pytest.raises(PEFailure) as ei:
        s.run(prog)
    assert ei.value.rank == 2
    assert str(ei.value).startswith("PE 2 failed")


def test_same_cycle_crashes_fire_in_plan_order(core):
    """Crashes due at one cycle fire in ``schedule_crash`` call order
    (fault-plan order), all before any PE resumes at that cycle."""
    s = core(4)
    fired = []

    async def prog(rank):
        await s.block(rank, predicate=lambda: False, wakeup_time=2_000, reason="nap")
        fired.append(("resumed", rank))

    for rank in (3, 1, 2):  # call order, not rank order
        s.schedule_crash(rank, 1_000, on_crash=lambda r, t: fired.append((r, t)))
    with pytest.raises(PECrashed):
        s.run(prog)
    assert fired == [(3, 1_000), (1, 1_000), (2, 1_000), ("resumed", 0)]


def test_event_batches_counted_on_indexed_core():
    s = CoopScheduler(5)
    hits = []

    async def prog(rank):
        await s.block(rank, predicate=lambda: len(hits) >= 4, reason="await crashes")

    for rank, t in ((1, 100), (2, 100), (3, 100), (4, 200)):
        s.schedule_crash(rank, t, on_crash=lambda r, t: hits.append(t))
    with pytest.raises(PECrashed):
        s.run(prog)
    assert hits == [100, 100, 100, 200]
    assert s.stats.events_fired == 4
    # 100/100/100 fire together; 200 is a later cycle → its own batch.
    assert s.stats.event_batches == 2


def test_crash_of_a_finished_pe_is_a_noop(core):
    """A crash landing after its victim reached DONE changes nothing: the
    run is healthy, and the crash still counts as fired."""
    s = core(2)
    hits = []

    async def prog(rank):
        if rank == 1:
            await s.block(1, predicate=lambda: False, wakeup_time=900, reason="nap")

    s.schedule_crash(0, 500, on_crash=lambda r, t: hits.append((r, t)))
    s.run(prog)  # no PECrashed: PE 0 was DONE before cycle 500
    assert hits == [] and s.crashed == {}
    assert [pe.state for pe in s._pes] == [PEState.DONE, PEState.DONE]
    assert s.stats.events_fired == 1


def test_crash_during_tie(core):
    """A crash landing while several PEs are tied kills only the victim."""
    s = core(4)
    done = []

    async def prog(rank):
        for _ in range(5):
            s.clocks[rank].advance(10)
            await s.yield_pe(rank)
        done.append(rank)

    s.schedule_crash(2, at_cycle=25)
    with pytest.raises(PECrashed) as ei:
        s.run(prog)
    assert ei.value.rank == 2
    assert sorted(done) == [0, 1, 3]
    states = [pe.state for pe in s._pes]
    assert states[2] is PEState.CRASHED
    assert all(states[r] is PEState.DONE for r in (0, 1, 3))


def test_predicate_true_with_wakeup_does_not_advance_clock(core):
    """_resume_locked must not apply the timed wakeup when the predicate
    is (already) true — the unblocking layer owns arrival accounting."""
    s = core(1)
    seen = []

    async def prog(rank):
        await s.block(0, predicate=lambda: True, wakeup_time=500, reason="instant")
        seen.append(s.clocks[0].now)

    s.run(prog)
    assert seen == [0]


def test_pure_wakeup_still_advances_clock(core):
    s = core(1)
    seen = []

    async def prog(rank):
        await s.block(0, predicate=lambda: False, wakeup_time=700, reason="timer")
        seen.append(s.clocks[0].now)

    s.run(prog)
    assert seen == [700]


def test_deadlock_report_includes_wakeups_and_pending_events(core):
    """Timed-wakeup and pending-event diagnostics in the deadlock text."""
    s = core(2)
    # White-box: construct the wedged state directly and render the
    # report.  (A live deadlock can never hold a timed wakeup or a
    # pending crash — both would count as progress — so the reachable
    # reports always say "pending events: none"; the fields exist to
    # diagnose bookkeeping regressions.)
    rec = s._pes[0]
    rec.state = PEState.BLOCKED
    rec.predicate = lambda: False
    rec.wakeup_time = 12345
    rec.reason = "waiting on nothing"
    s._pes[1].state = PEState.DONE
    s.schedule_crash(1, 777)
    report = s._deadlock_report_locked()
    assert "timed wakeup at cycle 12345" in report
    assert "earliest pending event: cycle 777" in report
    assert "waiting on nothing" in report


def test_deadlock_report_says_no_pending_events(core):
    s = core(1)

    async def prog(rank):
        await s.block(0, predicate=lambda: False, reason="stuck forever")

    with pytest.raises(PEFailure) as ei:
        s.run(prog)
    cause = ei.value.__cause__
    assert isinstance(cause, DeadlockError)
    assert "pending events: none" in str(cause)
    assert "stuck forever" in str(cause)


# ---------------------------------------------------------------------------
# WaitChannel epoch bookkeeping (indexed selection)
# ---------------------------------------------------------------------------


def test_channel_gates_predicate_reevaluation():
    """With a channel, the predicate is evaluated at block time and per
    notification — not at every handoff."""
    s = CoopScheduler(3)
    ch = s.channel()
    box = {"ready": False}
    evals = [0]

    def pred():
        evals[0] += 1
        return box["ready"]

    async def prog(rank):
        if rank == 0:
            await s.block(0, predicate=pred, reason="channelled", channels=(ch,))
        else:
            # Plenty of handoffs that must NOT re-evaluate the predicate.
            for _ in range(20):
                s.clocks[rank].advance(5)
                await s.yield_pe(rank)
            if rank == 1:
                box["ready"] = True
                ch.notify()
                await s.yield_pe(1)

    s.run(prog)
    assert box["ready"]
    # One evaluation at block entry, one after the single notify.  (The
    # linear oracle would have evaluated it at every selection — dozens.)
    assert evals[0] == 2


def test_unchannelled_block_keeps_conservative_behaviour():
    s = CoopScheduler(2)
    evals = [0]
    box = {"ready": False}

    def pred():
        evals[0] += 1
        return box["ready"]

    async def prog(rank):
        if rank == 0:
            await s.block(0, predicate=pred, reason="unchannelled")
        else:
            for _ in range(5):
                s.clocks[1].advance(5)
                await s.yield_pe(1)
            box["ready"] = True
            await s.yield_pe(1)

    s.run(prog)
    # Evaluated at (nearly) every handoff — the safety fallback.
    assert evals[0] >= 5


def test_event_firing_dirties_channelled_waiters():
    """A crash changes which waits can end, so its firing must re-dirty
    even channel-registered waiters whose channel nobody notified (the
    end-to-end form is test_crash_unblocks_channelled_collective_waiters)."""
    s = CoopScheduler(2)
    ch = s.channel()  # never notified

    async def prog(rank):
        await s.block(rank, predicate=lambda: 1 in s.crashed, reason="via crash",
                channels=(ch,))

    s.schedule_crash(1, 400)
    with pytest.raises(PECrashed):
        s.run(prog)  # PE 0 finishes only if the firing re-examined it
    assert s._pes[0].state is PEState.DONE


def test_crash_unblocks_channelled_collective_waiters(core, monkeypatch):
    """End to end: a PE blocked on a collective (channelled wait) must
    observe a participant's crash and fail attributably, not deadlock."""
    from repro.hclib.world import run_spmd

    use_scheduler(monkeypatch, core)
    plan = FaultPlan(crashes=(CrashFault(1, 1),))

    async def program(ctx):
        if ctx.rank == 1:
            # A scheduling point before the barrier: the crash fires here,
            # so PE 1 never arrives and the waiters must detect it.
            ctx.compute(ins=100_000)
            await ctx.yield_pe()
        await ctx.shmem.barrier_all()

    with pytest.raises(PEFailure) as ei:
        run_spmd(program, machine=MachineSpec(nodes=1, pes_per_node=4),
                 fault_plan=plan)
    assert "can never complete" in str(ei.value)


# ---------------------------------------------------------------------------
# Differential: production scheduler vs the linear oracle
# ---------------------------------------------------------------------------


def _run_histogram(monkeypatch, core, policy=None):
    use_scheduler(monkeypatch, core)
    machine = MachineSpec(nodes=2, pes_per_node=2)
    res = histogram(200, 32, machine, seed=0, schedule_policy=policy)
    return res.per_pe_received, res.run.clocks


def test_cores_agree_on_histogram_default_policy(monkeypatch):
    a = _run_histogram(monkeypatch, CoopScheduler)
    b = _run_histogram(monkeypatch, LinearScheduler)
    assert a == b


@pytest.mark.parametrize("index", [1, 2])
def test_cores_agree_under_jittered_policies(monkeypatch, index):
    """The tie_break/flush_order RNG consumption sequence — which depends
    on exactly when and with which candidate sets the policy is invoked —
    must be identical across cores."""
    schedules = make_schedules(0, index + 1)
    a = _run_histogram(monkeypatch, CoopScheduler, policy=schedules[index].policy())
    b = _run_histogram(monkeypatch, LinearScheduler, policy=schedules[index].policy())
    assert a == b


def test_default_policy_never_calls_tie_break(monkeypatch):
    """Under the base tie_break the lowest tied rank is argmin's first
    minimum, so the indexed core returns it without asking the policy;
    the linear oracle asks on every tie and runs the same schedule."""
    calls = []
    real = SchedulePolicy.tie_break

    def spy(self, time, ranks):
        calls.append(list(ranks))
        return real(self, time, ranks)

    monkeypatch.setattr(SchedulePolicy, "tie_break", spy)
    indexed = _run_histogram(monkeypatch, CoopScheduler)
    assert calls == []
    assert _run_histogram(monkeypatch, LinearScheduler) == indexed
    assert any(len(ranks) > 2 for ranks in calls)  # real ties happened


class _Recording:
    """Mixin: log every tie_break question before answering it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def tie_break(self, time, ranks):
        assert all(type(r) is int for r in ranks)
        self.asked.append((time, list(ranks)))
        return super().tie_break(time, ranks)


class _RecordingJitter(_Recording, JitterPolicy):
    pass


class _RecordingNonCandidate(_Recording, _NonCandidatePolicy):
    pass


def test_custom_policies_see_the_same_ties_on_both_cores(monkeypatch):
    asked = {}
    for name, core in CORES.items():
        policy = _RecordingJitter(0, 1)
        _run_histogram(monkeypatch, core, policy=policy)
        asked[name] = policy.asked
    assert asked["indexed"] == asked["linear"]
    assert len(asked["indexed"]) > 1
    for name, core in CORES.items():
        policy = _RecordingNonCandidate()
        with pytest.raises(PEFailure):
            core(3, policy=policy).run(idle)
        asked[name] = policy.asked
    assert asked["indexed"] == asked["linear"] == [(0, [0, 1, 2])]


def test_cores_agree_under_crash_plan(monkeypatch):
    """Crashes (the only scheduled futures) must produce the same degraded
    outcome on both cores — two crashes, under a jittered tie-break."""
    from repro.hclib.world import run_spmd

    plan = FaultPlan(crashes=(CrashFault(2, 50_000), CrashFault(1, 80_000)))
    machine = MachineSpec(nodes=1, pes_per_node=4)

    def run_one(core):
        trail = []

        async def program(ctx):
            for _ in range(100):
                ctx.compute(ins=1_000, loads=200, stores=100)
                await ctx.yield_pe()
                trail.append((ctx.rank, ctx.scheduler.now(ctx.rank)))

        use_scheduler(monkeypatch, core)
        with pytest.raises(PECrashed) as ei:
            run_spmd(program, machine=machine, fault_plan=plan,
                     schedule_policy=make_schedules(0, 2)[1].policy())
        return str(ei.value), trail

    indexed = run_one(CoopScheduler)
    assert indexed == run_one(LinearScheduler)
    assert "PE 1" in indexed[0] and "PE 2" in indexed[0]
