"""SPMD programs are coroutines driven by one scheduler loop.

Two groups:

* misuse fails loudly — a plain-function program is a
  :class:`SimulationError` naming the PE, and a dropped ``await`` on a
  collective leaves a never-awaited coroutine, which the ``pyproject``
  warning filters turn into a test failure;
* crashes and failures unwind at a fixed point — a crashed PE's
  coroutine is closed (its ``finally`` blocks run) before any other PE
  resumes, and a failing PE's peers are closed in rank order.
"""

import gc
import hashlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.cli import main as cli_main
from repro.hclib import Actor, run_spmd
from repro.hclib.hooks import NullHooks
from repro.hclib.world import World
from repro.machine import MachineSpec
from repro.sim import CoopScheduler, PECrashed, PEFailure
from repro.sim.errors import SimulationError
from repro.sim.scheduler import PEState

REPO = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Misuse fails loudly
# ---------------------------------------------------------------------------


def test_plain_function_program_is_named():
    def program(ctx):  # missing `async`
        return ctx.rank

    with pytest.raises(SimulationError, match=r"PE 0: .*`async def`"):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_non_coroutine_on_a_later_pe_closes_the_earlier_ones():
    async def program(ctx):
        return ctx.rank

    def entry(rank):
        return program(None) if rank < 2 else None

    with pytest.raises(SimulationError, match="PE 2: the program returned NoneType"):
        CoopScheduler(3).run(entry)
    gc.collect()  # PEs 0-1's coroutines were closed: no never-awaited warning


def test_dropped_await_on_allreduce_warns():
    async def program(ctx):
        return ctx.shmem.allreduce(ctx.rank, "sum")  # missing `await`

    with pytest.warns(RuntimeWarning, match="allreduce' was never awaited"):
        res = run_spmd(program, machine=MachineSpec(1, 2))
        assert all(inspect.iscoroutine(r) for r in res.results)
        del res
        gc.collect()


def test_dropped_await_fails_the_test_suite(tmp_path):
    """The ``pyproject`` warning filters make a never-awaited coroutine a
    failure even though it is only reported from a finalizer."""
    test = tmp_path / "test_dropped.py"
    test.write_text(textwrap.dedent("""
        from repro.hclib import run_spmd
        from repro.machine import MachineSpec

        def test_dropped():
            async def program(ctx):
                ctx.shmem.allreduce(ctx.rank, "sum")  # missing `await`

            run_spmd(program, machine=MachineSpec(1, 2))
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(test)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "was never awaited" in proc.stdout


# ---------------------------------------------------------------------------
# Crash and failure unwinding
# ---------------------------------------------------------------------------


def test_crash_inside_the_victims_own_selection_unwinds_cleanly():
    """PE 1 runs the selection that fires its own crash: it parks, and the
    loop closes it — its ``finally`` runs — before PE 0 resumes."""
    s = CoopScheduler(2)
    log = []
    turn = [None]

    async def prog(rank):
        turn[0] = rank
        if rank == 0:
            await s.block(0, predicate=lambda: False, wakeup_time=10_000,
                          reason="nap")
            log.append("pe0 resumed")
            return
        try:
            s.clocks[1].advance(500)
            await s.yield_pe(1)
            log.append("victim ran on")  # never: the crash killed it
        finally:
            log.append("victim unwound")

    s.schedule_crash(1, 100, on_crash=lambda r, t: log.append(("crash", turn[0])))
    with pytest.raises(PECrashed) as ei:
        s.run(prog)
    assert ei.value.rank == 1
    assert log == [("crash", 1), "victim unwound", "pe0 resumed"]
    assert s.states() == [PEState.DONE, PEState.CRASHED]
    assert s.clocks[1].now == 500  # the crash cycle is behind its clock


class _Log(NullHooks):
    def __init__(self, log):
        self.log = log

    def finish_start(self, pe):
        self.log.append(("finish_start", pe))

    def finish_end(self, pe):
        self.log.append(("finish_end", pe))


class _Sink(Actor):
    def process(self, payload, sender):
        pass


def test_crash_blocked_in_finish_drain_ends_its_finish_first():
    """PE 1 is parked in its finish drain when PE 0's selection fires the
    crash and hands control to PE 2: PE 1's ``finish_end`` runs before
    PE 2 resumes (and opens its own finish)."""
    log = []
    world = World(MachineSpec(1, 3), hooks=_Log(log))

    async def program(ctx):
        if ctx.rank == 0:
            ctx.compute(ins=10)            # still behind the crash cycle
            await ctx.yield_pe()
            ctx.compute(ins=1_000_000)     # past PE 2's wakeup
            await ctx.yield_pe()           # this selection fires the crash
        elif ctx.rank == 2:
            await ctx.scheduler.block(2, wakeup_time=20_000, reason="nap")
        actor = _Sink(ctx)
        async with ctx.finish():
            actor.start()
            actor.done()                   # PE 1 then idles in its drain

    world.scheduler.schedule_crash(
        1, 10_000, on_crash=lambda r, t: log.append(("crash", r)))
    with pytest.raises(PECrashed):
        world.run(program)
    crash = log.index(("crash", 1))
    assert log[crash:crash + 3] == [("crash", 1), ("finish_end", 1),
                                    ("finish_start", 2)]
    assert log.count(("finish_end", 1)) == 1
    assert world.scheduler.states() == [PEState.DONE, PEState.CRASHED,
                                        PEState.DONE]


def test_failure_closes_every_suspended_pe_in_rank_order():
    s = CoopScheduler(4)
    closed = []

    async def prog(rank):
        try:
            if rank == 2:
                raise ValueError("boom")
            await s.block(rank, predicate=lambda: False, reason="forever")
        finally:
            closed.append(rank)

    with pytest.raises(PEFailure) as ei:
        s.run(prog)
    assert ei.value.rank == 2
    assert isinstance(ei.value.__cause__, ValueError)
    # PE 2 unwound by raising; the loop then closed the parked 0 and 1
    # in rank order, and 3 (never started) without running it
    assert closed == [2, 0, 1]


#: sha256 of ``actorprof run histogram --fault-plan P -o OUT`` where P is
#: ``actorprof faults template P --crash 1:50000`` (all other defaults).
CRASH_SALVAGE_SHA256 = (
    "10055117fdd2cbe4e9d05f37402aa7b4826f39ea300a5043dcd30425b27c3e85")


def test_crash_salvage_is_byte_stable_within_one_process(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    assert cli_main(["faults", "template", str(plan), "--crash", "1:50000"]) == 0
    digests = []
    for i in range(5):
        out = tmp_path / f"crashed{i}.aptrc"
        assert cli_main(["run", "histogram", "--fault-plan", str(plan),
                         "-o", str(out)]) == 3
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert digests == [CRASH_SALVAGE_SHA256] * 5


def test_no_threads_are_started(monkeypatch):
    """The loop runs every PE on the calling thread."""
    import threading

    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name))
    seen = set()

    async def program(ctx):
        seen.add(threading.get_ident())
        await ctx.barrier()
        seen.add(threading.get_ident())
        return ctx.rank

    res = run_spmd(program, machine=MachineSpec(2, 4))
    assert res.results == list(range(8))
    assert started == [] and seen == {threading.get_ident()}
