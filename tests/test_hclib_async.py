"""Tests for hclib async tasks (the AMT half of HClib)."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec
from repro.sim import PEFailure


class Inc(Actor):
    def __init__(self, ctx, arr):
        super().__init__(ctx)
        self.arr = arr

    def process(self, idx, sender):
        self.arr[idx] += 1


def test_async_runs_before_finish_exits():
    async def program(ctx):
        ran = []
        async with ctx.finish():
            ctx.async_(lambda: ran.append("task"))
            ran.append("body")
        ran.append("after")
        return ran

    res = run_spmd(program, machine=MachineSpec(1, 2))
    assert all(r == ["body", "task", "after"] for r in res.results)


def test_async_fifo_order():
    async def program(ctx):
        order = []
        async with ctx.finish():
            for i in range(5):
                ctx.async_(lambda i=i: order.append(i))
        return order

    res = run_spmd(program, machine=MachineSpec(1, 2))
    assert all(r == [0, 1, 2, 3, 4] for r in res.results)


def test_async_tasks_can_spawn_tasks():
    async def program(ctx):
        depth = []

        def spawn(level):
            depth.append(level)
            if level < 3:
                ctx.async_(lambda: spawn(level + 1))

        async with ctx.finish():
            ctx.async_(lambda: spawn(0))
        return depth

    res = run_spmd(program, machine=MachineSpec(1, 2))
    assert all(r == [0, 1, 2, 3] for r in res.results)


def test_async_idiom_sends_and_done():
    """The HClib idiom: the whole send loop lives inside an async task."""

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = Inc(ctx, arr)

        def send_all():
            for i in range(20):
                a.send(i % 8, (ctx.my_pe + i) % ctx.n_pes)
            a.done()

        async with ctx.finish():
            a.start()
            ctx.async_(send_all)
        return int(arr.sum())

    res = run_spmd(program, machine=MachineSpec(2, 2))
    assert sum(res.results) == 20 * 4


def test_handler_spawned_tasks_run_within_finish():
    async def program(ctx):
        arr = np.zeros(4, dtype=np.int64)
        followups = []

        class A(Actor):
            def process(self, idx, sender):
                arr[idx] += 1
                ctx.async_(lambda: followups.append(int(idx)))

        a = A(ctx)
        async with ctx.finish():
            a.start()
            a.send(ctx.my_pe % 4, (ctx.my_pe + 1) % ctx.n_pes)
            a.done()
        return len(followups)

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert res.results == [1, 1, 1, 1]


def test_async_outside_finish_rejected():
    async def program(ctx):
        ctx.async_(lambda: None)

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_async_registers_with_innermost_finish():
    async def program(ctx):
        order = []
        async with ctx.finish():
            ctx.async_(lambda: order.append("outer-task"))
            async with ctx.finish():
                ctx.async_(lambda: order.append("inner-task"))
            order.append("between")
        return order

    res = run_spmd(program, machine=MachineSpec(1, 2))
    # the inner task completes before the inner finish exits
    assert all(r == ["inner-task", "between", "outer-task"] for r in res.results)


def test_async_task_time_counts_as_main():
    ap = ActorProf(ProfileFlags(enable_tcomm_profiling=True))

    async def program(ctx):
        async with ctx.finish():
            ctx.async_(lambda: ctx.compute(ins=5000))
        return True

    run_spmd(program, machine=MachineSpec(1, 2), profiler=ap)
    assert (ap.overall.t_main >= 5000).all()
    total = ap.overall.t_main + ap.overall.t_comm() + ap.overall.t_proc
    assert np.array_equal(total, ap.overall.t_total)


def test_async_exception_propagates():
    async def program(ctx):
        async with ctx.finish():
            ctx.async_(lambda: (_ for _ in ()).throw(ValueError("task bug")))

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))
