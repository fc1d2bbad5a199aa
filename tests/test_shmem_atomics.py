"""Tests for SHMEM atomics, wait_until and exscan."""

import numpy as np
import pytest

from repro.machine import MachineSpec
from repro.shmem import ShmemRuntime
from repro.sim import CoopScheduler, PEFailure


def run_spmd(spec, body):
    sched = CoopScheduler(spec.n_pes)
    rt = ShmemRuntime(sched, spec)
    sched.run(lambda rank: body(rt.contexts[rank]))
    return rt


def test_atomic_fetch_add_returns_unique_slots():
    out = {}

    async def body(ctx):
        counter = ctx.malloc(1, np.int64)
        await ctx.barrier_all()
        slot = ctx.atomic_fetch_add(counter, 1, 0)
        out[ctx.my_pe] = slot
        await ctx.barrier_all()

    run_spmd(MachineSpec(1, 4), body)
    # fetch-add hands out distinct consecutive slots
    assert sorted(out.values()) == [0, 1, 2, 3]


def test_wait_until_unblocks_on_remote_put():
    out = {}

    async def body(ctx):
        flag = ctx.malloc(1, np.int64)
        if ctx.my_pe == 0:
            await ctx.wait_until(flag, 0, lambda v: v == 42)
            out["seen"] = int(ctx.mine(flag)[0])
        else:
            ctx.perf.stall(5000)
            ctx.put(flag, [42], 0)

    run_spmd(MachineSpec(1, 2), body)
    assert out["seen"] == 42


def test_wait_until_with_atomic_signal():
    async def body(ctx):
        arrived = ctx.malloc(1, np.int64)
        await ctx.barrier_all()
        ctx.atomic_fetch_add(arrived, 1, 0)
        if ctx.my_pe == 0:
            await ctx.wait_until(arrived, 0, lambda v: v >= ctx.n_pes)
        await ctx.barrier_all()

    run_spmd(MachineSpec(2, 2), body)  # completes without deadlock


def test_exscan_sum():
    out = {}

    async def body(ctx):
        out[ctx.my_pe] = await ctx.exscan(ctx.my_pe + 1)

    run_spmd(MachineSpec(1, 4), body)
    # values 1,2,3,4 → exclusive prefixes 0,1,3,6
    assert out == {0: 0, 1: 1, 2: 3, 3: 6}


def test_exscan_slot_assignment_idiom():
    """The bale idiom: exscan of per-PE counts gives global offsets."""
    out = {}

    async def body(ctx):
        my_count = (ctx.my_pe % 3) + 1
        offset = await ctx.exscan(my_count)
        total = await ctx.allreduce(my_count, "sum")
        out[ctx.my_pe] = (offset, my_count, total)

    run_spmd(MachineSpec(1, 5), body)
    # offsets tile [0, total) without overlap
    covered = []
    for off, cnt, total in out.values():
        covered.extend(range(off, off + cnt))
    assert sorted(covered) == list(range(out[0][2]))


def test_exscan_rejects_other_ops():
    with pytest.raises(PEFailure):
        run_spmd(MachineSpec(1, 2), lambda ctx: ctx.exscan(1, op="max"))
