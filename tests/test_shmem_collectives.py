"""Tests for simulated OpenSHMEM collectives."""

import numpy as np
import pytest

from repro.machine import MachineSpec
from repro.shmem import ShmemRuntime
from repro.sim import CoopScheduler, PEFailure


def run_spmd(spec, body):
    sched = CoopScheduler(spec.n_pes)
    rt = ShmemRuntime(sched, spec)
    sched.run(lambda rank: body(rt.contexts[rank]))
    return rt, sched


def test_barrier_aligns_clocks():
    async def body(ctx):
        ctx.perf.stall(ctx.my_pe * 1000)
        await ctx.barrier_all()

    _, sched = run_spmd(MachineSpec(1, 4), body)
    assert len({c.now for c in sched.clocks}) == 1


def test_barrier_release_is_after_last_arrival():
    times = {}

    async def body(ctx):
        ctx.perf.stall(ctx.my_pe * 1000)
        await ctx.barrier_all()
        times[ctx.my_pe] = ctx.perf.clock.now

    run_spmd(MachineSpec(1, 4), body)
    assert min(times.values()) >= 3000


def test_allreduce_sum():
    out = {}

    async def body(ctx):
        out[ctx.my_pe] = await ctx.allreduce(ctx.my_pe + 1, "sum")

    run_spmd(MachineSpec(1, 4), body)
    assert set(out.values()) == {10}


def test_allreduce_max_min():
    out = {}

    async def body(ctx):
        out[ctx.my_pe] = (await ctx.allreduce(ctx.my_pe, "max"),
                          await ctx.allreduce(ctx.my_pe, "min"))

    run_spmd(MachineSpec(2, 2), body)
    assert set(out.values()) == {(3, 0)}


def test_allreduce_arrays():
    out = {}

    async def body(ctx):
        v = np.full(3, ctx.my_pe, dtype=np.int64)
        out[ctx.my_pe] = (await ctx.allreduce(v, "sum")).tolist()

    run_spmd(MachineSpec(1, 3), body)
    assert all(v == [3, 3, 3] for v in out.values())


def test_allreduce_unknown_op_rejected():
    with pytest.raises(PEFailure):
        run_spmd(MachineSpec(1, 2), lambda ctx: ctx.allreduce(1, "xor"))


def test_broadcast_from_nonzero_root():
    out = {}

    async def body(ctx):
        val = {"payload": 42} if ctx.my_pe == 2 else None
        out[ctx.my_pe] = await ctx.broadcast(val, root=2)

    run_spmd(MachineSpec(1, 4), body)
    assert all(v == {"payload": 42} for v in out.values())


def test_alltoall_exchanges_columns():
    out = {}

    async def body(ctx):
        contrib = [ctx.my_pe * 10 + j for j in range(ctx.n_pes)]
        out[ctx.my_pe] = await ctx.alltoall(contrib)

    run_spmd(MachineSpec(1, 3), body)
    # PE p receives [j*10 + p for each source j]
    assert out[0] == [0, 10, 20]
    assert out[1] == [1, 11, 21]
    assert out[2] == [2, 12, 22]


def test_alltoall_wrong_length_rejected():
    with pytest.raises(PEFailure):
        run_spmd(MachineSpec(1, 2), lambda ctx: ctx.alltoall([1]))


def test_mismatched_collectives_detected():
    async def body(ctx):
        if ctx.my_pe == 0:
            await ctx.barrier_all()
        else:
            await ctx.allreduce(1, "sum")

    with pytest.raises(PEFailure):
        run_spmd(MachineSpec(1, 2), body)


def test_sequential_collectives_keep_working():
    out = {}

    async def body(ctx):
        total = 0
        for i in range(5):
            total += await ctx.allreduce(i, "sum")
        await ctx.barrier_all()
        out[ctx.my_pe] = total

    run_spmd(MachineSpec(1, 3), body)
    # each round i: sum over PEs = 3*i → total = 3*(0+1+2+3+4) = 30
    assert set(out.values()) == {30}
