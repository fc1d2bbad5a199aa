"""Unit and integration tests for the simulated OpenSHMEM runtime."""

import numpy as np
import pytest

from repro.machine import CostModel, MachineSpec
from repro.shmem import ShmemRuntime
from repro.sim import CoopScheduler, PEFailure
from repro.sim.errors import SimulationError


def run_spmd(spec: MachineSpec, body, *, log_calls=False, cost=None):
    """Run an SPMD body over a fresh shmem runtime; returns the runtime."""
    sched = CoopScheduler(spec.n_pes)
    rt = ShmemRuntime(sched, spec, cost=cost, log_calls=log_calls)
    sched.run(lambda rank: body(rt.contexts[rank]))
    return rt


def test_spec_mismatch_rejected():
    with pytest.raises(ValueError):
        ShmemRuntime(CoopScheduler(3), MachineSpec(1, 4))


def test_identity_properties():
    seen = {}

    async def body(ctx):
        seen[ctx.my_pe] = ctx.n_pes

    run_spmd(MachineSpec(1, 4), body)
    assert seen == {0: 4, 1: 4, 2: 4, 3: 4}


def test_put_writes_remote_array():
    out = {}

    async def body(ctx):
        arr = ctx.malloc(ctx.n_pes, np.int64)
        await ctx.barrier_all()
        ctx.put(arr, [ctx.my_pe * 10], 0, offset=ctx.my_pe)
        await ctx.barrier_all()
        if ctx.my_pe == 0:
            out["data"] = ctx.mine(arr).tolist()

    run_spmd(MachineSpec(1, 4), body)
    assert out["data"] == [0, 10, 20, 30]


def test_get_reads_remote_array():
    out = {}

    async def body(ctx):
        arr = ctx.malloc(4, np.int64)
        ctx.mine(arr)[:] = ctx.my_pe + 1
        await ctx.barrier_all()
        if ctx.my_pe == 3:
            out["got"] = ctx.get(arr, 1).tolist()

    run_spmd(MachineSpec(2, 2), body)
    assert out["got"] == [2, 2, 2, 2]


def test_putmem_nbi_then_quiet_waits_for_completion():
    waits = {}

    async def body(ctx):
        arr = ctx.malloc(64, np.int64)
        await ctx.barrier_all()
        if ctx.my_pe == 0:
            before = ctx.perf.clock.now
            ctx.putmem_nbi(arr, np.arange(64), 3, offset=0)
            issue_done = ctx.perf.clock.now
            waited = ctx.quiet()
            waits["issue"] = issue_done - before
            waits["waited"] = waited
            waits["pending_after"] = len(ctx.runtime._pending_nbi[ctx.rank])
        await ctx.barrier_all()

    rt = run_spmd(MachineSpec(2, 2), body)
    # Non-blocking issue is much cheaper than the transfer itself.
    assert waits["issue"] < rt.cost.net_transfer_cycles(64 * 8)
    assert waits["waited"] > 0
    assert waits["pending_after"] == 0


def test_quiet_with_nothing_pending_is_cheap():
    out = {}

    async def body(ctx):
        if ctx.my_pe == 0:
            out["waited"] = ctx.quiet()

    run_spmd(MachineSpec(1, 2), body)
    assert out["waited"] == 0


def test_nbi_put_data_lands():
    out = {}

    async def body(ctx):
        arr = ctx.malloc(4, np.int64)
        await ctx.barrier_all()
        if ctx.my_pe == 1:
            ctx.putmem_nbi(arr, [9, 9, 9, 9], 0)
            ctx.quiet()
        await ctx.barrier_all()
        if ctx.my_pe == 0:
            out["data"] = ctx.mine(arr).tolist()

    run_spmd(MachineSpec(1, 2), body)
    assert out["data"] == [9, 9, 9, 9]


def test_call_log_records_operations():
    async def body(ctx):
        arr = ctx.malloc(2, np.int64)
        await ctx.barrier_all()
        ctx.put(arr, [1], (ctx.my_pe + 1) % ctx.n_pes)
        await ctx.barrier_all()

    rt = run_spmd(MachineSpec(1, 2), body, log_calls=True)
    ops = [c.op for c in rt.calls]
    assert "shmem_put" in ops
    assert "shmem_barrier_all" in ops


def test_call_log_disabled_by_default():
    async def body(ctx):
        await ctx.barrier_all()

    rt = run_spmd(MachineSpec(1, 2), body)
    assert rt.calls == []


def test_fence_charges_and_logs():
    async def body(ctx):
        ctx.fence()

    rt = run_spmd(MachineSpec(1, 2), body, log_calls=True)
    assert sum(1 for c in rt.calls if c.op == "shmem_fence") == 2


def test_local_memcpy_charges_cycles():
    out = {}

    async def body(ctx):
        t0 = ctx.perf.clock.now
        ctx.local_memcpy(4096)
        out[ctx.my_pe] = ctx.perf.clock.now - t0

    rt = run_spmd(MachineSpec(1, 1), body)
    assert out[0] == rt.cost.memcpy_cycles(4096)
