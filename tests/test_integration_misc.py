"""Cross-cutting integration scenarios: nesting, mixing, edge shapes."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.hclib import Actor, Selector, run_spmd
from repro.machine import MachineSpec
from repro.sim import PEFailure


class Inc(Actor):
    def __init__(self, ctx, arr):
        super().__init__(ctx)
        self.arr = arr

    def process(self, idx, sender):
        self.arr[idx] += 1


def test_nested_finish_scopes():
    """An inner finish completes before the outer body continues."""

    async def program(ctx):
        outer = np.zeros(4, dtype=np.int64)
        inner = np.zeros(4, dtype=np.int64)
        a_out = Inc(ctx, outer)
        async with ctx.finish():
            a_out.start()
            a_out.send(0, (ctx.my_pe + 1) % ctx.n_pes)
            a_in = Inc(ctx, inner)
            async with ctx.finish():
                a_in.start()
                a_in.send(1, (ctx.my_pe + 2) % ctx.n_pes)
                a_in.done()
            # inner messages are fully processed here
            inner_done = int(inner.sum()) + 0  # local view only
            a_out.send(2, (ctx.my_pe + 3) % ctx.n_pes)
            a_out.done()
        return (int(outer.sum()), int(inner.sum()), inner_done)

    res = run_spmd(program, machine=MachineSpec(1, 4))
    outer_total = sum(r[0] for r in res.results)
    inner_total = sum(r[1] for r in res.results)
    assert outer_total == 8  # two sends per PE
    assert inner_total == 4


def test_nested_finish_profiling_counts_outer_span_once():
    ap = ActorProf(ProfileFlags.all())

    async def program(ctx):
        arr = np.zeros(4, dtype=np.int64)
        a = Inc(ctx, arr)
        async with ctx.finish():
            a.start()
            a.send(0, (ctx.my_pe + 1) % ctx.n_pes)
            b = Inc(ctx, arr)
            async with ctx.finish():
                b.start()
                b.send(1, ctx.my_pe)
                b.done()
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(1, 2), profiler=ap)
    ov = ap.overall
    # total == main + comm + proc (identity survives nesting)
    assert np.array_equal(ov.t_main + ov.t_comm() + ov.t_proc, ov.t_total)
    assert (ov.t_comm() >= 0).all()
    # exactly one FINISH-sized total per PE (not inner+outer double count)
    assert (ov.t_total > 0).all()


def test_two_selectors_in_one_finish():
    async def program(ctx):
        a_arr = np.zeros(4, dtype=np.int64)
        b_arr = np.zeros(4, dtype=np.int64)
        a = Inc(ctx, a_arr)
        b = Inc(ctx, b_arr)
        async with ctx.finish():
            a.start()
            b.start()
            for i in range(6):
                a.send(i % 4, (ctx.my_pe + i) % ctx.n_pes)
                b.send(i % 4, (ctx.my_pe + 2 * i) % ctx.n_pes)
            a.done()
            b.done()
        return int(a_arr.sum()) + int(b_arr.sum())

    res = run_spmd(program, machine=MachineSpec(2, 2))
    assert sum(res.results) == 6 * 2 * 4


def test_single_pe_machine_works_end_to_end():
    async def program(ctx):
        arr = np.zeros(4, dtype=np.int64)
        a = Inc(ctx, arr)
        async with ctx.finish():
            a.start()
            for i in range(10):
                a.send(i % 4, 0)  # everything is a self-send
            a.done()
        return int(arr.sum())

    res = run_spmd(program, machine=MachineSpec(1, 1))
    assert res.results == [10]


def test_empty_finish_with_started_actor():
    """start + done with zero sends still terminates cleanly."""

    async def program(ctx):
        a = Inc(ctx, np.zeros(2, dtype=np.int64))
        async with ctx.finish():
            a.start()
            a.done()
        return "ok"

    res = run_spmd(program, machine=MachineSpec(2, 4))
    assert res.results == ["ok"] * 8


def test_finish_without_selectors():
    async def program(ctx):
        async with ctx.finish():
            ctx.compute(ins=100)
        return ctx.perf.clock.now

    res = run_spmd(program, machine=MachineSpec(1, 2))
    assert all(c >= 100 for c in res.results)


def test_exception_in_finish_body_propagates():
    async def program(ctx):
        a = Inc(ctx, np.zeros(2, dtype=np.int64))
        async with ctx.finish():
            a.start()
            raise RuntimeError("user bug")

    with pytest.raises(PEFailure) as ei:
        run_spmd(program, machine=MachineSpec(1, 2))
    assert isinstance(ei.value.__cause__, RuntimeError)


def test_exception_in_handler_propagates():
    class Bad(Actor):
        def process(self, payload, sender):
            raise ValueError("handler bug")

    async def program(ctx):
        a = Bad(ctx)
        async with ctx.finish():
            a.start()
            a.send(1, (ctx.my_pe + 1) % ctx.n_pes)
            a.done()

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_uneven_send_counts_terminate():
    """Only PE0 sends; the others just drain."""

    async def program(ctx):
        arr = np.zeros(4, dtype=np.int64)
        a = Inc(ctx, arr)
        async with ctx.finish():
            a.start()
            if ctx.my_pe == 0:
                for i in range(40):
                    a.send(i % 4, i % ctx.n_pes)
            a.done()
        return int(arr.sum())

    res = run_spmd(program, machine=MachineSpec(2, 4))
    assert sum(res.results) == 40


def test_wide_payloads_roundtrip():
    """4-word payloads flow through send/process intact."""
    got = {}

    async def program(ctx):
        s = Selector(ctx, mailboxes=1, payload_words=4)
        s.mb[0].process = lambda p, src: got.setdefault(ctx.my_pe, []).append((p, src))
        async with ctx.finish():
            s.start()
            s.send(0, (1, 2, 3, ctx.my_pe), (ctx.my_pe + 1) % ctx.n_pes)
            s.done(0)
        return True

    run_spmd(program, machine=MachineSpec(1, 3))
    assert got[1] == [((1, 2, 3, 0), 0)]


def test_interleaved_shmem_and_actor_use():
    """Collectives between finishes and puts after finishes coexist."""

    async def program(ctx):
        arr = ctx.shmem.malloc(4, np.int64)
        larr = np.zeros(4, dtype=np.int64)
        a = Inc(ctx, larr)
        await ctx.barrier()
        async with ctx.finish():
            a.start()
            a.send(ctx.my_pe % 4, (ctx.my_pe + 1) % ctx.n_pes)
            a.done()
        ctx.shmem.put(arr, [int(larr.sum())], 0, offset=ctx.my_pe)
        await ctx.barrier()
        if ctx.my_pe == 0:
            return int(ctx.shmem.mine(arr).sum())
        return 0

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert res.results[0] == 4
