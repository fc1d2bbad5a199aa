"""Tests for guarded mailboxes (the Selector model's defining feature)."""

import numpy as np
import pytest

from repro.hclib import Selector, run_spmd
from repro.machine import MachineSpec
from repro.sim import PEFailure


def test_guard_defers_processing_until_enabled():
    """Mailbox 1 only processes after mailbox 0's 'header' arrived —
    the classic guarded-mailbox ordering idiom."""
    order = {}

    async def program(ctx):
        log = []
        state = {"header_seen": False}
        s = Selector(ctx, mailboxes=2, payload_words=1)

        def on_header(payload, src):
            state["header_seen"] = True
            log.append(("header", payload))

        def on_data(payload, src):
            # the guard guarantees the header was processed first
            assert state["header_seen"]
            log.append(("data", payload))

        s.mb[0].process = on_header
        s.mb[1].process = on_data
        s.mb[1].guard = lambda: state["header_seen"]
        async with ctx.finish():
            s.start()
            # send data BEFORE the header: guard must hold it back
            s.send(1, 100 + ctx.my_pe, (ctx.my_pe + 1) % ctx.n_pes)
            s.send(0, 7, (ctx.my_pe + 1) % ctx.n_pes)
            s.done(0)
            s.done(1)
        order[ctx.my_pe] = log
        return len(log)

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert res.results == [2] * 4
    for log in order.values():
        assert log[0][0] == "header"
        assert log[1][0] == "data"


def test_guard_true_behaves_like_no_guard():
    counts = {}

    async def program(ctx):
        n = [0]
        s = Selector(ctx, mailboxes=1, payload_words=1)
        s.mb[0].process = lambda p, src: n.__setitem__(0, n[0] + 1)
        s.mb[0].guard = lambda: True
        async with ctx.finish():
            s.start()
            for i in range(5):
                s.send(0, i, (ctx.my_pe + i) % ctx.n_pes)
            s.done(0)
        counts[ctx.my_pe] = n[0]
        return n[0]

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert sum(res.results) == 20


def test_guard_flipped_by_remote_put_unblocks_drain():
    """A guard over a symmetric flag written by another PE wakes the
    blocked drain when the put lands."""

    async def program(ctx):
        flag = ctx.shmem.malloc(1, np.int64)
        handled = [0]
        s = Selector(ctx, mailboxes=1, payload_words=1)
        s.mb[0].process = lambda p, src: handled.__setitem__(0, handled[0] + 1)
        s.mb[0].guard = lambda: int(ctx.shmem.mine(flag)[0]) == 1
        async with ctx.finish():
            s.start()
            s.send(0, 1, (ctx.my_pe + 1) % ctx.n_pes)
            s.done(0)
            # enable everyone's guard from MAIN (before drain blocks)
            ctx.shmem.put(flag, [1], (ctx.my_pe + 1) % ctx.n_pes)
        return handled[0]

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert sum(res.results) == 4


def test_permanently_false_guard_deadlocks_cleanly():
    async def program(ctx):
        s = Selector(ctx, mailboxes=1, payload_words=1)
        s.mb[0].process = lambda p, src: None
        s.mb[0].guard = lambda: False
        async with ctx.finish():
            s.start()
            s.send(0, 1, (ctx.my_pe + 1) % ctx.n_pes)
            s.done(0)

    with pytest.raises(PEFailure) as ei:
        run_spmd(program, machine=MachineSpec(1, 2))
    assert "deadlock" in str(ei.value).lower()


def test_guard_with_batch_handler():
    async def program(ctx):
        total = [0]
        gate = [False]
        s = Selector(ctx, mailboxes=2, payload_words=1)
        s.mb[0].process = lambda p, src: gate.__setitem__(0, True)
        s.mb[1].process_batch = lambda payloads, srcs: total.__setitem__(
            0, total[0] + len(payloads))
        s.mb[1].guard = lambda: gate[0]
        async with ctx.finish():
            s.start()
            dsts = np.arange(8) % ctx.n_pes
            s.send_batch(1, dsts, np.zeros(8, dtype=np.int64))
            s.send(0, 1, (ctx.my_pe + 1) % ctx.n_pes)
            s.done(0)
            s.done(1)
        return total[0]

    res = run_spmd(program, machine=MachineSpec(2, 2))
    assert sum(res.results) == 8 * 4
