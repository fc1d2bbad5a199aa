"""Tests for the exstack bulk-synchronous aggregation library."""

import numpy as np
import pytest

from repro.apps.histogram import histogram, histogram_exstack
from repro.conveyors import ExstackGroup
from repro.machine import MachineSpec
from repro.shmem import ShmemRuntime
from repro.sim import CoopScheduler, PEFailure


def run_exstack(spec, body, payload_words=1, buffer_items=8):
    sched = CoopScheduler(spec.n_pes)
    rt = ShmemRuntime(sched, spec)
    grp = ExstackGroup(rt, payload_words=payload_words, buffer_items=buffer_items)
    sched.run(lambda rank: body(rank, grp.endpoints[rank]))
    return grp


async def standard_loop(ex, to_send):
    """Push/exchange/pull until the group finishes; returns received."""
    received = []
    i = 0
    alive = True
    while alive:
        while i < len(to_send) and ex.push(to_send[i][0], to_send[i][1]):
            i += 1
        alive = await ex.exchange(done=(i == len(to_send)))
        while (item := ex.pull()) is not None:
            received.append(item)
    assert i == len(to_send)
    return received


def test_all_items_delivered():
    spec = MachineSpec(2, 2)
    got = {}

    async def body(rank, ex):
        msgs = [(rank * 100 + i, (rank + i) % spec.n_pes) for i in range(20)]
        got[rank] = await standard_loop(ex, msgs)

    grp = run_exstack(spec, body)
    total = sum(len(v) for v in got.values())
    assert total == 20 * spec.n_pes
    # provenance preserved
    for rank, items in got.items():
        for src, payload in items:
            assert payload // 100 == src


def test_exchange_counts_are_collective():
    """Every PE performs the same number of exchanges — even a PE with
    nothing to send (the global synchronization problem in miniature)."""
    spec = MachineSpec(1, 4)
    counts = {}

    async def body(rank, ex):
        # only PE 0 sends; buffer of 2 forces many exchange rounds
        msgs = [(i, 1) for i in range(10)] if rank == 0 else []
        await standard_loop(ex, msgs)
        counts[rank] = ex.exchanges

    run_exstack(spec, body, buffer_items=2)
    assert len(set(counts.values())) == 1
    assert counts[0] >= 5  # 10 items / 2-item buffers


def test_push_fails_when_buffer_full():
    spec = MachineSpec(1, 2)

    async def body(rank, ex):
        if rank == 0:
            assert all(ex.push(i, 1) for i in range(4))
            assert not ex.push(99, 1)  # full
        alive = True
        done = False
        while alive:
            alive = await ex.exchange(done=True) if not done else await ex.exchange(done=True)
            done = True
            while ex.pull() is not None:
                pass

    run_exstack(spec, body, buffer_items=4)


def test_push_validation():
    spec = MachineSpec(1, 2)

    async def body(rank, ex):
        ex.push(1, 99)

    with pytest.raises(PEFailure):
        run_exstack(spec, body)

    async def body2(rank, ex):
        ex.push((1, 2), 0)

    with pytest.raises(PEFailure):
        run_exstack(spec, body2)


def test_group_validation():
    rt = ShmemRuntime(CoopScheduler(2), MachineSpec(1, 2))
    with pytest.raises(ValueError):
        ExstackGroup(rt, payload_words=0)
    with pytest.raises(ValueError):
        ExstackGroup(rt, buffer_items=0)


def test_multiword_payloads():
    spec = MachineSpec(2, 2)
    got = {}

    async def body(rank, ex):
        msgs = [((rank, i), (rank + 1) % spec.n_pes) for i in range(3)]
        got[rank] = await standard_loop(ex, msgs)

    run_exstack(spec, body, payload_words=2)
    assert got[1][0] == (0, (0, 0))


def test_histogram_exstack_matches_conveyors_total():
    machine = MachineSpec(2, 2)
    via_exstack = histogram_exstack(50, 32, machine, seed=3)
    assert via_exstack.total_updates == 50 * machine.n_pes
    via_conveyors = histogram(50, 32, machine, seed=3)
    assert via_exstack.total_updates == via_conveyors.total_updates


def test_histogram_exstack_skewed_counts():
    machine = MachineSpec(1, 4)
    res = histogram_exstack([100, 5, 5, 5], 16, machine, seed=1)
    assert res.total_updates == 115


def test_histogram_exstack_validation():
    with pytest.raises(ValueError):
        histogram_exstack([1, 2], 16, MachineSpec(1, 4))
    with pytest.raises(ValueError):
        histogram_exstack(10, 0, MachineSpec(1, 2))


def test_global_synchronization_cost():
    """The paper's §II-B claim: a skewed sender makes exstack stall
    everyone, while Conveyors lets balanced PEs finish their own work.
    Compare total cycles for the same skewed histogram."""
    machine = MachineSpec(1, 8)
    skew = [400] + [10] * 7
    ex = histogram_exstack(skew, 64, machine, buffer_items=16, seed=2)

    # conveyors version with identical per-PE counts
    from repro.conveyors import ConveyorConfig
    from repro.hclib import Actor, run_spmd

    async def program(ctx):
        arr = np.zeros(64, dtype=np.int64)

        class A(Actor):
            def __init__(self, c):
                super().__init__(c, conveyor_config=ConveyorConfig(buffer_items=16))

            def process(self, idx, sender):
                ctx.compute(ins=6, loads=1, stores=1)
                arr[idx] += 1

        a = A(ctx)
        n = skew[ctx.my_pe]
        dsts = ctx.rng.integers(0, ctx.n_pes, n)
        idxs = ctx.rng.integers(0, 64, n)
        async with ctx.finish():
            a.start()
            for d, i in zip(dsts, idxs):
                ctx.compute(ins=8, loads=2, stores=1)
                a.send(int(i), int(d))
            a.done()
        return int(arr.sum())

    conv = run_spmd(program, machine=machine, seed=2,
                    conveyor_config=ConveyorConfig(buffer_items=16))
    assert sum(conv.results) == sum(skew)
    ex_total = max(ex.run.clocks)
    conv_total = max(conv.run.clocks) if hasattr(conv, "run") else max(conv.clocks)
    # exstack's collective rounds cost more under skew
    assert ex_total > conv_total
