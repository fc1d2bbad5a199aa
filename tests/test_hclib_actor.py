"""Integration tests for the HClib-Actor runtime (Selector/Actor/finish)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.conveyors import ConveyorConfig
from repro.machine import MachineSpec
from repro.hclib import Actor, Selector, run_spmd
from repro.sim import PEFailure


class HistogramActor(Actor):
    """The paper's Listing 1–2 actor: increment a slot of a local array."""

    def __init__(self, ctx, larray):
        super().__init__(ctx, payload_words=1)
        self.larray = larray

    def process(self, idx, sender_rank):
        self.larray[idx] += 1  # no atomics needed


def histogram_program(n_updates, machine, seed=3, conveyor=None, batch=False):
    async def program(ctx):
        larray = np.zeros(64, dtype=np.int64)
        actor = HistogramActor(ctx, larray)
        # Draw destinations/indices identically for scalar and batch modes
        # so the two paths are comparable message-for-message.
        dsts = ctx.rng.integers(0, ctx.n_pes, n_updates)
        idxs = ctx.rng.integers(0, 64, n_updates)
        async with ctx.finish():
            actor.start()
            if batch:
                actor.send_batch(dsts, idxs)
            else:
                for dst, idx in zip(dsts, idxs):
                    actor.send(int(idx), int(dst))
            actor.done()
        return int(larray.sum())

    return run_spmd(program, machine=machine, seed=seed, conveyor_config=conveyor)


@pytest.mark.parametrize("machine", [MachineSpec(1, 4), MachineSpec(2, 4)])
def test_histogram_conserves_updates(machine):
    res = histogram_program(100, machine)
    assert sum(res.results) == 100 * machine.n_pes


def test_histogram_batch_equals_scalar_totals():
    machine = MachineSpec(2, 4)
    scalar = histogram_program(80, machine, seed=11, batch=False)
    batch = histogram_program(80, machine, seed=11, batch=True)
    assert scalar.results == batch.results


def test_small_buffers_force_interleaving_but_stay_correct():
    machine = MachineSpec(2, 4)
    res = histogram_program(
        120, machine, conveyor=ConveyorConfig(buffer_items=2)
    )
    assert sum(res.results) == 120 * machine.n_pes


def test_actor_subclass_process_autowired():
    """Overriding Actor.process wires the handler without explicit mb[0]."""
    out = {}

    async def program(ctx):
        class P(Actor):
            def __init__(self, ctx):
                super().__init__(ctx)
                self.got = []

            def process(self, payload, sender_rank):
                self.got.append((payload, sender_rank))

        a = P(ctx)
        async with ctx.finish():
            a.start()
            a.send(ctx.my_pe * 100, (ctx.my_pe + 1) % ctx.n_pes)
            a.done()
        out[ctx.my_pe] = a.got
        return len(a.got)

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert res.results == [1, 1, 1, 1]
    assert out[1] == [(0, 0)]


def test_lambda_style_mailbox_assignment():
    """Listing 2 style: assign mb[0].process in the constructor."""

    async def program(ctx):
        larray = np.zeros(8, dtype=np.int64)
        a = Actor(ctx)
        a.mb[0].process = lambda idx, sender: larray.__setitem__(idx, larray[idx] + 1)
        async with ctx.finish():
            a.start()
            for i in range(8):
                a.send(i, (ctx.my_pe + i) % ctx.n_pes)
            a.done()
        return int(larray.sum())

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert sum(res.results) == 32


def test_selector_multiple_mailboxes():
    """A 2-mailbox selector routes messages to distinct handlers."""

    async def program(ctx):
        hits = {"a": 0, "b": 0}
        s = Selector(ctx, mailboxes=2, payload_words=1)
        s.mb[0].process = lambda p, src: hits.__setitem__("a", hits["a"] + 1)
        s.mb[1].process = lambda p, src: hits.__setitem__("b", hits["b"] + p)
        async with ctx.finish():
            s.start()
            for i in range(10):
                s.send(0, i, (ctx.my_pe + i) % ctx.n_pes)
            for i in range(5):
                s.send(1, 2, (ctx.my_pe + i) % ctx.n_pes)
            s.done(0)
            s.done(1)
        return (hits["a"], hits["b"])

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert sum(a for a, _ in res.results) == 40
    assert sum(b for _, b in res.results) == 40  # 5 msgs × payload 2 × 4 PEs


def test_selector_mailboxes_keep_every_config_field():
    """Each mailbox group's conveyor config is the selector's config with
    only ``payload_words`` set per mailbox: no field is reset."""
    config = ConveyorConfig(payload_words=9, buffer_items=7, slots=3,
                            topology="linear", self_send_bypass=True,
                            item_header_bytes=4, buffer_header_bytes=32)
    rest = {f.name: getattr(config, f.name) for f in fields(config)
            if f.name != "payload_words"}
    default = ConveyorConfig()
    assert all(value != getattr(default, name) for name, value in rest.items())

    async def program(ctx):
        Selector(ctx, mailboxes=2, payload_words=[1, 3],
                 conveyor_config=config)
        return [group.config for group in ctx.world._slots[0].groups]

    for configs in run_spmd(program, machine=MachineSpec(1, 2)).results:
        assert [c.payload_words for c in configs] == [1, 3]
        for c in configs:
            assert {name: getattr(c, name) for name in rest} == rest


def test_handler_may_send_further_messages():
    """Multi-hop actor chains (BFS-style wavefronts) terminate correctly."""

    async def program(ctx):
        count = [0]

        class Chain(Actor):
            def process(self, hops_left, sender_rank):
                count[0] += 1
                if hops_left > 0:
                    self.send(hops_left - 1, (ctx.my_pe + 1) % ctx.n_pes)

        a = Chain(ctx)
        async with ctx.finish():
            a.start()
            if ctx.my_pe == 0:
                a.send(10, 1)  # a chain of 11 handler invocations
            a.done()
        return count[0]

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert sum(res.results) == 11


def test_missing_done_raises_cleanly():
    async def program(ctx):
        a = HistogramActor(ctx, np.zeros(4, dtype=np.int64))
        async with ctx.finish():
            a.start()
            a.send(0, 0)
            # done() forgotten

    with pytest.raises(PEFailure) as ei:
        run_spmd(program, machine=MachineSpec(1, 2))
    assert "done()" in str(ei.value)


def test_start_outside_finish_rejected():
    async def program(ctx):
        a = HistogramActor(ctx, np.zeros(4, dtype=np.int64))
        a.start()

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_send_before_start_rejected():
    async def program(ctx):
        a = HistogramActor(ctx, np.zeros(4, dtype=np.int64))
        a.send(0, 0)

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_send_after_done_rejected():
    async def program(ctx):
        a = HistogramActor(ctx, np.zeros(4, dtype=np.int64))
        async with ctx.finish():
            a.start()
            a.done()
            a.send(0, 0)

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_done_twice_rejected():
    async def program(ctx):
        a = HistogramActor(ctx, np.zeros(4, dtype=np.int64))
        async with ctx.finish():
            a.start()
            a.done()
            a.done()

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_divergent_selector_construction_rejected():
    async def program(ctx):
        mailboxes = 1 if ctx.my_pe == 0 else 2
        s = Selector(ctx, mailboxes=mailboxes)
        async with ctx.finish():
            s.start()
            for i in range(mailboxes):
                s.done(i)

    with pytest.raises(PEFailure):
        run_spmd(program, machine=MachineSpec(1, 2))


def test_two_sequential_finish_scopes():
    async def program(ctx):
        total = 0
        for round_ in range(2):
            larray = np.zeros(4, dtype=np.int64)
            a = HistogramActor(ctx, larray)
            async with ctx.finish():
                a.start()
                a.send(round_, (ctx.my_pe + 1) % ctx.n_pes)
                a.done()
            total += int(larray.sum())
        return total

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert sum(res.results) == 8


def test_batch_handler_preferred_and_equivalent():
    machine = MachineSpec(2, 4)

    async def program_batched(ctx):
        larray = np.zeros(64, dtype=np.int64)
        a = Actor(ctx)
        a.mb[0].process_batch = lambda payloads, senders: np.add.at(
            larray, payloads[:, 0], 1
        )
        async with ctx.finish():
            a.start()
            dsts = ctx.rng.integers(0, ctx.n_pes, 100)
            idxs = ctx.rng.integers(0, 64, 100)
            a.send_batch(dsts, idxs)
            a.done()
        return int(larray.sum())

    res_b = run_spmd(program_batched, machine=machine, seed=5)
    res_s = histogram_program(100, machine, seed=5)
    assert res_b.results == res_s.results


def test_run_result_exposes_clocks():
    res = histogram_program(10, MachineSpec(1, 2))
    assert len(res.clocks) == 2
    assert all(c > 0 for c in res.clocks)


def test_deterministic_execution():
    m = MachineSpec(2, 4)
    a = histogram_program(60, m, seed=9)
    b = histogram_program(60, m, seed=9)
    assert a.results == b.results
    assert a.clocks == b.clocks
