"""Integration tests for the Conveyor porcelain (push/pull/advance)."""

import numpy as np
import pytest

from repro.conveyors import ConveyorConfig, ConveyorGroup
from repro.machine import MachineSpec
from repro.shmem import ShmemRuntime
from repro.sim import CoopScheduler, PEFailure
from tests.conveyor_oracle import has_inbound, has_visible_inbound


def run_conveyor(spec, config, body):
    """SPMD-run ``body(rank, conveyor, scheduler)`` over one conveyor group."""
    sched = CoopScheduler(spec.n_pes)
    rt = ShmemRuntime(sched, spec)
    grp = ConveyorGroup(rt, config)
    sched.run(lambda rank: body(rank, grp.endpoints[rank], sched))
    return grp


async def drain(rank, cv, sched, sink):
    """Standard endgame loop: advance(done) + pull until complete."""
    while cv.advance(done=True):
        while (item := cv.pull()) is not None:
            sink.append(item)
        if not cv.is_complete() and not has_visible_inbound(cv) and cv.ready_count == 0:
            arrival = cv._min_arrival
            if arrival is not None:
                await sched.block(
                    rank,
                    predicate=lambda: has_visible_inbound(cv) or cv.is_complete(),
                    wakeup_time=arrival,
                    reason="test drain (awaiting arrival)",
                )
            else:
                await sched.block(
                    rank,
                    predicate=lambda: has_inbound(cv) or cv.is_complete(),
                    reason="test drain (idle)",
                )
    while (item := cv.pull()) is not None:
        sink.append(item)


def exchange_all(spec, config, n_msgs, batch=False):
    """Every PE sends n_msgs messages round-robin; returns received dict."""
    received = {r: [] for r in range(spec.n_pes)}

    async def body(rank, cv, sched):
        if batch:
            dsts = np.array([(rank + 1 + i) % spec.n_pes for i in range(n_msgs)])
            payloads = np.array([rank * 10_000 + i for i in range(n_msgs)])
            cv.push_many(dsts, payloads)
        else:
            sent = 0
            while sent < n_msgs:
                dst = (rank + 1 + sent) % spec.n_pes
                if cv.push(rank * 10_000 + sent, dst):
                    sent += 1
                else:
                    cv.advance()
                    while (item := cv.pull()) is not None:
                        received[rank].append(item)
        await drain(rank, cv, sched, received[rank])

    grp = run_conveyor(spec, config, body)
    return grp, received


@pytest.mark.parametrize("topology", ["linear", "mesh"])
@pytest.mark.parametrize("spec", [MachineSpec(1, 4), MachineSpec(2, 4)])
def test_all_messages_delivered(spec, topology):
    grp, received = exchange_all(spec, ConveyorConfig(buffer_items=8, topology=topology), 40)
    total = sum(len(v) for v in received.values())
    assert total == 40 * spec.n_pes
    assert grp.quiescent


def test_payload_and_source_preserved():
    spec = MachineSpec(2, 2)
    grp, received = exchange_all(spec, ConveyorConfig(buffer_items=4), 10)
    for rank, items in received.items():
        for src, payload in items:
            # sender rank is encoded in the payload's high digits
            assert payload // 10_000 == src
            # messages were sent round-robin: check we are a valid target
            i = payload % 10_000
            assert (src + 1 + i) % spec.n_pes == rank


def test_batch_path_delivers_identically():
    spec = MachineSpec(2, 4)
    cfg = ConveyorConfig(buffer_items=8)
    _, scalar = exchange_all(spec, cfg, 30, batch=False)
    _, batch = exchange_all(spec, cfg, 30, batch=True)
    for rank in range(spec.n_pes):
        assert sorted(scalar[rank]) == sorted(batch[rank])


def test_batch_and_scalar_produce_same_physical_buffers_linear():
    """On a single-hop topology, batch pushes flush the same buffers as
    scalar pushes (with multi-hop forwarding, flush *boundaries* may mix
    differently, so the strict equality only holds hop-free)."""
    spec = MachineSpec(1, 8)
    cfg = ConveyorConfig(buffer_items=8, topology="linear")
    grp_s, _ = exchange_all(spec, cfg, 64, batch=False)
    grp_b, _ = exchange_all(spec, cfg, 64, batch=True)
    for eps, epb in zip(grp_s.endpoints, grp_b.endpoints):
        assert eps.stats.buffers_sent == epb.stats.buffers_sent
        assert eps.stats.bytes_sent == epb.stats.bytes_sent


def test_batch_and_scalar_same_item_totals_mesh():
    """On the mesh, per-kind buffer counts can differ between scalar and
    batch (forwarded items mix into buffers at different times) but item
    conservation must hold for both."""
    spec = MachineSpec(2, 4)
    cfg = ConveyorConfig(buffer_items=8)
    for batch in (False, True):
        grp, _ = exchange_all(spec, cfg, 64, batch=batch)
        pushed = sum(ep.stats.pushes for ep in grp.endpoints)
        pulled = sum(ep.stats.pulls for ep in grp.endpoints)
        assert pushed == pulled == 64 * spec.n_pes


def test_push_pull_conservation():
    spec = MachineSpec(2, 4)
    grp, received = exchange_all(spec, ConveyorConfig(buffer_items=8), 25)
    pushed = sum(ep.stats.pushes for ep in grp.endpoints)
    pulled = sum(ep.stats.pulls for ep in grp.endpoints)
    assert pushed == pulled == 25 * spec.n_pes
    assert grp.live == 0


def test_push_fails_when_buffer_full():
    spec = MachineSpec(1, 2)
    fails = {}

    async def body(rank, cv, sched):
        if rank == 0:
            ok = [cv.push(i, 1) for i in range(5)]
            # capacity 4: first four succeed, fifth fails
            assert ok == [True] * 4 + [False]
            fails["push_fails"] = cv.stats.push_fails
            cv.advance()
            assert cv.push(99, 1)
        await drain(rank, cv, sched, [])

    run_conveyor(spec, ConveyorConfig(buffer_items=4), body)
    assert fails["push_fails"] == 1


def test_push_after_done_is_permitted_at_conveyor_level():
    """The conveyor layer allows late pushes (handler-chain sends during
    the drain); the application-facing prohibition lives in Selector."""
    spec = MachineSpec(1, 2)
    out = {}

    async def body(rank, cv, sched):
        sink = []
        if rank == 0:
            cv.advance(done=True)
            assert cv.push(1, 1)
        await drain(rank, cv, sched, sink)
        out[rank] = sink

    run_conveyor(spec, ConveyorConfig(), body)
    assert out[1] == [(0, 1)]


def test_self_send_goes_through_buffers_by_default():
    """Paper §IV-D: Conveyors does NOT bypass the network stack for
    self-sends; they are aggregated and counted like any other send."""
    spec = MachineSpec(1, 2)
    out = {}

    async def body(rank, cv, sched):
        sink = []
        if rank == 0:
            for i in range(10):
                assert cv.push(i, 0)  # self-sends fit in one buffer (cap 16)
            assert cv.ready_count == 0  # not delivered until a flush
        await drain(rank, cv, sched, sink)
        out[rank] = sink

    grp = run_conveyor(spec, ConveyorConfig(buffer_items=16), body)
    assert len(out[0]) == 10
    assert grp.endpoints[0].stats.buffers_sent.get("local_send", 0) == 1


def test_self_send_bypass_ablation():
    spec = MachineSpec(1, 2)
    out = {}

    async def body(rank, cv, sched):
        sink = []
        if rank == 0:
            for i in range(10):
                assert cv.push(i, 0)
            assert cv.ready_count == 10  # bypassed: immediately pullable
        await drain(rank, cv, sched, sink)
        out[rank] = sink

    grp = run_conveyor(spec, ConveyorConfig(buffer_items=16, self_send_bypass=True), body)
    assert len(out[0]) == 10
    assert grp.endpoints[0].stats.buffers_sent.get("local_send", 0) == 0


def test_mesh_forwarding_counts():
    """In a 2-node mesh, cross-node+cross-column messages are forwarded."""
    spec = MachineSpec(2, 4)
    # PE 0 sends to PE 5 (node 1, column 1): route 0 → 1 → 5.
    async def body(rank, cv, sched):
        sink = []
        if rank == 0:
            while not cv.push(7, 5):
                cv.advance()
        await drain(rank, cv, sched, sink)
        if rank == 5:
            assert sink == [(0, 7)]

    grp = run_conveyor(spec, ConveyorConfig(buffer_items=4), body)
    assert grp.endpoints[1].stats.forwarded == 1
    assert grp.endpoints[1].stats.buffers_sent.get("nonblock_send", 0) == 1
    assert grp.endpoints[0].stats.buffers_sent.get("local_send", 0) == 1


def test_double_buffering_triggers_progress():
    """More than ``slots`` outstanding remote buffers forces a
    nonblock_progress (quiet + signalling put)."""
    spec = MachineSpec(2, 1)  # PEs 0 and 1 on different nodes
    cfg = ConveyorConfig(buffer_items=2, slots=2, topology="mesh")

    async def body(rank, cv, sched):
        sink = []
        if rank == 0:
            sent = 0
            while sent < 12:  # 6 buffers of 2 → exceeds 2 slots
                if cv.push(sent, 1):
                    sent += 1
                else:
                    cv.advance()
        await drain(rank, cv, sched, sink)
        if rank == 1:
            assert len(sink) == 12

    grp = run_conveyor(spec, cfg, body)
    st = grp.endpoints[0].stats
    assert st.buffers_sent.get("nonblock_send", 0) == 6
    assert st.progress_calls >= 2


def test_wire_bytes_accounting():
    cfg = ConveyorConfig(payload_words=2, buffer_items=8,
                         item_header_bytes=8, buffer_header_bytes=16)
    assert cfg.payload_bytes == 16
    assert cfg.wire_bytes(8) == 16 + 8 * 24


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ConveyorConfig(payload_words=0)
    with pytest.raises(ValueError):
        ConveyorConfig(buffer_items=0)
    with pytest.raises(ValueError):
        ConveyorConfig(slots=0)


def test_invalid_destination_rejected():
    spec = MachineSpec(1, 2)

    async def body(rank, cv, sched):
        cv.push(1, 99)

    with pytest.raises(PEFailure):
        run_conveyor(spec, ConveyorConfig(), body)


def test_wrong_payload_width_rejected():
    spec = MachineSpec(1, 2)

    async def body(rank, cv, sched):
        cv.push((1, 2, 3), 0)

    with pytest.raises(PEFailure):
        run_conveyor(spec, ConveyorConfig(payload_words=2), body)


def test_multi_word_payloads_roundtrip():
    spec = MachineSpec(2, 2)
    out = {}

    async def body(rank, cv, sched):
        sink = []
        if rank == 0:
            while not cv.push((10, 20), 3):
                cv.advance()
        await drain(rank, cv, sched, sink)
        out[rank] = sink

    run_conveyor(spec, ConveyorConfig(payload_words=2, buffer_items=4), body)
    assert out[3] == [(0, (10, 20))]
