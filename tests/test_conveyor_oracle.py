"""Differential tests: the conveyor's array routing vs the per-row oracle.

Every PE replays a seeded random script of blocks — 1 row, up to 16,
more than 16, more than ``buffer_items`` — through ``push_many``, the
scalar ``push`` (advancing and pulling whenever a buffer is full) and
bare ``advance`` calls, then drains with ``done``.  The production
:class:`~repro.conveyors.conveyor.Conveyor` and
:class:`tests.conveyor_oracle.OracleConveyor` must emit the same ordered
``(kind, nbytes, src, hop, time)`` wire records and hand every PE the
same rows in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ActorProf, ProfileFlags
from repro.apps import count_triangles, histogram
from repro.conveyors import ConveyorConfig, ConveyorGroup
from repro.graphs import LowerTriangular, graph500_input
from repro.machine import MachineSpec
from repro.shmem import ShmemRuntime
from repro.sim import CoopScheduler
from repro.sim.scheduler import SchedulePolicy
from tests.conveyor_oracle import (
    OracleConveyor,
    has_inbound,
    has_visible_inbound,
    use_conveyor,
)

OPS_PER_PE = 12


class ReversedFlush(SchedulePolicy):
    """Flushes candidates in descending hop order (a legal permutation)."""

    def flush_order(self, pe, hops):
        return list(reversed(hops))


class Recorder:
    def __init__(self) -> None:
        self.records: list[tuple] = []

    def record(self, send_type, nbytes, src_pe, dst_pe, time) -> None:
        self.records.append((send_type, nbytes, src_pe, dst_pe, time))


def block_size(rng, buffer_items: int) -> int:
    """1 row, 2..16, 17..max(17, buffer_items), or more than buffer_items."""
    kind = int(rng.integers(4))
    if kind == 0:
        return 1
    if kind == 1:
        return int(rng.integers(2, 17))
    if kind == 2:
        return int(rng.integers(17, max(18, buffer_items + 1)))
    return int(rng.integers(buffer_items + 1, 3 * buffer_items + 2))


def replay(spec, topology, buffer_items, seed, policy=None):
    """Run the random script; returns (wire records, rows pulled per PE)."""
    sched = CoopScheduler(spec.n_pes)
    rt = ShmemRuntime(sched, spec)
    tracer = Recorder()
    grp = ConveyorGroup(rt, ConveyorConfig(buffer_items=buffer_items,
                                           topology=topology),
                        tracer=tracer, policy=policy)
    pulled: dict[int, list] = {r: [] for r in range(spec.n_pes)}

    def pull(rank, cv):
        for seg in cv.pull_segments():
            pulled[rank].extend(map(tuple, seg.tolist()))

    async def body(rank):
        cv = grp.endpoints[rank]
        rng = np.random.default_rng([seed, rank])
        next_id = rank * 1_000_000
        for _ in range(OPS_PER_PE):
            op = int(rng.integers(3))
            n = block_size(rng, buffer_items)
            dsts = rng.integers(0, spec.n_pes, n)
            ids = np.arange(next_id, next_id + n)
            next_id += n
            if op == 0:
                cv.push_many(dsts, ids)
            elif op == 1:
                for dst, payload in zip(dsts.tolist(), ids.tolist()):
                    while not cv.push(payload, dst):
                        cv.advance()
                        pull(rank, cv)
            cv.advance()
            pull(rank, cv)
            await sched.yield_pe(rank)
        while cv.advance(done=True):
            pull(rank, cv)
            if cv.is_complete() or has_visible_inbound(cv):
                continue
            arrival = cv._min_arrival
            if arrival is None:
                await sched.block(
                    rank,
                    predicate=lambda: has_inbound(cv) or cv.is_complete(),
                    reason="oracle drain (idle)",
                    channels=(cv.inbox_wake, grp.wake))
            else:
                await sched.block(
                    rank,
                    predicate=lambda: (has_visible_inbound(cv)
                                       or cv.is_complete()),
                    wakeup_time=arrival, reason="oracle drain",
                    channels=(cv.inbox_wake, grp.wake))
        pull(rank, cv)

    sched.run(body)
    assert grp.quiescent
    return tracer.records, pulled


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("buffer_items", [4, 24])
@pytest.mark.parametrize("topology,spec", [
    ("linear", MachineSpec(1, 6)),
    ("linear", MachineSpec(2, 6)),
    ("mesh", MachineSpec(3, 4)),
    ("cube", MachineSpec(2, 8)),
])
def test_routing_matches_per_row_oracle(monkeypatch, topology, spec,
                                        buffer_items, seed):
    want = replay(spec, topology, buffer_items, seed)
    use_conveyor(monkeypatch, OracleConveyor)
    got = replay(spec, topology, buffer_items, seed)
    assert got[0] == want[0]
    assert got[1] == want[1]
    # every pushed row reached its destination exactly once
    rows = [row for per_pe in want[1].values() for row in per_pe]
    assert len(rows) == len({row[2] for row in rows})
    assert all(row[0] == pe for pe, per_pe in want[1].items() for row in per_pe)


@pytest.mark.parametrize("topology", ["mesh", "cube"])
def test_flush_order_sees_ascending_candidates(monkeypatch, topology):
    spec = MachineSpec(2, 8)
    want = replay(spec, topology, 6, 7, ReversedFlush())
    use_conveyor(monkeypatch, OracleConveyor)
    assert replay(spec, topology, 6, 7, ReversedFlush()) == want


@pytest.mark.parametrize("app", ["triangle", "histogram"])
def test_app_runs_match_oracle(monkeypatch, app):
    """Whole runs on a mesh: forwarded blocks, self-sends, both handler
    paths; clocks and the physical trace must not move."""
    spec = MachineSpec(2, 8)
    config = ConveyorConfig(buffer_items=16)

    def run():
        ap = ActorProf(ProfileFlags.all())
        if app == "triangle":
            graph = LowerTriangular.from_edges(graph500_input(6, 8, seed=1))
            result = count_triangles(graph, spec, profiler=ap,
                                     conveyor_config=config, seed=1)
        else:
            result = histogram(80, 32, spec, profiler=ap, batch=False,
                               conveyor_config=config, seed=1)
        return result.run.clocks, ap.physical.to_columns()[0]

    want_clocks, want = run()
    use_conveyor(monkeypatch, OracleConveyor)
    got_clocks, got = run()
    assert got_clocks == want_clocks
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name
