"""Distributed triangle counting (the paper's Algorithm 1).

Each actor iterates over the lower-triangular rows it owns; for every pair
of distinct neighbors ``(j, k)`` with ``k < j`` of a local vertex ``i`` it
sends a non-blocking message to the rank owning row ``j``.  The handler
checks whether edge ``l_jk`` exists and, if so, increments that rank's
local triangle counter.  The total is an all-reduce of local counters,
validated against a serial reference — the paper's assertion validation.

The number of sends per vertex is O(d²) in its lower-triangular degree, so
an R-MAT power-law graph under a 1D Cyclic distribution concentrates both
sends and receives on the PEs owning hub vertices; the 1D Range
distribution balances sends but not receives.  Reproducing exactly that
contrast is the point of the paper's case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.graphs.distributions import Distribution, make_distribution
from repro.graphs.matrix import LowerTriangular
from repro.hclib.actor import Actor
from repro.hclib.world import RunResult, run_spmd
from repro.machine.cost import CostModel
from repro.machine.spec import MachineSpec

#: MAIN-side instructions charged per enumerated wedge (pair generation).
_PAIR_GEN_INS = 3
#: PROC-side instructions charged per edge-existence check — a binary
#: search over the row's neighbor list (several dependent loads).
_CHECK_INS = 30
_CHECK_LOADS = 8


@dataclass
class TriangleResult:
    """Outcome of a distributed triangle count."""

    triangles: int
    reference: int | None
    per_pe_counts: list[int]
    per_pe_sends: list[int]
    distribution: str
    run: RunResult

    @property
    def total_sends(self) -> int:
        return sum(self.per_pe_sends)


class _TriangleActor(Actor):
    """The message handler half of Algorithm 1 (ACTORPROCESS)."""

    def __init__(self, ctx, graph: LowerTriangular,
                 conveyor_config: ConveyorConfig | None) -> None:
        super().__init__(ctx, payload_words=2, conveyor_config=conveyor_config)
        self.graph = graph
        self.count = 0  # c_p: triangles closed by this PE's handlers

    def process(self, payload, sender_rank: int) -> None:
        j, k = payload
        # "if l_jk ∈ L_p and l_jk = 1 then c_p += 1"
        self.ctx.compute(ins=_CHECK_INS, loads=_CHECK_LOADS, branches=2)
        if self.graph.has_edge(int(j), int(k)):
            self.count += 1

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        n = len(payloads)
        self.ctx.compute(ins=_CHECK_INS * n, loads=_CHECK_LOADS * n, branches=2 * n)
        hits = self.graph.has_edges(payloads[:, 0], payloads[:, 1])
        self.count += int(np.count_nonzero(hits))


def _wedges_for_rows(graph: LowerTriangular, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (j, k) neighbor pairs (k < j) for the given rows, concatenated.

    Returns (js, ks).  For each row's sorted neighbor list ``ns``, the
    pairs are ``(ns[b], ns[a])`` for every ``a < b``: rows in the given
    order, then ``a`` ascending, then ``b`` ascending.  Built from CSR
    positions in a few array passes, with no per-row loop.
    """
    rows = np.asarray(rows, dtype=np.int64)
    first = graph.row_ptr[rows]
    last = graph.row_ptr[rows + 1] - 1  # position of each row's last neighbour
    n_a = np.maximum(last - first, 0)  # a: every neighbour but the last
    pos_a = _ranges(first, n_a)
    n_b = last.repeat(n_a) - pos_a  # b: every neighbour after a
    pos_b = _ranges(pos_a + 1, n_b)
    return graph.cols[pos_b], graph.cols[pos_a.repeat(n_b)]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every (start, count), concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + (starts - offsets).repeat(counts)


def triangle_program(graph: LowerTriangular, dist: Distribution,
                     batch: bool = True,
                     conveyor_config: ConveyorConfig | None = None):
    """Build the per-PE SPMD program of Algorithm 1."""

    async def program(ctx) -> dict[str, Any]:
        actor = _TriangleActor(ctx, graph, conveyor_config)
        if not batch:
            # scalar mode: unhook the vectorized handler so every message
            # goes through process() exactly like the paper's listing
            actor.mb[0].process_batch = None
        rows = dist.local_rows(ctx.my_pe)
        sends = 0
        async with ctx.finish():
            actor.start()
            if batch:
                js, ks = _wedges_for_rows(graph, rows)
                ctx.compute(ins=_PAIR_GEN_INS * len(js), loads=2 * len(js))
                owners = dist.owner_array(js)
                payloads = np.stack([js, ks], axis=1)
                actor.send_batch(owners, payloads)
                sends = len(js)
            else:
                for i in rows:
                    ns = graph.neighbors(int(i))
                    for b in range(1, len(ns)):
                        for a in range(b):
                            j, k = int(ns[b]), int(ns[a])
                            ctx.compute(ins=_PAIR_GEN_INS, loads=2)
                            actor.send((j, k), dist.owner(j))
                            sends += 1
            actor.done()
        total = await ctx.shmem.allreduce(actor.count, "sum")
        return {"local": actor.count, "total": total, "sends": sends}

    return program


def count_triangles(
    graph: LowerTriangular,
    machine: MachineSpec,
    distribution: str | Distribution = "cyclic",
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    cost: CostModel | None = None,
    batch: bool = True,
    validate: bool = True,
    seed: int = 0,
    shmem_observers=(),
    schedule_policy=None,
) -> TriangleResult:
    """Run distributed triangle counting; validates against the reference.

    Parameters mirror the paper's experiment: ``distribution`` selects 1D
    Cyclic or 1D Range (or block), ``machine`` the node/PE layout, and an
    optional attached :class:`~repro.core.profiler.ActorProf` collects the
    traces the case study visualizes.
    """
    if isinstance(distribution, str):
        dist = make_distribution(distribution, graph, machine.n_pes)
    else:
        dist = distribution
    program = triangle_program(graph, dist, batch=batch,
                               conveyor_config=conveyor_config)
    run = run_spmd(program, machine=machine, cost=cost, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed,
                   shmem_observers=shmem_observers,
                   schedule_policy=schedule_policy)
    totals = {r["total"] for r in run.results}
    if len(totals) != 1:
        raise AssertionError(f"PEs disagree on the triangle total: {totals}")
    total = totals.pop()
    reference = None
    if validate:
        reference = graph.triangle_count_reference()
        if total != reference:
            raise AssertionError(
                f"triangle count {total} != reference {reference} "
                f"(distribution={dist.name})"
            )
    return TriangleResult(
        triangles=total,
        reference=reference,
        per_pe_counts=[r["local"] for r in run.results],
        per_pe_sends=[r["sends"] for r in run.results],
        distribution=dist.name,
        run=run,
    )
