"""Actor-based PageRank (power iteration with message-passing).

Each iteration runs one finish scope: every PE scatters
``rank[v] / degree[v]`` along each undirected edge of its owned vertices;
the destination handler accumulates contributions.  Ranks are stored as
fixed-point integers (messages are int64 words), and dangling vertices'
mass is redistributed uniformly, matching the serial reference exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.graphs.distributions import Distribution, make_distribution
from repro.graphs.matrix import LowerTriangular
from repro.hclib.actor import Actor
from repro.hclib.world import RunResult, run_spmd
from repro.machine.spec import MachineSpec

#: Fixed-point scale for shipping ranks as int64 message payloads.
_FP = 1 << 32


@dataclass
class PageRankResult:
    """Outcome of a PageRank run."""

    ranks: np.ndarray
    iterations: int
    run: RunResult


def reference_pagerank(graph: LowerTriangular, iterations: int,
                       damping: float = 0.85) -> np.ndarray:
    """Serial fixed-point power iteration (the distributed oracle).

    Uses the same int64 fixed-point arithmetic as the distributed version
    so validation can demand exact equality.
    """
    n = graph.n_vertices
    indptr, indices = graph.symmetric_csr()
    deg = np.diff(indptr)
    ranks = np.full(n, _FP // n, dtype=np.int64)
    for _ in range(iterations):
        acc = np.zeros(n, dtype=np.int64)
        shares = np.zeros(n, dtype=np.int64)
        nz = deg > 0
        shares[nz] = ranks[nz] // deg[nz]
        for v in range(n):
            if deg[v]:
                acc[indices[indptr[v]:indptr[v + 1]]] += shares[v]
        dangling = int(ranks[~nz].sum()) // n
        base = int((1 - damping) * _FP) // n
        ranks = base + (damping * (acc + dangling)).astype(np.int64)
    return ranks


class _RankActor(Actor):
    def __init__(self, ctx, acc: np.ndarray, local_of: dict,
                 conveyor_config) -> None:
        super().__init__(ctx, payload_words=2, conveyor_config=conveyor_config)
        self.acc = acc
        self.local_of = local_of

    def process(self, payload, sender_rank: int) -> None:
        vertex, share = payload
        self.ctx.compute(ins=8, loads=2, stores=1)
        self.acc[self.local_of[int(vertex)]] += share

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        self.ctx.compute(ins=8 * len(payloads), loads=2 * len(payloads),
                         stores=len(payloads))
        idx = np.array([self.local_of[int(v)] for v in payloads[:, 0]])
        np.add.at(self.acc, idx, payloads[:, 1])


def pagerank(
    graph: LowerTriangular,
    iterations: int,
    machine: MachineSpec,
    distribution: str | Distribution = "cyclic",
    damping: float = 0.85,
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    validate: bool = True,
    seed: int = 0,
) -> PageRankResult:
    """Distributed PageRank; validates bit-exactly against the reference."""
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if isinstance(distribution, str):
        dist = make_distribution(distribution, graph, machine.n_pes)
    else:
        dist = distribution
    indptr, indices = graph.symmetric_csr()
    deg = np.diff(indptr)
    n = graph.n_vertices

    async def program(ctx):
        me = ctx.my_pe
        mine = dist.local_rows(me)
        local_of = {int(v): i for i, v in enumerate(mine)}
        ranks = np.full(len(mine), _FP // n, dtype=np.int64)
        owners_cache = {}
        for it in range(iterations):
            acc = np.zeros(len(mine), dtype=np.int64)
            actor = _RankActor(ctx, acc, local_of, conveyor_config)
            dangling_local = int(ranks[deg[mine] == 0].sum())
            async with ctx.finish():
                actor.start()
                for i, v in enumerate(mine):
                    d = int(deg[v])
                    if d == 0:
                        continue
                    share = int(ranks[i]) // d
                    neigh = indices[indptr[v]:indptr[v + 1]]
                    cached = owners_cache.get(int(v))
                    if cached is None:
                        cached = dist.owner_array(neigh)
                        owners_cache[int(v)] = cached
                    ctx.compute(ins=6 * d, loads=2 * d)
                    payload = np.stack(
                        [neigh, np.full(d, share, dtype=np.int64)], axis=1
                    )
                    actor.send_batch(cached, payload)
                actor.done()
            dangling = await ctx.shmem.allreduce(dangling_local, "sum") // n
            base = int((1 - damping) * _FP) // n
            ranks = base + (damping * (acc + dangling)).astype(np.int64)
        return {int(v): int(r) for v, r in zip(mine, ranks)}

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    ranks = np.zeros(n, dtype=np.int64)
    for local in run.results:
        for v, r in local.items():
            ranks[v] = r
    if validate:
        expected = reference_pagerank(graph, iterations, damping)
        if not np.array_equal(ranks, expected):
            bad = int((ranks != expected).sum())
            raise AssertionError(f"PageRank mismatch on {bad} vertices")
    return PageRankResult(ranks=ranks, iterations=iterations, run=run)
