"""Level-synchronous breadth-first search over actors.

One finish scope per BFS level: every PE expands its owned frontier
vertices, sending each undirected neighbor to its owner; the handler marks
unvisited vertices and adds them to the next frontier.  An all-reduce on
the next-frontier size decides termination.  Validated against a serial
numpy BFS.

BFS is one of the irregular applications the paper's introduction
motivates ("irregular applications like Breadth First Search ... face a
common challenge: sending large orders of small byte-sized messages").
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


@dataclass
class BFSResult:
    """Outcome of a BFS run."""

    levels: np.ndarray  # global level per vertex (-1 = unreachable)
    n_levels: int
    source: int
    run: RunResult


def reference_bfs(graph: LowerTriangular, source: int) -> np.ndarray:
    """Serial BFS levels (-1 for unreachable vertices)."""
    indptr, indices = graph.symmetric_csr()
    levels = np.full(graph.n_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in indices[indptr[v] : indptr[v + 1]]:
                if levels[u] < 0:
                    levels[u] = level + 1
                    nxt.append(int(u))
        frontier = nxt
        level += 1
    return levels


class _BFSActor(Actor):
    def __init__(self, ctx, levels_local: dict, next_frontier: list,
                 level_box: list, conveyor_config) -> None:
        super().__init__(ctx, payload_words=1, conveyor_config=conveyor_config)
        self.levels_local = levels_local
        self.next_frontier = next_frontier
        self.level_box = level_box

    def process(self, vertex, sender_rank: int) -> None:
        self.ctx.compute(ins=10, loads=2, stores=1, branches=1)
        if self.levels_local.get(int(vertex), -1) < 0:
            self.levels_local[int(vertex)] = self.level_box[0] + 1
            self.next_frontier.append(int(vertex))


def bfs(
    graph: LowerTriangular,
    source: int,
    machine: MachineSpec,
    distribution: str | Distribution = "cyclic",
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    validate: bool = True,
    seed: int = 0,
) -> BFSResult:
    """Distributed level-synchronous BFS from ``source``."""
    if not 0 <= source < graph.n_vertices:
        raise ValueError(f"source {source} out of range")
    if isinstance(distribution, str):
        dist = make_distribution(distribution, graph, machine.n_pes)
    else:
        dist = distribution
    indptr, indices = graph.symmetric_csr()

    async def program(ctx):
        me = ctx.my_pe
        levels_local: dict[int, int] = {}
        frontier: list[int] = []
        level_box = [0]
        if dist.owner(source) == me:
            levels_local[source] = 0
            frontier.append(source)
        level = 0
        while True:
            next_frontier: list[int] = []
            actor = _BFSActor(ctx, levels_local, next_frontier, level_box,
                              conveyor_config)
            level_box[0] = level
            async with ctx.finish():
                actor.start()
                for v in frontier:
                    neigh = indices[indptr[v] : indptr[v + 1]]
                    ctx.compute(ins=4 * len(neigh), loads=len(neigh))
                    if len(neigh):
                        actor.send_batch(dist.owner_array(neigh), neigh)
                actor.done()
            total_next = await ctx.shmem.allreduce(len(next_frontier), "sum")
            frontier = next_frontier
            level += 1
            if total_next == 0:
                break
        return levels_local

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    levels = np.full(graph.n_vertices, -1, dtype=np.int64)
    for local in run.results:
        for v, lv in local.items():
            levels[v] = lv
    n_levels = int(levels.max()) + 1 if (levels >= 0).any() else 0
    if validate:
        expected = reference_bfs(graph, source)
        if not np.array_equal(levels, expected):
            bad = int((levels != expected).sum())
            raise AssertionError(f"BFS levels wrong for {bad} vertices")
    return BFSResult(levels=levels, n_levels=n_levels, source=source, run=run)
