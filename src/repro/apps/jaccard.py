"""Per-edge Jaccard similarity via wedge messages.

For every edge {u, v}, the Jaccard coefficient is
``|N(u) ∩ N(v)| / |N(u) ∪ N(v)|``.  The common-neighbor counts are
computed exactly like triangle counting — for every wedge (j, i, k) a
message asks the owner of row j whether edge ``l_jk`` exists — except the
handler credits the *edge* (j, k) instead of a global counter.  The union
size follows from full degrees: ``|N∪N| = deg(u) + deg(v) − |N∩N|``.

The paper cites its Jaccard similarity workload ([7], ISC'24) as one of
the applications actively profiled with ActorProf.
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

from repro.apps.triangle import _wedges_for_rows


@dataclass
class JaccardResult:
    """Outcome of a Jaccard run: per-edge similarity."""

    edges: np.ndarray        # (m, 2) rows > cols, global edge list
    common: np.ndarray       # |N(u) ∩ N(v)| per edge
    similarity: np.ndarray   # Jaccard coefficient per edge
    run: RunResult


def reference_common_neighbors(graph: LowerTriangular) -> np.ndarray:
    """Exact per-edge common-neighbor counts: entries of (LᵀL + LLᵀ + ...).

    For an undirected graph, ``|N(u) ∩ N(v)|`` for edge (u, v) equals the
    number of triangles through that edge.  Computed with scipy on the
    symmetric adjacency: ``(A @ A)[u, v]`` masked to edges.
    """
    A = graph.to_scipy()
    S = A + A.T
    common = (S @ S).multiply(S)
    C = common.tocsr()
    if graph.nnz == 0:
        return np.empty(0, dtype=np.int64)
    return np.asarray(C[graph.rows, graph.cols]).ravel().astype(np.int64)


class _JaccardActor(Actor):
    def __init__(self, ctx, graph: LowerTriangular, edge_common: np.ndarray,
                 conveyor_config) -> None:
        super().__init__(ctx, payload_words=2, conveyor_config=conveyor_config)
        self.graph = graph
        self.edge_common = edge_common

    def _edge_index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        g = self.graph
        keys = g._edge_keys()
        q = rows * g.n_vertices + cols
        pos = np.searchsorted(keys, q)
        pos_c = np.minimum(pos, g.nnz - 1)
        hit = (pos < g.nnz) & (keys[pos_c] == q)
        return np.where(hit, pos_c, -1)

    def process(self, payload, sender_rank: int) -> None:
        j, k = int(payload[0]), int(payload[1])
        self.ctx.compute(ins=16, loads=5, branches=2)
        idx = self._edge_index(np.array([j]), np.array([k]))[0]
        if idx >= 0:
            self.edge_common[idx] += 1

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        n = len(payloads)
        self.ctx.compute(ins=16 * n, loads=5 * n, branches=2 * n)
        idx = self._edge_index(payloads[:, 0], payloads[:, 1])
        hit = idx >= 0
        np.add.at(self.edge_common, idx[hit], 1)


def jaccard(
    graph: LowerTriangular,
    machine: MachineSpec,
    distribution: str | Distribution = "cyclic",
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    batch: bool = True,
    validate: bool = True,
    seed: int = 0,
) -> JaccardResult:
    """Compute per-edge Jaccard similarity; validates common counts.

    A wedge (j, i, k) witnessed at vertex i contributes common neighbor i
    to edge (j, k); every common neighbor of an edge's endpoints with a
    higher index than both forms exactly one such wedge, and ones with
    lower or middle index are found through the wedges they form
    symmetrically — all three triangle rotations contribute, so the handler
    totals (over the three edges of each triangle) equal the per-edge
    triangle counts after summing the rotations.
    """
    if isinstance(distribution, str):
        dist = make_distribution(distribution, graph, machine.n_pes)
    else:
        dist = distribution
    indptr, indices = graph.symmetric_csr()
    full_deg = np.diff(indptr)

    async def program(ctx):
        me = ctx.my_pe
        # shared-edge-array trick is not SPMD-safe: accumulate locally and
        # reduce at the end instead.
        edge_common = np.zeros(graph.nnz, dtype=np.int64)
        actor = _JaccardActor(ctx, graph, edge_common, conveyor_config)
        if not batch:
            actor.mb[0].process_batch = None
        # wedges from *full* neighborhoods: for each vertex i, every pair
        # of distinct neighbors (a > b) forms a wedge; ask owner of row a
        # whether edge (a, b) exists.
        mine = dist.local_rows(me)
        js_parts, ks_parts = [], []
        for i in mine:
            neigh = np.sort(indices[indptr[i]:indptr[i + 1]])
            d = len(neigh)
            if d < 2:
                continue
            a_idx, b_idx = np.triu_indices(d, k=1)
            js_parts.append(neigh[b_idx])  # larger endpoint (the row)
            ks_parts.append(neigh[a_idx])
        js = np.concatenate(js_parts) if js_parts else np.empty(0, np.int64)
        ks = np.concatenate(ks_parts) if ks_parts else np.empty(0, np.int64)
        async with ctx.finish():
            actor.start()
            if len(js):
                ctx.compute(ins=8 * len(js), loads=2 * len(js))
                if batch:
                    actor.send_batch(dist.owner_array(js),
                                     np.stack([js, ks], axis=1))
                else:
                    for j, k in zip(js, ks):
                        actor.send((int(j), int(k)), dist.owner(int(j)))
            actor.done()
        total_common = await ctx.shmem.allreduce(edge_common, "sum")
        return total_common

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    common = np.asarray(run.results[0], dtype=np.int64)
    if validate:
        expected = reference_common_neighbors(graph)
        if not np.array_equal(common, expected):
            bad = int((common != expected).sum())
            raise AssertionError(f"Jaccard common counts wrong on {bad} edges")
    u, v = graph.rows, graph.cols
    union = full_deg[u] + full_deg[v] - common
    union = np.maximum(union, 1)
    similarity = common / union
    edges = np.stack([u, v], axis=1)
    return JaccardResult(edges=edges, common=common, similarity=similarity, run=run)
