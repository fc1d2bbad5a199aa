"""Influence spread estimation (Independent Cascade) over actors.

The paper lists Influence Maximization [19] among the workloads its group
actively profiles with ActorProf.  This module implements the core kernel
of that application: Monte-Carlo estimation of the *influence spread* of a
seed set under the Independent Cascade (IC) model.

Each simulation round is a stochastic cascade: an activated vertex ``u``
activates neighbor ``v`` with probability ``p``, decided by a
deterministic hash of (edge, round) so the distributed and serial runs see
identical coin flips.  The cascade is naturally asynchronous — activation
messages fan out as handlers fire and handlers send onward — making it the
repository's showcase for handler-initiated actor chains inside a single
finish scope.

``select_seeds`` adds greedy seed selection (the usual IM outer loop) on
top of the spread kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.graphs.distributions import Distribution, make_distribution
from repro.graphs.matrix import LowerTriangular
from repro.hclib.actor import Actor
from repro.hclib.world import RunResult, run_spmd
from repro.machine.spec import MachineSpec


def _hash01(u: int, v: int, r: int, salt: int) -> float:
    """Deterministic uniform [0,1) for an (edge, round) coin flip.

    Edge identity is symmetric (min, max), so both directions of an
    undirected edge share one coin per round — the classic "live-edge"
    formulation of IC.
    """
    a, b = (u, v) if u < v else (v, u)
    x = (a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9 + r * 0x94D049BB133111EB
         + salt * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    # splitmix64 finalizer
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x / 2**64


@dataclass
class InfluenceResult:
    """Outcome of a spread estimation."""

    seeds: tuple[int, ...]
    rounds: int
    total_activations: int
    spread: float  # mean activated vertices per round
    per_round: np.ndarray
    run: RunResult


def reference_spread(graph: LowerTriangular, seeds: Sequence[int], rounds: int,
                     p: float, salt: int = 0) -> np.ndarray:
    """Serial IC cascades with the same coin flips (per-round activations)."""
    indptr, indices = graph.symmetric_csr()
    out = np.zeros(rounds, dtype=np.int64)
    for r in range(rounds):
        active = set(int(s) for s in seeds)
        frontier = list(active)
        while frontier:
            nxt = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    v = int(v)
                    if v not in active and _hash01(u, v, r, salt) < p:
                        active.add(v)
                        nxt.append(v)
            frontier = nxt
        out[r] = len(active)
    return out


class _CascadeActor(Actor):
    """Handler: activate a vertex in a round, then cascade onward.

    Payload = (vertex, round).  The onward sends happen *inside the
    handler*, after the MAIN side has already called done() — exercising
    HClib-Actor's ability to keep messaging during the finish drain.
    """

    def __init__(self, ctx, dist, indptr, indices, p, salt, active, counts,
                 conveyor_config) -> None:
        super().__init__(ctx, payload_words=2, conveyor_config=conveyor_config)
        self.dist = dist
        self.indptr = indptr
        self.indices = indices
        self.p = p
        self.salt = salt
        self.active = active  # dict[(vertex, round)] -> True
        self.counts = counts  # per-round local activation counts

    def process(self, payload, sender_rank: int) -> None:
        v, r = int(payload[0]), int(payload[1])
        self.ctx.compute(ins=14, loads=4, branches=2)
        if (v, r) in self.active:
            return
        self.active[(v, r)] = True
        self.counts[r] += 1
        neigh = self.indices[self.indptr[v]:self.indptr[v + 1]]
        self.ctx.compute(ins=10 * len(neigh), loads=2 * len(neigh),
                         branches=len(neigh))
        for w in neigh:
            w = int(w)
            if _hash01(v, w, r, self.salt) < self.p:
                self.send((w, r), self.dist.owner(w))


def influence_spread(
    graph: LowerTriangular,
    seeds: Sequence[int],
    rounds: int,
    machine: MachineSpec,
    p: float = 0.1,
    distribution: str | Distribution = "cyclic",
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    validate: bool = True,
    salt: int = 0,
    seed: int = 0,
) -> InfluenceResult:
    """Estimate IC influence spread of ``seeds`` over ``rounds`` cascades."""
    if rounds < 1:
        raise ValueError("need at least one simulation round")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"activation probability must be in [0, 1]: {p}")
    seeds = tuple(int(s) for s in seeds)
    for s in seeds:
        if not 0 <= s < graph.n_vertices:
            raise ValueError(f"seed {s} out of range")
    if isinstance(distribution, str):
        dist = make_distribution(distribution, graph, machine.n_pes)
    else:
        dist = distribution
    indptr, indices = graph.symmetric_csr()

    async def program(ctx):
        me = ctx.my_pe
        active: dict[tuple[int, int], bool] = {}
        counts = np.zeros(rounds, dtype=np.int64)
        actor = _CascadeActor(ctx, dist, indptr, indices, p, salt, active,
                              counts, conveyor_config)
        async with ctx.finish():
            actor.start()
            # every round's seed activations enter from the seeds' owners
            for r in range(rounds):
                for s in seeds:
                    if dist.owner(s) == me:
                        ctx.compute(ins=6, loads=2)
                        actor.send((s, r), me)
            actor.done()
        return await ctx.shmem.allreduce(counts, "sum")

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    per_round = np.asarray(run.results[0], dtype=np.int64)
    if validate:
        expected = reference_spread(graph, seeds, rounds, p, salt)
        if not np.array_equal(per_round, expected):
            raise AssertionError(
                f"cascade mismatch: distributed {per_round.tolist()} vs "
                f"serial {expected.tolist()}"
            )
    total = int(per_round.sum())
    return InfluenceResult(
        seeds=seeds,
        rounds=rounds,
        total_activations=total,
        spread=total / rounds,
        per_round=per_round,
        run=run,
    )


def select_seeds(
    graph: LowerTriangular,
    k: int,
    rounds: int,
    machine: MachineSpec,
    p: float = 0.1,
    candidates: Sequence[int] | None = None,
    **kwargs,
) -> tuple[list[int], float]:
    """Greedy influence maximization over ``candidates``.

    Picks ``k`` seeds by repeatedly adding the candidate with the largest
    marginal spread (each evaluation is a full distributed run).  With no
    candidate list, the top-(4k) vertices by degree are considered — the
    standard degree-based pruning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if candidates is None:
        deg = graph.full_degrees()
        candidates = np.argsort(deg)[::-1][: 4 * k].tolist()
    chosen: list[int] = []
    best_spread = 0.0
    for _ in range(k):
        best_cand, best_val = None, -1.0
        for cand in candidates:
            if cand in chosen:
                continue
            res = influence_spread(graph, chosen + [int(cand)], rounds,
                                   machine, p=p, **kwargs)
            if res.spread > best_val:
                best_cand, best_val = int(cand), res.spread
        assert best_cand is not None
        chosen.append(best_cand)
        best_spread = best_val
    return chosen, best_spread
