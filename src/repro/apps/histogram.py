"""The histogram example — the paper's Listings 1 and 2.

Each PE sends ``n_updates`` asynchronous messages to random destinations;
the handler increments a slot of the destination's local array — with no
atomics, because the runtime processes incoming messages one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.hclib.actor import Actor
from repro.hclib.world import RunResult, run_spmd
from repro.machine.cost import CostModel
from repro.machine.spec import MachineSpec


@dataclass
class HistogramResult:
    """Outcome of a histogram run."""

    total_updates: int
    per_pe_received: list[int]
    run: RunResult


class _HistogramActor(Actor):
    """Listing 2's ``MyActor``: ``larray[idx] += 1``, no atomics."""

    def __init__(self, ctx, larray: np.ndarray,
                 conveyor_config: ConveyorConfig | None) -> None:
        super().__init__(ctx, payload_words=1, conveyor_config=conveyor_config)
        self.larray = larray

    def process(self, idx, sender_rank: int) -> None:
        self.ctx.compute(ins=6, loads=1, stores=1)
        self.larray[idx] += 1

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        n = len(payloads)
        self.ctx.compute(ins=6 * n, loads=n, stores=n)
        np.add.at(self.larray, payloads[:, 0], 1)


def histogram_exstack(
    updates_per_pe: list[int] | int,
    table_size: int,
    machine: MachineSpec,
    buffer_items: int = 64,
    validate: bool = True,
    seed: int = 0,
) -> HistogramResult:
    """The histogram over **exstack** (bulk-synchronous aggregation).

    Functionally identical to :func:`histogram` but with collective
    exchanges instead of Conveyors' asynchronous sends — the workload used
    to demonstrate exstack's global synchronization problem (paper §II-B).
    ``updates_per_pe`` may be a single count or per-PE counts (a skewed
    list exposes the problem: everyone synchronizes at the pace of the
    busiest PE).
    """
    from repro.conveyors.exstack import ExstackGroup
    from repro.hclib.world import run_spmd as _run

    if isinstance(updates_per_pe, int):
        updates_per_pe = [updates_per_pe] * machine.n_pes
    if len(updates_per_pe) != machine.n_pes:
        raise ValueError("updates_per_pe must have one entry per PE")
    if table_size < 1:
        raise ValueError("table must have at least one slot")
    counts = list(updates_per_pe)
    group_box: list = [None]

    async def program(ctx):
        if group_box[0] is None:  # symmetric, first PE constructs
            group_box[0] = ExstackGroup(ctx.world.shmem, payload_words=1,
                                        buffer_items=buffer_items)
        ex = group_box[0].endpoints[ctx.my_pe]
        larray = np.zeros(table_size, dtype=np.int64)
        n = counts[ctx.my_pe]
        dsts = ctx.rng.integers(0, ctx.n_pes, n)
        idxs = ctx.rng.integers(0, table_size, n)
        i = 0
        alive = True
        while alive:
            while i < n and ex.push(int(idxs[i]), int(dsts[i])):
                ctx.compute(ins=8, loads=2, stores=1)
                i += 1
            alive = await ex.exchange(done=(i == n))
            while (item := ex.pull()) is not None:
                _src, idx = item
                ctx.compute(ins=6, loads=1, stores=1)
                larray[idx] += 1
        received = int(larray.sum())
        total = await ctx.shmem.allreduce(received, "sum")
        return {"received": received, "total": total}

    run = _run(program, machine=machine, seed=seed)
    total = run.results[0]["total"]
    if validate:
        expected = sum(counts)
        if total != expected:
            raise AssertionError(f"exstack histogram lost updates: "
                                 f"{total} != {expected}")
    return HistogramResult(
        total_updates=total,
        per_pe_received=[r["received"] for r in run.results],
        run=run,
    )


def histogram(
    n_updates: int,
    table_size: int,
    machine: MachineSpec,
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    cost: CostModel | None = None,
    batch: bool = True,
    validate: bool = True,
    seed: int = 0,
    schedule_policy=None,
) -> HistogramResult:
    """Run the Listing 1–2 histogram: ``n_updates`` random sends per PE."""
    if n_updates < 0:
        raise ValueError(f"negative update count: {n_updates}")
    if table_size < 1:
        raise ValueError(f"table must have at least one slot: {table_size}")

    async def program(ctx):
        larray = np.zeros(table_size, dtype=np.int64)  # Listing 1 line 2
        actor = _HistogramActor(ctx, larray, conveyor_config)
        if not batch:
            actor.mb[0].process_batch = None
        dsts = ctx.rng.integers(0, ctx.n_pes, n_updates)
        idxs = ctx.rng.integers(0, table_size, n_updates)
        async with ctx.finish():  # Listing 1 line 4
            actor.start()
            if batch:
                actor.send_batch(dsts, idxs)
            else:
                for dst, idx in zip(dsts, idxs):
                    actor.send(int(idx), int(dst))  # asynchronous SEND
            actor.done()
        received = int(larray.sum())
        total = await ctx.shmem.allreduce(received, "sum")
        return {"received": received, "total": total}

    run = run_spmd(program, machine=machine, cost=cost, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed,
                   schedule_policy=schedule_policy)
    total = run.results[0]["total"]
    if validate:
        expected = n_updates * machine.n_pes
        if total != expected:
            raise AssertionError(f"histogram lost updates: {total} != {expected}")
    return HistogramResult(
        total_updates=total,
        per_pe_received=[r["received"] for r in run.results],
        run=run,
    )
