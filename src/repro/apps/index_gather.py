"""Index gather — the bale "ig" kernel as a request/response selector.

A distributed table is spread cyclically over PEs; every PE gathers the
values at a list of random global indices.  The selector has two guarded
mailboxes: REQUEST carries ``(local_index, return_slot)`` to the owner,
whose handler responds on RESPONSE with ``(return_slot, value)`` back to
the requester.  Only REQUEST is explicitly ``done()``-ed — RESPONSE
terminates through HClib-Actor's chained mailbox termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.hclib.actor import Selector
from repro.hclib.world import RunResult, run_spmd
from repro.machine.spec import MachineSpec

REQUEST = 0
RESPONSE = 1


@dataclass
class IndexGatherResult:
    """Outcome of an index-gather run."""

    gathered_per_pe: list[np.ndarray]
    run: RunResult


def _table_value(global_idx: np.ndarray | int):
    """The deterministic table contents (validation oracle)."""
    return global_idx * 3 + 1


def index_gather(
    table_size_per_pe: int,
    requests_per_pe: int,
    machine: MachineSpec,
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    validate: bool = True,
    seed: int = 0,
) -> IndexGatherResult:
    """Gather ``requests_per_pe`` random table entries per PE."""
    if table_size_per_pe < 1:
        raise ValueError("table needs at least one entry per PE")
    n_pes = machine.n_pes
    global_size = table_size_per_pe * n_pes

    async def program(ctx):
        me = ctx.my_pe
        # cyclic table layout: global g lives at (g % P, g // P)
        local_globals = np.arange(table_size_per_pe) * n_pes + me
        table = _table_value(local_globals).astype(np.int64)
        tgt = np.full(requests_per_pe, -1, dtype=np.int64)
        sel = Selector(ctx, mailboxes=2, payload_words=2,
                       conveyor_config=conveyor_config)

        def on_request(payload, requester):
            local_idx, slot = payload
            ctx.compute(ins=8, loads=2)
            sel.send(RESPONSE, (slot, int(table[local_idx])), requester)

        def on_response(payload, responder):
            slot, value = payload
            ctx.compute(ins=4, stores=1)
            tgt[slot] = value

        sel.mb[REQUEST].process = on_request
        sel.mb[RESPONSE].process = on_response

        indices = ctx.rng.integers(0, global_size, requests_per_pe)
        async with ctx.finish():
            sel.start()
            for slot, g in enumerate(indices):
                owner = int(g % n_pes)
                local_idx = int(g // n_pes)
                sel.send(REQUEST, (local_idx, slot), owner)
            sel.done(REQUEST)  # RESPONSE terminates via chained done
        if validate:
            expected = _table_value(indices)
            if not np.array_equal(tgt, expected):
                bad = int((tgt != expected).sum())
                raise AssertionError(f"index gather returned {bad} wrong values")
        return tgt

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    return IndexGatherResult(gathered_per_pe=list(run.results), run=run)
