"""Distributed sparse-matrix transpose (the bale "transpose" kernel).

Every PE owns the rows ``r`` of a sparse 0/1 matrix with ``r % P == me``
(1D cyclic).  To transpose, each PE sends every stored nonzero ``(r, c)``
as an entry ``(c, r)`` to the owner of row ``c`` of the transpose; the
handler appends to its local rows.  Validation compares against scipy's
transpose exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.hclib.actor import Actor
from repro.hclib.world import RunResult, run_spmd
from repro.machine.spec import MachineSpec


@dataclass
class TransposeResult:
    """Outcome of a distributed transpose."""

    entries: np.ndarray  # (nnz, 2) rows of the transpose, sorted
    run: RunResult


class _TransposeActor(Actor):
    def __init__(self, ctx, collected: list, conveyor_config) -> None:
        super().__init__(ctx, payload_words=2, conveyor_config=conveyor_config)
        self.collected = collected

    def process(self, payload, sender_rank: int) -> None:
        self.ctx.compute(ins=6, stores=2)
        self.collected.append((int(payload[0]), int(payload[1])))

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        self.ctx.compute(ins=6 * len(payloads), stores=2 * len(payloads))
        self.collected.extend(map(tuple, payloads.tolist()))


def transpose(
    entries: np.ndarray,
    n_rows: int,
    n_cols: int,
    machine: MachineSpec,
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    batch: bool = True,
    validate: bool = True,
    seed: int = 0,
) -> TransposeResult:
    """Transpose a sparse matrix given as (row, col) ``entries``.

    Entries are distributed by ``row % n_pes``; the result is gathered
    (and, when ``validate``, compared entry-for-entry with scipy).
    """
    entries = np.asarray(entries, dtype=np.int64)
    if entries.ndim != 2 or entries.shape[1] != 2:
        raise ValueError(f"entries must be (nnz, 2), got {entries.shape}")
    if len(entries) and (entries[:, 0].max() >= n_rows or entries[:, 1].max() >= n_cols):
        raise ValueError("entry index out of bounds")
    n_pes = machine.n_pes

    def program(ctx):
        me = ctx.my_pe
        mine = entries[entries[:, 0] % n_pes == me]
        collected: list[tuple[int, int]] = []
        actor = _TransposeActor(ctx, collected, conveyor_config)
        if not batch:
            actor.mb[0].process_batch = None
        with ctx.finish():
            actor.start()
            if len(mine):
                ctx.compute(ins=4 * len(mine), loads=2 * len(mine))
                owners = mine[:, 1] % n_pes
                flipped = mine[:, [1, 0]]
                if batch:
                    actor.send_batch(owners, flipped)
                else:
                    for (c, r), owner in zip(flipped, owners):
                        actor.send((int(c), int(r)), int(owner))
            actor.done()
        return sorted(collected)

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    gathered = sorted(t for local in run.results for t in local)
    out = (np.array(gathered, dtype=np.int64).reshape(-1, 2)
           if gathered else np.empty((0, 2), dtype=np.int64))
    if validate:
        from scipy import sparse

        data = np.ones(len(entries))
        m = sparse.coo_matrix((data, (entries[:, 0], entries[:, 1])),
                              shape=(n_rows, n_cols))
        t = m.transpose().tocoo()
        expected = sorted(zip(t.row.tolist(), t.col.tolist()))
        if gathered != expected:
            raise AssertionError("distributed transpose disagrees with scipy")
    return TransposeResult(entries=out, run=run)
