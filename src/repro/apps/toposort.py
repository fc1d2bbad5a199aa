"""Distributed toposort (the flagship bale kernel).

Given a sparse matrix that is a randomly row/column-permuted
upper-triangular matrix with full diagonal, recover row and column
permutations that make it upper triangular again.

The asynchronous actor algorithm (the form bale uses to showcase
aggregation): a row with exactly one remaining nonzero is a *pivot* —
its row and that column are assigned the highest unassigned position
(counting down from n−1 via a remote fetch-and-add), then the column is
"deleted": every other row with a nonzero in it gets a decrement message.
Rows reaching count one inside the handler become pivots immediately, so
the whole elimination cascades through message handlers within a single
finish scope — no level barriers at all.

Bookkeeping trick (also from bale): alongside each row's remaining count
keep the *sum* of its remaining column indices; when the count hits one,
the surviving column is exactly that sum.

Validated like bale: the returned permutations must be bijections and
place every original nonzero on or above the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.hclib.actor import Selector
from repro.hclib.world import RunResult, run_spmd
from repro.machine.spec import MachineSpec
from repro.sim.rng import pe_rng

#: message kinds (word 0 of each payload)
_DELETE_COL = 0
_DECREMENT = 1


def make_toposort_input(n: int, extra_per_row: int = 3, seed: int = 0
                        ) -> np.ndarray:
    """A permuted unit-upper-triangular test matrix as (row, col) entries.

    Starts from U with full diagonal plus up to ``extra_per_row`` random
    entries above the diagonal per row, then applies independent random
    row and column permutations — the standard bale generator shape.
    """
    if n < 1:
        raise ValueError("matrix must have at least one row")
    rng = pe_rng(seed, 0)
    rows = [np.arange(n), ]
    cols = [np.arange(n), ]
    for _ in range(extra_per_row):
        r = rng.integers(0, n, n)
        off = rng.integers(1, n + 1, n)
        c = r + off
        keep = c < n
        rows.append(r[keep])
        cols.append(c[keep])
    entries = np.unique(
        np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1), axis=0
    )
    rp = rng.permutation(n)
    cp = rng.permutation(n)
    permuted = np.stack([rp[entries[:, 0]], cp[entries[:, 1]]], axis=1)
    order = np.lexsort((permuted[:, 1], permuted[:, 0]))
    return permuted[order]


@dataclass
class ToposortResult:
    """Outcome: position of each row / column in the recovered ordering."""

    row_perm: np.ndarray
    col_perm: np.ndarray
    run: RunResult


def toposort(
    entries: np.ndarray,
    n: int,
    machine: MachineSpec,
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    validate: bool = True,
    seed: int = 0,
) -> ToposortResult:
    """Recover upper-triangularizing permutations of an ``n × n`` matrix."""
    entries = np.asarray(entries, dtype=np.int64)
    if entries.ndim != 2 or entries.shape[1] != 2:
        raise ValueError(f"entries must be (nnz, 2), got {entries.shape}")
    n_pes = machine.n_pes
    # column → rows lookup, owned cyclically by column
    col_rows: dict[int, list[int]] = {}
    for r, c in entries.tolist():
        col_rows.setdefault(c, []).append(r)

    async def program(ctx):
        me = ctx.my_pe
        # per-owned-row state
        my_rows = entries[entries[:, 0] % n_pes == me]
        rowcnt: dict[int, int] = {}
        rowsum: dict[int, int] = {}
        for r, c in my_rows.tolist():
            rowcnt[r] = rowcnt.get(r, 0) + 1
            rowsum[r] = rowsum.get(r, 0) + c
        row_pos: dict[int, int] = {}
        pos_counter = ctx.shmem.malloc(1, np.int64)  # lives on PE 0

        sel = Selector(ctx, mailboxes=1, payload_words=2,
                       conveyor_config=conveyor_config)

        def claim_position() -> int:
            # positions are handed out from n-1 downward
            k = ctx.shmem.atomic_fetch_add(pos_counter, 1, 0)
            return n - 1 - k

        def retire_pivot(r: int, c: int) -> None:
            """Row r's only remaining nonzero is column c: assign both."""
            pos = claim_position()
            row_pos[r] = pos
            rowcnt[r] = 0
            # ask the column's owner to broadcast the deletion
            sel.send(0, (_DELETE_COL, c), c % n_pes)

        def handler(payload, sender_rank):
            kind, x = int(payload[0]), int(payload[1])
            ctx.compute(ins=12, loads=4, branches=2)
            if kind == _DELETE_COL:
                c = x
                for r2 in col_rows.get(c, ()):
                    sel.send(0, (_DECREMENT, _encode(r2, c)), r2 % n_pes)
            else:
                r2, c = _decode(x)
                if rowcnt.get(r2, 0) == 0:
                    return  # row already retired (its own pivot entry)
                rowcnt[r2] -= 1
                rowsum[r2] -= c
                if rowcnt[r2] == 1:
                    retire_pivot(r2, rowsum[r2])

        sel.mb[0].process = handler
        async with ctx.finish():
            sel.start()
            for r, cnt in list(rowcnt.items()):
                if cnt == 1:
                    retire_pivot(r, rowsum[r])
            sel.done(0)
        return row_pos

    # Column positions equal their pivot row's position; reconstruct them
    # from the row positions and the pivot pairing (the surviving column of
    # row r when it retired). Rather than thread that through messages, we
    # recompute it: row r's pivot column is rowsum at retirement — recover
    # by replaying assignment order. Simpler and robust: run the program,
    # then pair columns by the diagonal entries of the recovered ordering.
    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    row_pos = np.full(n, -1, dtype=np.int64)
    for local in run.results:
        for r, p in local.items():
            row_pos[r] = p
    if validate and (row_pos < 0).any():
        missing = int((row_pos < 0).sum())
        raise AssertionError(
            f"toposort did not retire {missing} rows — input not a permuted "
            "upper-triangular matrix?"
        )
    # Each position was claimed by exactly one (row, col) pivot pair; the
    # column of row r's pivot is the one that makes the matrix triangular:
    # replay deterministically from the row order (highest position first).
    col_pos = np.full(n, -1, dtype=np.int64)
    remaining_cnt = np.zeros(n, dtype=np.int64)
    remaining_sum = np.zeros(n, dtype=np.int64)
    for r, c in entries.tolist():
        remaining_cnt[r] += 1
        remaining_sum[r] += c
    deleted = np.zeros(n, dtype=bool)
    for r in np.argsort(-row_pos):  # retirement order: position n-1 first
        c = int(remaining_sum[r])
        col_pos[c] = row_pos[r]
        deleted[c] = True
        for r2 in col_rows.get(c, ()):
            if remaining_cnt[r2] > 0 and r2 != r:
                remaining_cnt[r2] -= 1
                remaining_sum[r2] -= c
        remaining_cnt[r] = 0
    if validate:
        _validate(entries, row_pos, col_pos, n)
    return ToposortResult(row_perm=row_pos, col_perm=col_pos, run=run)


def _encode(r: int, c: int) -> int:
    return (r << 32) | c


def _decode(x: int) -> tuple[int, int]:
    return x >> 32, x & 0xFFFFFFFF


def _validate(entries: np.ndarray, row_pos: np.ndarray, col_pos: np.ndarray,
              n: int) -> None:
    if sorted(row_pos.tolist()) != list(range(n)):
        raise AssertionError("row positions are not a permutation")
    if sorted(col_pos.tolist()) != list(range(n)):
        raise AssertionError("column positions are not a permutation")
    rp = row_pos[entries[:, 0]]
    cp = col_pos[entries[:, 1]]
    if (rp > cp).any():
        bad = int((rp > cp).sum())
        raise AssertionError(
            f"{bad} entries land below the diagonal — not upper triangular"
        )
