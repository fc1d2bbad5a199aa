"""Random permutation — the bale "permute" kernel.

Each PE owns a block of a distributed array and a block of a global
permutation; every element is sent to the PE owning its permuted position.
One message per element: ``(local_slot_at_destination, value)``.
Validation reconstructs the permuted array and compares with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig
from repro.hclib.actor import Actor
from repro.hclib.world import RunResult, run_spmd
from repro.machine.spec import MachineSpec
from repro.sim.rng import pe_rng


@dataclass
class PermuteResult:
    """Outcome of a permutation run."""

    output_per_pe: list[np.ndarray]
    run: RunResult


class _PermuteActor(Actor):
    def __init__(self, ctx, out: np.ndarray,
                 conveyor_config: ConveyorConfig | None) -> None:
        super().__init__(ctx, payload_words=2, conveyor_config=conveyor_config)
        self.out = out

    def process(self, payload, sender_rank: int) -> None:
        slot, value = payload
        self.ctx.compute(ins=5, stores=1)
        self.out[slot] = value

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        self.ctx.compute(ins=5 * len(payloads), stores=len(payloads))
        self.out[payloads[:, 0]] = payloads[:, 1]


def permute(
    elements_per_pe: int,
    machine: MachineSpec,
    profiler=None,
    conveyor_config: ConveyorConfig | None = None,
    batch: bool = True,
    validate: bool = True,
    seed: int = 0,
) -> PermuteResult:
    """Apply a random global permutation to a block-distributed array.

    Element ``g`` (value ``g * 7``) moves to position ``perm[g]``; position
    ``q`` lives on PE ``q // elements_per_pe`` at slot ``q % elements_per_pe``.
    """
    if elements_per_pe < 1:
        raise ValueError("need at least one element per PE")
    n_pes = machine.n_pes
    total = elements_per_pe * n_pes
    # The global permutation must be identical on every PE: derive it from
    # the run seed, independent of per-PE streams.
    perm = pe_rng(seed, 0).permutation(total)

    async def program(ctx):
        me = ctx.my_pe
        out = np.zeros(elements_per_pe, dtype=np.int64)
        actor = _PermuteActor(ctx, out, conveyor_config)
        if not batch:
            actor.mb[0].process_batch = None
        my_globals = np.arange(elements_per_pe, dtype=np.int64) + me * elements_per_pe
        values = my_globals * 7
        targets = perm[my_globals]
        owners = targets // elements_per_pe
        slots = targets % elements_per_pe
        async with ctx.finish():
            actor.start()
            if batch:
                actor.send_batch(owners, np.stack([slots, values], axis=1))
            else:
                for owner, slot, val in zip(owners, slots, values):
                    actor.send((int(slot), int(val)), int(owner))
            actor.done()
        if validate:
            # position q on this PE holds the value whose perm target is q
            inverse = np.argsort(perm)
            expected = inverse[my_globals] * 7
            if not np.array_equal(out, expected):
                raise AssertionError(f"PE {me}: permuted block mismatch")
        return out

    run = run_spmd(program, machine=machine, profiler=profiler,
                   conveyor_config=conveyor_config, seed=seed)
    return PermuteResult(output_per_pe=list(run.results), run=run)
