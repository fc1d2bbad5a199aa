#!/usr/bin/env python
"""Selectors with multiple guarded mailboxes: a request/response service.

Demonstrates the Selector abstraction (an actor with multiple mailboxes,
paper Table I) on a distributed key-value lookup: REQUEST messages carry
``(key_slot, return_slot)`` to the owner, whose handler answers on the
RESPONSE mailbox.  Only REQUEST gets an explicit ``done()`` — RESPONSE
terminates through HClib-Actor's chained mailbox termination — and the
physical trace shows both mailboxes' conveyors at work.

Run:  python examples/selector_request_response.py
"""

import numpy as np

from repro import ActorProf, MachineSpec, ProfileFlags, Selector, run_spmd
from repro.core.report import physical_report

REQUEST, RESPONSE = 0, 1
KEYS_PER_PE = 64
LOOKUPS_PER_PE = 200


async def program(ctx):
    n_pes = ctx.n_pes
    # each PE owns keys k with k % n_pes == my_pe (cyclic layout)
    store = {int(k): int(k) * 10 + ctx.my_pe
             for k in range(ctx.my_pe, KEYS_PER_PE * n_pes, n_pes)}
    answers = np.full(LOOKUPS_PER_PE, -1, dtype=np.int64)

    sel = Selector(ctx, mailboxes=2, payload_words=2)

    def on_request(payload, requester):
        key, slot = payload
        ctx.compute(ins=12, loads=3)
        sel.send(RESPONSE, (slot, store[int(key)]), requester)

    def on_response(payload, responder):
        slot, value = payload
        ctx.compute(ins=4, stores=1)
        answers[slot] = value

    sel.mb[REQUEST].process = on_request
    sel.mb[RESPONSE].process = on_response

    keys = ctx.rng.integers(0, KEYS_PER_PE * n_pes, LOOKUPS_PER_PE)
    async with ctx.finish():
        sel.start()
        for slot, key in enumerate(keys):
            sel.send(REQUEST, (int(key), slot), int(key) % n_pes)
        sel.done(REQUEST)  # RESPONSE is auto-done once REQUEST drains

    expected = keys * 10 + keys % n_pes
    assert np.array_equal(answers, expected), "lookup returned wrong values"
    return LOOKUPS_PER_PE


def main() -> None:
    machine = MachineSpec.perlmutter_like(2, 4)
    profiler = ActorProf(ProfileFlags.all())
    result = run_spmd(program, machine=machine, profiler=profiler, seed=11)
    total = sum(result.results)
    print(f"completed {total} distributed lookups "
          f"({LOOKUPS_PER_PE} per PE x {machine.n_pes} PEs), all validated")
    # Every lookup = 1 REQUEST + 1 RESPONSE logical send.
    print(f"logical sends recorded: {profiler.logical.total_sends()} "
          f"(2 per lookup = {2 * total})")
    assert profiler.logical.total_sends() == 2 * total
    print()
    print(physical_report(profiler.physical,
                          "Physical trace (both mailboxes' conveyors)"))


if __name__ == "__main__":
    main()
