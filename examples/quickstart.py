#!/usr/bin/env python
"""Quickstart: the paper's Listings 1–2, profiled end to end.

Runs the histogram actor program (each PE sends N random increments to
random PEs) on a simulated 2-node × 8-PE cluster with every ActorProf
capability enabled, prints the text reports, and writes the trace files +
SVG charts to ``quickstart_traces/``.

Run:  python examples/quickstart.py
Then: actorprof quickstart_traces/ --num-pes 16 -l -lp -s -p --violin
"""

import numpy as np

from repro import Actor, ActorProf, MachineSpec, ProfileFlags, run_spmd
from repro.core.report import mosaic_report, overall_report, physical_report
from repro.core.viz import heatmap_svg, stacked_bar_graph

N_UPDATES = 500
TABLE_SIZE = 256


class MyActor(Actor):
    """Listing 2: a single-mailbox actor whose handler needs no atomics."""

    def __init__(self, ctx, larray):
        super().__init__(ctx, payload_words=1)
        self.larray = larray

    def process(self, idx, sender_rank):
        self.larray[idx] += 1  # runtime delivers one message at a time


async def program(ctx):
    """Listing 1: allocate, start, send asynchronously, done, finish."""
    larray = np.zeros(TABLE_SIZE, dtype=np.int64)
    actor = MyActor(ctx, larray)
    async with ctx.finish():
        actor.start()
        for i in range(N_UPDATES):
            dst = int(ctx.rng.integers(0, ctx.n_pes))
            actor.send(i % TABLE_SIZE, dst)  # asynchronous SEND
        actor.done()
    # the finish guarantees every message above has been processed
    return int(larray.sum())


def main() -> None:
    machine = MachineSpec.perlmutter_like(nodes=2, pes_per_node=8)
    profiler = ActorProf(ProfileFlags.all())
    result = run_spmd(program, machine=machine, profiler=profiler, seed=42)

    total = sum(result.results)
    expected = N_UPDATES * machine.n_pes
    print(f"histogram total: {total} (expected {expected})")
    assert total == expected

    print()
    print(mosaic_report(profiler.logical, "Logical trace (pre-aggregation sends)"))
    print()
    print(physical_report(profiler.physical, "Physical trace (Conveyors buffers)"))
    print()
    print(overall_report(profiler.overall, "Overall breakdown (rdtsc cycles)"))

    outdir = "quickstart_traces"
    written = profiler.write_traces(outdir)
    print(f"\ntrace files written to {outdir}/: "
          f"{sorted(str(p) for v in written.values() for p in (v if isinstance(v, list) else [v]))}")

    with open(f"{outdir}/logical_heatmap.svg", "w") as f:
        f.write(heatmap_svg(profiler.logical.matrix(), title="Quickstart logical trace"))
    with open(f"{outdir}/overall_relative.svg", "w") as f:
        f.write(stacked_bar_graph(profiler.overall, relative=True))
    print(f"charts: {outdir}/logical_heatmap.svg, {outdir}/overall_relative.svg")


if __name__ == "__main__":
    main()
