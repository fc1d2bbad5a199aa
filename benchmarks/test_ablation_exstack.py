"""Ablation: exstack vs Conveyors (the paper's §II-B history, measured).

"The adoption of one-sided puts in a performant manner was shown in 2019
by Conveyors ... by overcoming the bottlenecks of past libraries that
attempted to perform aggregation - exstack (global synchronization
problem) ..."

This bench runs the same skewed histogram through both aggregation
libraries.  With exstack, every PE must join every collective exchange,
so the seven idle PEs march in lockstep with the one busy PE; with
Conveyors, the idle PEs drain early and only the busy PE keeps working.
"""

import numpy as np

from conftest import once
from repro.apps.histogram import histogram_exstack
from repro.conveyors import ConveyorConfig
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec

MACHINE = MachineSpec.perlmutter_like(2, 8)
SKEW = [3000] + [100] * 15
BUFFER = 8


def conveyors_histogram(skew, seed=2):
    cfg = ConveyorConfig(buffer_items=BUFFER)

    async def program(ctx):
        arr = np.zeros(64, dtype=np.int64)

        class A(Actor):
            def __init__(self, c):
                super().__init__(c, conveyor_config=cfg)

            def process(self, idx, sender):
                ctx.compute(ins=6, loads=1, stores=1)
                arr[idx] += 1

        a = A(ctx)
        n = skew[ctx.my_pe]
        dsts = ctx.rng.integers(0, ctx.n_pes, n)
        idxs = ctx.rng.integers(0, 64, n)
        async with ctx.finish():
            a.start()
            for d, i in zip(dsts, idxs):
                ctx.compute(ins=8, loads=2, stores=1)
                a.send(int(i), int(d))
            a.done()
        return int(arr.sum())

    return run_spmd(program, machine=MACHINE, seed=seed, conveyor_config=cfg)


def test_ablation_exstack_vs_conveyors(benchmark):
    def run_both():
        ex = histogram_exstack(SKEW, 64, MACHINE, buffer_items=BUFFER, seed=2)
        conv = conveyors_histogram(SKEW, seed=2)
        return ex, conv

    ex, conv = once(benchmark, run_both)
    assert ex.total_updates == sum(conv.results) == sum(SKEW)

    ex_clocks = np.array(ex.run.clocks)
    conv_clocks = np.array(conv.clocks)
    exchanges = ex.run.world  # not meaningful; report via endpoint count
    print("\n[§II-B] exstack vs Conveyors on a skewed histogram "
          f"(PE0 sends {SKEW[0]}, others {SKEW[1]})")
    print(f"  exstack:   makespan {ex_clocks.max():>12,} cycles, "
          f"min-PE finish {ex_clocks.min():>12,}")
    print(f"  conveyors: makespan {conv_clocks.max():>12,} cycles, "
          f"min-PE finish {conv_clocks.min():>12,}")
    slowdown = ex_clocks.max() / conv_clocks.max()
    print(f"  exstack global-synchronization slowdown: {slowdown:.2f}x")

    # the historical claim: the collective exchanges cost real time
    assert slowdown > 1.3
    # and under exstack even idle PEs finish late (lockstep), while
    # Conveyors' spread is set by genuine work imbalance
    ex_spread = ex_clocks.max() / ex_clocks.min()
    print(f"  exstack finish-time spread across PEs: {ex_spread:.3f} "
          "(lockstep ⇒ ~1.0)")
    assert ex_spread < 1.05
