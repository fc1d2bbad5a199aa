"""ActorProf reproduction: FA-BSP profiling and visualization, in Python.

The package reconstructs the full stack of *ActorProf: A Framework for
Profiling and Visualizing Fine-grained Asynchronous Bulk Synchronous
Parallel Execution* (SC 2024) as a simulated system:

========================  ====================================================
Layer                      Subpackage
========================  ====================================================
discrete-event kernel      :mod:`repro.sim`
machine / cost model       :mod:`repro.machine`
OpenSHMEM                  :mod:`repro.shmem`
Conveyors aggregation      :mod:`repro.conveyors`
HClib-Actor runtime        :mod:`repro.hclib`
PAPI counters              :mod:`repro.papi`
**ActorProf (the paper)**  :mod:`repro.core`
graphs & distributions     :mod:`repro.graphs`
FA-BSP applications        :mod:`repro.apps`
========================  ====================================================

Quickstart::

    import numpy as np
    from repro import Actor, ActorProf, MachineSpec, ProfileFlags, run_spmd

    class MyActor(Actor):
        def __init__(self, ctx, larray):
            super().__init__(ctx)
            self.larray = larray
        def process(self, idx, sender_rank):
            self.larray[idx] += 1          # no atomics (Listing 2)

    async def program(ctx):                 # SPMD programs are coroutines
        larray = np.zeros(64, dtype=np.int64)
        actor = MyActor(ctx, larray)
        async with ctx.finish():            # Listing 1
            actor.start()
            for i in range(100):
                actor.send(i % 64, int(ctx.rng.integers(ctx.n_pes)))
            actor.done()
        return int(larray.sum())

    ap = ActorProf(ProfileFlags.all())
    result = run_spmd(program, machine=MachineSpec(2, 16), profiler=ap)
    ap.write_traces("traces/")  # then: actorprof traces/ --num-pes 32 -l -s -p
"""

from repro.conveyors import ConveyorConfig
from repro.core import ActorProf, ProfileFlags
from repro.hclib import Actor, PEContext, RunResult, Selector, run_spmd
from repro.machine import CostModel, MachineSpec

__version__ = "1.0.0"

__all__ = [
    "Actor",
    "ActorProf",
    "ConveyorConfig",
    "CostModel",
    "MachineSpec",
    "PEContext",
    "ProfileFlags",
    "RunResult",
    "Selector",
    "run_spmd",
    "__version__",
]
