"""Discrete-event simulation kernel.

This package provides the execution substrate every simulated runtime layer
(:mod:`repro.shmem`, :mod:`repro.conveyors`, :mod:`repro.hclib`) is built on:

* :class:`~repro.sim.clock.CycleClock` — per-PE virtual cycle counters
  (the simulated ``rdtsc``).
* :class:`~repro.sim.scheduler.CoopScheduler` — a deterministic cooperative
  scheduler that drives one ``async def`` coroutine per simulated PE from
  a single loop, resuming one PE at a time, selected by (virtual clock,
  rank).  What a
  PE waits on — message arrivals, collectives — is a timed wakeup or a
  :class:`~repro.sim.scheduler.WaitChannel` notification; the only other
  scheduled future is an injected crash (:mod:`repro.sim.faults`).

The kernel is deliberately independent of any networking or SPMD semantics;
those live in the layers above.
"""

from repro.sim.clock import CycleClock
from repro.sim.errors import (
    DeadlockError,
    FaultError,
    PECrashed,
    PEFailure,
    SimulationError,
)
from repro.sim.faults import (
    CrashFault,
    EdgeFault,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    SlowPE,
    current_plan,
    use_plan,
)
from repro.sim.rng import pe_rng, spawn_rngs
from repro.sim.scheduler import (
    CoopScheduler,
    PEState,
    SchedStats,
    SchedulePolicy,
    WaitChannel,
)

__all__ = [
    "CrashFault",
    "CycleClock",
    "CoopScheduler",
    "DeadlockError",
    "EdgeFault",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "PECrashed",
    "PEFailure",
    "PEState",
    "SchedStats",
    "SchedulePolicy",
    "SimulationError",
    "SlowPE",
    "WaitChannel",
    "current_plan",
    "pe_rng",
    "spawn_rngs",
    "use_plan",
]
