"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Base class for all simulation-kernel failures."""


class DeadlockError(SimulationError):
    """All PEs are blocked and no future event can unblock any of them.

    Raised by the scheduler when every PE is waiting on a predicate
    that is false, there are no timed wakeups, and the event queue is empty.
    The message includes a per-PE description of what each PE was waiting
    for, which is usually enough to diagnose a missing ``done()`` call or an
    unbalanced collective.
    """


class PEFailure(SimulationError):
    """An exception escaped a PE's program.

    The original exception is available as ``__cause__`` and the failing
    rank as :attr:`rank`.  A negative rank is the scheduler's sentinel for
    its own loop, which runs on the caller's (main) thread — e.g. the
    initial selection failed before any PE ran — and is labelled as such
    rather than blamed on a real PE.
    """

    def __init__(self, rank: int, message: str) -> None:
        label = f"PE {rank}" if rank >= 0 else "main thread (simulation coordinator)"
        super().__init__(f"{label} failed: {message}")
        self.rank = rank


class PECrashed(PEFailure):
    """A PE was killed by an injected crash fault.

    Unlike an ordinary :class:`PEFailure`, an injected crash does **not**
    abort the simulation: surviving PEs keep running (to completion, to a
    broken collective, or to a deadlock), and the scheduler raises this
    afterwards.  The crash site is available as :attr:`rank` /
    :attr:`at_cycle`.
    """

    def __init__(self, rank: int, at_cycle: int, extra: str = "") -> None:
        message = f"injected crash at cycle {at_cycle}"
        if extra:
            message += f"; {extra}"
        super().__init__(rank, message)
        self.at_cycle = at_cycle


class FaultError(SimulationError):
    """An injected fault could not be absorbed by the runtime.

    Raised e.g. when a buffer send is dropped more times than the fault
    plan's retry budget allows.
    """
