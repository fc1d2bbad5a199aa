"""Per-PE PAPI library facade."""

from __future__ import annotations

from repro.machine.counters import CounterBank
from repro.machine.perf import PerfCore
from repro.papi.eventset import EventSet


class PAPI:
    """The PAPI library as seen by one PE.

    Constructed from the PE's :class:`~repro.machine.perf.PerfCore` (or a
    bare :class:`~repro.machine.counters.CounterBank` for unit tests).
    """

    def __init__(self, source: PerfCore | CounterBank) -> None:
        self._bank = source.counters if isinstance(source, PerfCore) else source

    def create_eventset(self) -> EventSet:
        """``PAPI_create_eventset``."""
        return EventSet(self._bank)

