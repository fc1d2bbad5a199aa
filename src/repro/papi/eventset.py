"""PAPI event sets: start/stop/read/accum over the simulated counters."""

from __future__ import annotations

from repro.machine.counters import CounterBank
from repro.papi.events import is_preset

#: "ActorProf only allows up to four concurrent recording events with the
#: limitation from PAPI" (paper Section III-A).
MAX_EVENTS = 4


class PAPIError(RuntimeError):
    """Raised on PAPI API misuse (mirrors PAPI's negative return codes)."""


class EventSet:
    """A set of up to :data:`MAX_EVENTS` preset events on one PE.

    Usage mirrors the C API::

        es = papi.create_eventset()
        es.add_event("PAPI_TOT_INS")
        es.start()
        ... measured region ...
        values = es.stop()          # deltas since start
    """

    def __init__(self, bank: CounterBank) -> None:
        self._counters = bank.live()
        self._events: list[str] = []
        self._running = False
        #: Values of this set's own events at start/accum/reset: a read
        #: subtracts it, so nothing else of the bank is ever copied.
        self._base: list[int] = []

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(self._events)

    @property
    def running(self) -> bool:
        return self._running

    def add_event(self, name: str) -> None:
        """Add a preset event (fails while running or past the limit)."""
        if self._running:
            raise PAPIError("cannot add events to a running event set")
        if not is_preset(name):
            raise PAPIError(f"event {name!r} is not available")
        if name in self._events:
            raise PAPIError(f"event {name!r} already in event set")
        if len(self._events) >= MAX_EVENTS:
            raise PAPIError(
                f"event set is full ({MAX_EVENTS} concurrent events maximum)"
            )
        self._events.append(name)

    def add_events(self, names) -> None:
        """Add several preset events in order."""
        for name in names:
            self.add_event(name)

    def start(self) -> None:
        """Begin counting (``PAPI_start``)."""
        if self._running:
            raise PAPIError("event set already running")
        if not self._events:
            raise PAPIError("cannot start an empty event set")
        self._rebase()
        self._running = True

    def read(self) -> list[int]:
        """Current deltas since start without stopping (``PAPI_read``)."""
        if not self._running:
            raise PAPIError("event set is not running")
        counters = self._counters
        return [counters[e] - b for e, b in zip(self._events, self._base)]

    def accum(self, values: list[int]) -> list[int]:
        """Add deltas into ``values`` and reset the baseline (``PAPI_accum``)."""
        deltas = self.read()
        if len(values) != len(deltas):
            raise PAPIError(
                f"accum buffer has {len(values)} entries for {len(deltas)} events"
            )
        self._rebase()
        return [v + d for v, d in zip(values, deltas)]

    def stop(self) -> list[int]:
        """Stop counting and return deltas since start (``PAPI_stop``)."""
        values = self.read()
        self._running = False
        return values

    def reset(self) -> None:
        """Zero the counting baseline (``PAPI_reset``)."""
        if not self._running:
            raise PAPIError("event set is not running")
        self._rebase()

    def _rebase(self) -> None:
        counters = self._counters
        self._base = [counters[e] for e in self._events]
