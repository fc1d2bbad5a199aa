"""Per-PE hardware-counter state.

:class:`CounterBank` is the substrate the simulated PAPI layer reads: a set
of monotonically increasing counters per PE, incremented by the cost-model
charging in :class:`~repro.machine.perf.PerfCore`.  Counter names use the
PAPI preset spellings so the PAPI layer maps onto them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Counters maintained for every PE.  Everything here is derivable from the
#: charged work plus the synthetic miss/misprediction rates in
#: :class:`~repro.machine.cost.CostModel`.
COUNTER_NAMES: tuple[str, ...] = (
    "PAPI_TOT_INS",  # total retired instructions
    "PAPI_TOT_CYC",  # total cycles
    "PAPI_LST_INS",  # load/store instructions
    "PAPI_LD_INS",   # load instructions
    "PAPI_SR_INS",   # store instructions
    "PAPI_BR_INS",   # branch instructions
    "PAPI_BR_MSP",   # mispredicted branches
    "PAPI_L1_DCM",   # L1 data-cache misses
    "PAPI_L2_DCM",   # L2 data-cache misses
    "PAPI_FP_OPS",   # floating-point operations
    "PAPI_VEC_INS",  # vector/SIMD instructions
)


@dataclass(frozen=True)
class CounterSnapshot:
    """An immutable point-in-time copy of a :class:`CounterBank`."""

    values: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.values.get(name, 0)


class CounterBank:
    """Mutable counter state for one PE.

    Counters never decrease.  The bank does not know about regions or event
    sets; that logic lives in :mod:`repro.papi`, which keeps its own
    baseline of the few counters it measures and reads by subtraction,
    mirroring how real PAPI reads MSRs.
    """

    __slots__ = ("_v",)

    def __init__(self) -> None:
        self._v: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def add(self, name: str, amount: int) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters are monotonic; got {name} += {amount}")
        if name not in self._v:
            raise KeyError(f"unknown counter {name!r}")
        self._v[name] += int(amount)

    def live(self) -> dict[str, int]:
        """The bank's own name → value dict, updated in place by charges.

        For the hot readers and writers (``PerfCore`` charging, event-set
        baselines, the profiler's region hooks) that must not pay for a
        method call or a copy per access.  Readers must not write to it.
        """
        return self._v

    def read(self, name: str) -> int:
        """Current value of counter ``name``."""
        return self._v[name]

    def snapshot(self) -> CounterSnapshot:
        """An immutable copy of all counters."""
        return CounterSnapshot(dict(self._v))

    def names(self) -> tuple[str, ...]:
        return COUNTER_NAMES
