"""Reference counter charging and PAPI event sets (test-only).

The straightforward forms ``repro.machine.perf.PerfCore`` and
``repro.papi.eventset.EventSet`` replaced:

* :class:`OraclePerfCore` charges every block through
  :meth:`OracleBank.charge_block`, which adds all eleven counters — zero
  fields included — and updates every residue on every call;
* :class:`OracleEventSet` snapshots the whole bank at start/accum/reset
  and reads as a dict delta of two snapshots.

``tests/test_perf_oracle.py`` replays random work and event-set
sequences against both and requires identical counters, residues,
clocks, return values and errors.
"""

from __future__ import annotations

from repro.machine.cost import CostModel
from repro.machine.counters import COUNTER_NAMES
from repro.papi.eventset import MAX_EVENTS, PAPIError
from repro.papi.events import is_preset
from repro.sim.clock import CycleClock


class OracleBank:
    """Eleven monotonically increasing counters, charged in bulk."""

    def __init__(self) -> None:
        self.values: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def add(self, name: str, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotonic; got {name} += {amount}")
        if name not in self.values:
            raise KeyError(f"unknown counter {name!r}")
        self.values[name] += int(amount)

    def charge_block(self, ins, loads, stores, branches, flops, vec,
                     l1_misses, l2_misses, branch_misses, cycles) -> None:
        v = self.values
        v["PAPI_TOT_INS"] += int(ins)
        v["PAPI_LST_INS"] += int(loads) + int(stores)
        v["PAPI_LD_INS"] += int(loads)
        v["PAPI_SR_INS"] += int(stores)
        v["PAPI_BR_INS"] += int(branches)
        v["PAPI_FP_OPS"] += int(flops)
        v["PAPI_VEC_INS"] += int(vec)
        v["PAPI_L1_DCM"] += int(l1_misses)
        v["PAPI_L2_DCM"] += int(l2_misses)
        v["PAPI_BR_MSP"] += int(branch_misses)
        v["PAPI_TOT_CYC"] += int(cycles)

    def snapshot(self) -> dict[str, int]:
        return dict(self.values)


def snapshot_delta(later: dict[str, int], earlier: dict[str, int]) -> dict[str, int]:
    """Counter increments between two snapshots."""
    return {k: later.get(k, 0) - earlier.get(k, 0) for k in COUNTER_NAMES}


class OraclePerfCore:
    """One PE's clock + counters + cost model, charged through
    :meth:`OracleBank.charge_block`."""

    def __init__(self, clock: CycleClock, cost: CostModel) -> None:
        self.clock = clock
        self.cost = cost
        self.counters = OracleBank()
        self.rate = 1.0
        self._l1_resid = 0.0
        self._l2_resid = 0.0
        self._br_resid = 0.0

    def work(self, ins=0, loads=0, stores=0, branches=0, flops=0, vec=0,
             extra_cycles=0) -> int:
        if min(ins, loads, stores, branches, flops, vec, extra_cycles) < 0:
            raise ValueError("work amounts must be non-negative")
        cost = self.cost
        self._l1_resid += loads * cost.l1_miss_rate
        l1 = int(self._l1_resid)
        self._l1_resid -= l1
        self._l2_resid += loads * cost.l2_miss_rate
        l2 = int(self._l2_resid)
        self._l2_resid -= l2
        self._br_resid += branches * cost.branch_misp_rate
        br = int(self._br_resid)
        self._br_resid -= br
        cycles = cost.ins_cycles(ins) + extra_cycles
        cycles += int(round(loads * cost.load_fraction_penalty))
        if self.rate != 1.0:
            cycles = int(round(cycles * self.rate))
        self.counters.charge_block(
            ins, loads, stores, branches, flops, vec, l1, l2, br, cycles)
        self.clock._now += cycles
        return cycles

    def stall(self, cycles: int) -> int:
        if cycles < 0:
            raise ValueError(f"negative stall: {cycles}")
        self.counters.add("PAPI_TOT_CYC", cycles)
        self.clock.advance(cycles)
        return cycles

    def stall_until(self, t: int) -> int:
        waited = max(0, t - self.clock.now)
        if waited:
            self.stall(waited)
        return waited

    def memcpy(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError(f"negative memcpy size: {nbytes}")
        line = self.cost.cache_line_bytes
        touches = max(1, (nbytes + line - 1) // line)
        cycles = self.cost.memcpy_cycles(nbytes)
        if self.rate != 1.0:
            cycles = int(round(cycles * self.rate))
        self.counters.charge_block(
            2 * touches, touches, touches, 0, 0, 0, 0, 0, 0, cycles)
        self.clock.advance(cycles)
        return cycles


class OracleEventSet:
    """A PAPI event set that snapshots the whole bank."""

    def __init__(self, bank: OracleBank) -> None:
        self._bank = bank
        self._events: list[str] = []
        self._running = False
        self._base: dict[str, int] | None = None

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(self._events)

    @property
    def running(self) -> bool:
        return self._running

    def add_event(self, name: str) -> None:
        if self._running:
            raise PAPIError("cannot add events to a running event set")
        if not is_preset(name):
            raise PAPIError(f"event {name!r} is not available")
        if name in self._events:
            raise PAPIError(f"event {name!r} already in event set")
        if len(self._events) >= MAX_EVENTS:
            raise PAPIError(
                f"event set is full ({MAX_EVENTS} concurrent events maximum)")
        self._events.append(name)

    def start(self) -> None:
        if self._running:
            raise PAPIError("event set already running")
        if not self._events:
            raise PAPIError("cannot start an empty event set")
        self._base = self._bank.snapshot()
        self._running = True

    def read(self) -> list[int]:
        if not self._running or self._base is None:
            raise PAPIError("event set is not running")
        delta = snapshot_delta(self._bank.snapshot(), self._base)
        return [delta[e] for e in self._events]

    def accum(self, values: list[int]) -> list[int]:
        if not self._running or self._base is None:
            raise PAPIError("event set is not running")
        deltas = self.read()
        if len(values) != len(deltas):
            raise PAPIError(
                f"accum buffer has {len(values)} entries for {len(deltas)} events")
        out = [v + d for v, d in zip(values, deltas)]
        self._base = self._bank.snapshot()
        return out

    def stop(self) -> list[int]:
        values = self.read()
        self._running = False
        self._base = None
        return values

    def reset(self) -> None:
        if not self._running:
            raise PAPIError("event set is not running")
        self._base = self._bank.snapshot()
