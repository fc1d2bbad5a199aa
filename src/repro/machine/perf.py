"""Per-PE performance core: clock + counters + cost model.

Every simulated layer charges work through a :class:`PerfCore`.  Charging
both advances the PE's virtual cycle clock and increments the counter bank
the simulated PAPI reads, which is what keeps ActorProf's cycle breakdown
(Figs. 12–13) and instruction profiles (Figs. 10–11) mutually consistent.

Synthetic micro-architectural events (cache misses, branch mispredictions)
are derived deterministically from the charged loads/branches using
fractional-residue accumulation — no randomness, so identical programs
yield identical counter values.

A charge is the simulator's most frequent operation, so it touches only
the counters its block changes: a zero field costs one comparison, and
no intermediate object is built.  ``tests/perf_oracle.py`` keeps the
eleven-counter bulk charge as the differential reference.
"""

from __future__ import annotations

from repro.machine.cost import CostModel
from repro.machine.counters import CounterBank
from repro.sim.clock import CycleClock


class PerfCore:
    """The charging interface for one PE.

    Parameters
    ----------
    clock:
        The PE's virtual cycle clock (shared with the scheduler).
    cost:
        Cost table used to convert work into cycles/counters.
    """

    __slots__ = (
        "clock",
        "cost",
        "counters",
        "rate",
        "_count",
        "_l1_resid",
        "_l2_resid",
        "_br_resid",
    )

    def __init__(self, clock: CycleClock, cost: CostModel) -> None:
        self.clock = clock
        self.cost = cost
        self.counters = CounterBank()
        self._count = self.counters.live()
        #: Cycle-time multiplier for this core (slow-PE fault injection:
        #: a throttled core retires the same instructions in more cycles).
        #: Applied to computed work and memcpy, never to ``stall_until`` —
        #: waiting for an absolute arrival time is not compute.
        self.rate = 1.0
        self._l1_resid = 0.0
        self._l2_resid = 0.0
        self._br_resid = 0.0

    # ------------------------------------------------------------------

    def rdtsc(self) -> int:
        """Read the virtual time-stamp counter."""
        return self.clock.now

    def work(
        self,
        ins: int = 0,
        loads: int = 0,
        stores: int = 0,
        branches: int = 0,
        flops: int = 0,
        vec: int = 0,
        extra_cycles: int = 0,
    ) -> int:
        """Charge a block of straight-line work.

        ``ins`` is the *total* instruction count of the block (loads,
        stores, branches, flops and vector instructions are categorised
        subsets, not additions).  Amounts are Python ints; they are added
        to the counters as given.  Returns the cycles charged.
        """
        if (ins < 0 or loads < 0 or stores < 0 or branches < 0 or flops < 0
                or vec < 0 or extra_cycles < 0):
            raise ValueError("work amounts must be non-negative")
        cost = self.cost
        count = self._count
        cycles = int(round(ins * cost.cpi)) + extra_cycles
        if ins:
            count["PAPI_TOT_INS"] += ins
        # A zero field leaves its counters and residues exactly as they
        # were (the residues stay in [0, 1), so adding 0.0 truncates to 0).
        if loads:
            count["PAPI_LD_INS"] += loads
            count["PAPI_LST_INS"] += loads
            resid = self._l1_resid + loads * cost.l1_miss_rate
            misses = int(resid)
            self._l1_resid = resid - misses
            if misses:
                count["PAPI_L1_DCM"] += misses
            resid = self._l2_resid + loads * cost.l2_miss_rate
            misses = int(resid)
            self._l2_resid = resid - misses
            if misses:
                count["PAPI_L2_DCM"] += misses
            penalty = cost.load_fraction_penalty
            if penalty:
                cycles += int(round(loads * penalty))
        if stores:
            count["PAPI_SR_INS"] += stores
            count["PAPI_LST_INS"] += stores
        if branches:
            count["PAPI_BR_INS"] += branches
            resid = self._br_resid + branches * cost.branch_misp_rate
            misses = int(resid)
            self._br_resid = resid - misses
            if misses:
                count["PAPI_BR_MSP"] += misses
        if flops:
            count["PAPI_FP_OPS"] += flops
        if vec:
            count["PAPI_VEC_INS"] += vec
        if self.rate != 1.0:
            cycles = int(round(cycles * self.rate))
        if cycles:
            count["PAPI_TOT_CYC"] += cycles
            # Direct bump instead of CycleClock.advance: cycles is
            # validated non-negative above, and this is the hottest line.
            self.clock._now += cycles
        return cycles

    def stall(self, cycles: int) -> int:
        """Charge pure waiting time (cycles with no retired instructions)."""
        if cycles < 0:
            raise ValueError(f"negative stall: {cycles}")
        self._advance(cycles)
        return cycles

    def stall_until(self, t: int) -> int:
        """Wait until absolute cycle ``t`` (no-op if already past).

        Returns the cycles actually waited.
        """
        waited = max(0, t - self.clock.now)
        if waited:
            self._advance(waited)
        return waited

    def memcpy(self, nbytes: int) -> int:
        """Charge an intra-node memcpy of ``nbytes`` (cycles + counters)."""
        if nbytes < 0:
            raise ValueError(f"negative memcpy size: {nbytes}")
        line = self.cost.cache_line_bytes
        touches = int(max(1, (nbytes + line - 1) // line))
        # A streaming copy retires roughly one load+store pair per line.
        cycles = self.cost.memcpy_cycles(nbytes)
        if self.rate != 1.0:
            cycles = int(round(cycles * self.rate))
        count = self._count
        count["PAPI_TOT_INS"] += 2 * touches
        count["PAPI_LST_INS"] += 2 * touches
        count["PAPI_LD_INS"] += touches
        count["PAPI_SR_INS"] += touches
        count["PAPI_TOT_CYC"] += cycles
        self.clock.advance(cycles)
        return cycles

    def _advance(self, cycles: int) -> None:
        self.counters.add("PAPI_TOT_CYC", cycles)
        self.clock.advance(cycles)
