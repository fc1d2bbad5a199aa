"""The simulated OpenSHMEM runtime and per-PE context.

:class:`ShmemRuntime` owns global state (heap, collective rendezvous,
call log); :class:`ShmemContext` is the per-PE handle SPMD programs and the
Conveyors layer call into.  All timing flows through the PE's
:class:`~repro.machine.perf.PerfCore`.

Completion semantics of the non-blocking path mirror the real API:

* ``putmem_nbi`` charges only the issue cost on the caller and records the
  transfer's completion time; the payload's remote visibility time is
  returned so the caller (Conveyors) can stamp arrivals.
* ``quiet`` blocks the caller until **all** of its outstanding non-blocking
  puts — to every destination — have completed, exactly the semantics the
  paper leans on when explaining why SKaMPI-style measurement of
  ``shmem_quiet`` does not fit Conveyors.
* ``fence`` only orders; in this simulator (single sequenced delivery per
  pair) it charges a token cost and clears nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.machine.cost import CostModel
from repro.machine.network import NetworkModel
from repro.machine.perf import PerfCore
from repro.machine.spec import MachineSpec
from repro.shmem.heap import SymmetricArray, SymmetricHeap
from repro.sim.clock import advance_all_to, collect_now
from repro.sim.errors import SimulationError
from repro.sim.scheduler import CoopScheduler, WaitChannel

#: Reduction operators accepted by :meth:`ShmemContext.allreduce`.
_REDUCERS: dict[str, Callable[[list[Any]], Any]] = {
    "sum": lambda vals: int(np.sum(vals)) if np.isscalar(vals[0]) else np.sum(vals, axis=0),
    "max": lambda vals: max(vals) if np.isscalar(vals[0]) else np.max(vals, axis=0),
    "min": lambda vals: min(vals) if np.isscalar(vals[0]) else np.min(vals, axis=0),
}


@dataclass(frozen=True)
class ShmemCall:
    """One entry in the runtime's call log (for tests and tracing)."""

    op: str
    src: int
    dst: int
    nbytes: int
    time: int


class _Rendezvous:
    """State for one in-flight collective instance.

    ``wake`` is the :class:`~repro.sim.scheduler.WaitChannel` non-last
    arrivers register with; the releasing PE notifies it so blocked
    participants are re-examined exactly once.  (The other way out of the
    wait — a participant crashing — is an event firing, which dirties every
    predicated-blocked PE by itself.)
    """

    __slots__ = ("kind", "arrived", "released", "result", "release_time", "wake")

    def __init__(self, kind: str, wake: WaitChannel) -> None:
        self.kind = kind
        self.arrived: dict[int, Any] = {}
        self.released = False
        self.result: Any = None
        self.release_time = 0
        self.wake = wake


class ShmemRuntime:
    """Global state of the simulated OpenSHMEM job."""

    def __init__(
        self,
        scheduler: CoopScheduler,
        spec: MachineSpec,
        cost: CostModel | None = None,
        log_calls: bool = False,
    ) -> None:
        if scheduler.n_pes != spec.n_pes:
            raise ValueError(
                f"scheduler has {scheduler.n_pes} PEs but machine spec has {spec.n_pes}"
            )
        self.scheduler = scheduler
        self.spec = spec
        self.cost = cost or CostModel()
        self.network = NetworkModel(spec, self.cost)
        self.heap = SymmetricHeap(spec.n_pes)
        self.perf: list[PerfCore] = [
            PerfCore(scheduler.clocks[r], self.cost) for r in range(spec.n_pes)
        ]
        self.contexts: list[ShmemContext] = [
            ShmemContext(self, r) for r in range(spec.n_pes)
        ]
        self.log_calls = log_calls
        self.calls: list[ShmemCall] = []
        # pshmem-style interposition: observers see every SHMEM call as it
        # happens (the OpenSHMEM Profiling Interface the paper's Section
        # V-B proposes, analogous to MPI's PMPI).
        self._observers: list[Callable[[ShmemCall], None]] = []
        # collective rendezvous, keyed by per-PE collective sequence number
        self._coll_seq = [0] * spec.n_pes
        self._coll: dict[int, _Rendezvous] = {}
        # outstanding non-blocking puts per PE: completion times
        self._pending_nbi: list[list[int]] = [[] for _ in range(spec.n_pes)]
        #: Optional ``(rank, start, end, reason)`` callback fired when a PE
        #: stalls inside :meth:`ShmemContext.quiet` waiting on its own
        #: outstanding puts.  Observation only — never charges cycles.
        self.wait_sink: Callable[[int, int, int, str], None] | None = None
        #: Optional ``(kind, seq, arrivals, release_time)`` callback fired by
        #: the last arriver of a collective, with ``arrivals`` mapping each
        #: participant rank to its pre-release arrival clock.
        self.coll_sink: Callable[[str, int, dict[int, int], int], None] | None = None

    # ------------------------------------------------------------------

    def log(self, op: str, src: int, dst: int, nbytes: int) -> None:
        if not self.log_calls and not self._observers:
            return
        call = ShmemCall(op, src, dst, nbytes, self.scheduler.clocks[src].now)
        if self.log_calls:
            self.calls.append(call)
        for obs in self._observers:
            obs(call)

    def register_observer(self, observer: Callable[[ShmemCall], None]) -> None:
        """Attach a pshmem-style call observer (sees every SHMEM call)."""
        self._observers.append(observer)

    async def rendezvous(self, rank: int, kind: str, value: Any,
                         combine: Callable[[dict[int, Any]], Any]) -> Any:
        """Generic blocking collective.

        Every PE calls with the same ``kind`` at the same collective
        sequence point; the last arriver combines all contributed values,
        stamps everyone's clock with the release time, and releases the
        group.  Returns the combined result.
        """
        seq = self._coll_seq[rank]
        self._coll_seq[rank] += 1
        state = self._coll.get(seq)
        if state is None:
            state = _Rendezvous(kind, self.scheduler.channel())
            self._coll[seq] = state
        elif state.kind != kind:
            raise SimulationError(
                f"collective mismatch at sequence {seq}: PE {rank} called "
                f"{kind!r} but an earlier PE called {state.kind!r}"
            )
        state.arrived[rank] = value
        if len(state.arrived) == self.spec.n_pes:
            # All participants have arrived, so `arrived` covers every rank:
            # snapshot the whole clock set vectorized for the release max.
            latest = int(collect_now(self.scheduler.clocks).max())
            state.release_time = latest + self.cost.collective_cycles(self.spec.n_pes)
            state.result = combine(state.arrived)
            state.released = True
            state.wake.notify()
            if self.coll_sink is not None:
                arrivals = {
                    r: self.scheduler.clocks[r].now for r in state.arrived
                }
                self.coll_sink(kind, seq, arrivals, state.release_time)
            advance_all_to(self.scheduler.clocks, state.release_time)
            del self._coll[seq]
        else:
            # Crash awareness: a participant killed by an injected fault
            # can never arrive, so waiting for it would wedge the run.
            # Detect that eagerly (and mid-wait, via the predicate) and
            # fail with an attributable message instead of a deadlock.
            def broken() -> bool:
                return any(r not in state.arrived for r in self.scheduler.crashed)

            if not broken():
                await self.scheduler.block(
                    rank,
                    predicate=lambda: state.released or broken(),
                    reason=f"collective {kind} #{seq}",
                    channels=(state.wake,),
                )
            if not state.released:
                missing = sorted(
                    r for r in self.scheduler.crashed if r not in state.arrived
                )
                raise SimulationError(
                    f"collective {kind} #{seq} can never complete: "
                    f"PE(s) {missing} crashed before arriving (injected fault)"
                )
        return state.result


class ShmemContext:
    """Per-PE OpenSHMEM API surface.

    SPMD programs receive one of these per rank.  Methods are named after
    their OpenSHMEM counterparts (minus the ``shmem_`` prefix) with
    Pythonic array semantics.
    """

    def __init__(self, runtime: ShmemRuntime, rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.perf = runtime.perf[rank]

    # --- identity ------------------------------------------------------

    @property
    def my_pe(self) -> int:
        """This PE's rank (``shmem_my_pe``)."""
        return self.rank

    @property
    def n_pes(self) -> int:
        """Job size (``shmem_n_pes``)."""
        return self.runtime.spec.n_pes

    @property
    def spec(self) -> MachineSpec:
        return self.runtime.spec

    # --- symmetric heap --------------------------------------------------

    def malloc(self, shape, dtype=np.int64) -> SymmetricArray:
        """Collective symmetric allocation (``shmem_malloc``)."""
        self.perf.work(ins=60, loads=10, stores=10)
        return self.runtime.heap.alloc(self.rank, shape, dtype)

    def mine(self, arr: SymmetricArray) -> np.ndarray:
        """This PE's local backing of a symmetric array."""
        return arr.local(self.rank)

    # --- RMA --------------------------------------------------------------

    def put(self, arr: SymmetricArray, values, target_pe: int, offset: int = 0) -> None:
        """Blocking put of ``values`` into ``arr`` on ``target_pe``."""
        values = np.asarray(values, dtype=arr.dtype)
        nbytes = int(values.nbytes)
        dst = arr.local(target_pe)
        flat = dst.reshape(-1)
        flat[offset : offset + values.size] = values.reshape(-1)
        cycles = self.runtime.network.transfer_cycles(self.rank, target_pe, nbytes)
        self.perf.work(ins=20, loads=4, stores=4, extra_cycles=cycles)
        self.runtime.log("shmem_put", self.rank, target_pe, nbytes)

    def get(self, arr: SymmetricArray, target_pe: int, offset: int = 0, count: int | None = None) -> np.ndarray:
        """Blocking get of ``count`` elements from ``arr`` on ``target_pe``."""
        src = arr.local(target_pe).reshape(-1)
        if count is None:
            count = src.size - offset
        out = src[offset : offset + count].copy()
        nbytes = int(out.nbytes)
        # A get pays the round trip.
        cycles = 2 * self.runtime.network.transfer_cycles(self.rank, target_pe, nbytes)
        self.perf.work(ins=20, loads=4, stores=4, extra_cycles=cycles)
        self.runtime.log("shmem_get", self.rank, target_pe, nbytes)
        return out

    def putmem_nbi(self, arr: SymmetricArray, values, target_pe: int, offset: int = 0) -> int:
        """Non-blocking put; returns the remote-visibility (completion) time.

        The data lands in the target's backing immediately (simulator), but
        the *logical* completion — what ``quiet`` waits on and when the
        receiver may observe it — is the returned cycle.
        """
        values = np.asarray(values, dtype=arr.dtype)
        dst = arr.local(target_pe).reshape(-1)
        dst[offset : offset + values.size] = values.reshape(-1)
        return self.putmem_nbi_raw(target_pe, int(values.nbytes))

    def putmem_nbi_raw(self, target_pe: int, nbytes: int) -> int:
        """Timing/accounting half of ``shmem_putmem_nbi`` (no payload).

        Used by layers (Conveyors) that move payloads through their own
        queues but must preserve SHMEM call timing and ``quiet`` semantics.
        """
        issue = self.runtime.network.issue_cycles(self.rank, target_pe, nbytes)
        self.perf.work(ins=30, loads=6, stores=6, extra_cycles=issue)
        completion = self.runtime.network.arrival_time(
            self.rank, target_pe, nbytes, self.perf.clock.now
        )
        self.runtime._pending_nbi[self.rank].append(completion)
        self.runtime.log("shmem_putmem_nbi", self.rank, target_pe, nbytes)
        return completion

    def quiet(self) -> int:
        """``shmem_quiet``: wait for completion of ALL outstanding nbi puts.

        Returns the cycles spent waiting (excluding the fixed call cost).
        """
        pending = self.runtime._pending_nbi[self.rank]
        target = max(pending, default=0)
        self.perf.work(ins=15, loads=3, extra_cycles=self.runtime.cost.quiet_base_cycles)
        waited = self.perf.stall_until(target)
        pending.clear()
        if waited > 0 and self.runtime.wait_sink is not None:
            now = self.perf.clock.now
            self.runtime.wait_sink(self.rank, now - waited, now, "quiet")
        self.runtime.log("shmem_quiet", self.rank, self.rank, 0)
        return waited

    def fence(self) -> None:
        """``shmem_fence``: order puts per destination (token cost only)."""
        self.perf.work(ins=10, extra_cycles=50)
        self.runtime.log("shmem_fence", self.rank, self.rank, 0)

    def put_signal(self, target_pe: int) -> int:
        """The small signalling ``shmem_put`` used after ``quiet``.

        Returns the signal's arrival time at the target.
        """
        self.perf.work(ins=12, stores=2, extra_cycles=self.runtime.cost.signal_put_cycles)
        arrival = self.runtime.network.arrival_time(
            self.rank, target_pe, 8, self.perf.clock.now
        )
        self.runtime.log("shmem_put", self.rank, target_pe, 8)
        return arrival

    def local_memcpy(self, nbytes: int) -> int:
        """Charge an intra-node ``std::memcpy`` (via ``shmem_ptr``).

        Returns cycles charged.
        """
        self.runtime.log("memcpy", self.rank, self.rank, nbytes)
        return self.perf.memcpy(nbytes)

    # --- atomics -------------------------------------------------------

    def atomic_fetch_add(self, arr: SymmetricArray, value: int, target_pe: int,
                         offset: int = 0) -> int:
        """``shmem_atomic_fetch_add``: remote fetch-and-add (round trip)."""
        target = arr.local(target_pe).reshape(-1)
        old = int(target[offset])
        target[offset] += value
        cycles = 2 * self.runtime.network.transfer_cycles(
            self.rank, target_pe, arr.itemsize
        )
        self.perf.work(ins=18, loads=3, stores=2, extra_cycles=cycles)
        self.runtime.log("shmem_atomic_fetch_add", self.rank, target_pe, arr.itemsize)
        return old

    async def wait_until(self, arr: SymmetricArray, offset: int, predicate) -> None:
        """``shmem_wait_until``: block until ``predicate(local_value)``.

        The predicate is evaluated over this PE's own copy (the usual
        flag-polling idiom); remote writers use puts/atomics to satisfy it.
        """
        mine = arr.local(self.rank).reshape(-1)
        self.perf.work(ins=10, loads=2)
        await self.runtime.scheduler.wait_until(
            self.rank,
            predicate=lambda: bool(predicate(int(mine[offset]))),
            reason="shmem_wait_until",
        )
        self.runtime.log("shmem_wait_until", self.rank, self.rank, arr.itemsize)

    # --- collectives -------------------------------------------------------

    async def barrier_all(self) -> None:
        """``shmem_barrier_all``."""
        self.perf.work(ins=20, extra_cycles=self.runtime.cost.barrier_cycles)
        await self.runtime.rendezvous(self.rank, "barrier", None, lambda a: None)
        self.runtime.log("shmem_barrier_all", self.rank, self.rank, 0)

    async def broadcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root``; other PEs pass anything."""

        def combine(arrived: dict[int, Any]) -> Any:
            return arrived[root]

        self.perf.work(ins=30, loads=5, stores=5)
        return await self.runtime.rendezvous(self.rank, f"broadcast:{root}", value, combine)

    async def allreduce(self, value: Any, op: str = "sum") -> Any:
        """All-reduce a scalar or ndarray with ``op`` in {sum, max, min}."""
        reducer = _REDUCERS.get(op)
        if reducer is None:
            raise ValueError(f"unknown allreduce op {op!r}; want one of {sorted(_REDUCERS)}")

        def combine(arrived: dict[int, Any]) -> Any:
            return reducer([arrived[r] for r in sorted(arrived)])

        self.perf.work(ins=40, loads=8, stores=8)
        return await self.runtime.rendezvous(self.rank, f"allreduce:{op}", value, combine)

    async def exscan(self, value: int, op: str = "sum") -> int:
        """Exclusive prefix reduction over ranks (rank 0 gets the identity).

        The staple collective of bale kernels (e.g. assigning global slots
        from per-PE counts).  Only ``sum`` is supported.
        """
        if op != "sum":
            raise ValueError(f"exscan supports only 'sum', got {op!r}")
        rank = self.rank

        def combine(arrived: dict[int, Any]) -> Any:
            prefix: dict[int, int] = {}
            running = 0
            for r in sorted(arrived):
                prefix[r] = running
                running += arrived[r]
            return prefix

        self.perf.work(ins=35, loads=6, stores=6)
        prefixes = await self.runtime.rendezvous(self.rank, "exscan:sum", int(value), combine)
        return prefixes[rank]

    async def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """All-to-all exchange: PE ``p`` receives ``[contrib[j][p] for j]``."""
        if len(values) != self.n_pes:
            raise ValueError(
                f"alltoall needs exactly n_pes={self.n_pes} values, got {len(values)}"
            )
        rank = self.rank

        def combine(arrived: dict[int, Any]) -> Any:
            # result is the full matrix; each PE slices its column below
            return {r: list(v) for r, v in arrived.items()}

        self.perf.work(ins=50, loads=10, stores=10)
        matrix = await self.runtime.rendezvous(self.rank, "alltoall", list(values), combine)
        return [matrix[j][rank] for j in range(self.n_pes)]
