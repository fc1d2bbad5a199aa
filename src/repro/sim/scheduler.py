"""Deterministic cooperative scheduler for simulated PEs.

Each simulated PE runs its SPMD program as a coroutine (``async def``),
and :meth:`CoopScheduler.run` drives all of them from **one plain loop**
— no threads, no event-loop library.  Control changes hands only at
explicit scheduling points (``await`` on :meth:`~CoopScheduler.yield_pe`
/ :meth:`~CoopScheduler.block`, or PE completion): the PE at the point
runs the selection itself, keeps running if it won, and otherwise parks
on a one-slot awaitable while the loop resumes the winner with
``coro.send(None)``.  SPMD layer code keeps straight-line blocking
operations (barriers, finish scopes) — each is one ``await`` — and
execution stays fully deterministic.

Scheduling rule
---------------
At every handoff the scheduler picks, among

* RUNNABLE PEs (key = their virtual clock),
* BLOCKED PEs whose wait predicate is already true (key = their clock),
* BLOCKED PEs with a timed wakeup (key = max(clock, wakeup)),

the candidate with the smallest (time, rank) key.  Injected crashes
(:meth:`CoopScheduler.schedule_crash`) are the only other scheduled
futures: every crash due at a cycle fires, in ``schedule_crash`` order,
strictly before any candidate at or after that cycle.  A crash only
marks its victim; the loop closes the victim's coroutine the next time
it holds control — before any other PE resumes — so the
victim's ``finally`` blocks (``finish_end`` and friends) run at that
fixed point.  If nothing is runnable, no predicate holds, no timed
wakeups exist and no crash is pending while some PE is still blocked, a
:class:`~repro.sim.errors.DeadlockError` is raised with a per-PE wait
report.

Candidate index
---------------
Every candidate's key lives in a flat numpy ``int64`` vector (``_NO_KEY``
marks non-candidates), so one SIMD ``min`` + ``flatnonzero`` replaces an
O(n_pes) Python scan per handoff.
Blocked predicates are **epoch-gated**: a PE that blocks on a predicate
registers with the :class:`WaitChannel` s covering the state it waits on,
and the predicate is only re-evaluated when one of those channels is
notified (a conveyor buffer landed, a conveyor group's quiescence flipped,
a collective released) or a crash fired.  Blocks that pass no channels
fall back to the conservative behaviour — re-evaluation at every
handoff.

The pre-index linear scan is the differential-testing oracle and lives
with the tests (``tests/sched_oracle.py``: a subclass overriding only
``_select_locked``).  Both produce byte-identical traces; the
golden-archive suite pins this.  (There is no lock: the ``_locked``
suffix marks the methods that run between two resumptions.)

Virtual time
------------
Every PE owns a :class:`~repro.sim.clock.CycleClock`.  Picking the
minimum-clock candidate approximates parallel execution: a PE that has done
little simulated work runs before one that is far ahead.  Message
visibility is enforced by the layers above (items carry arrival
timestamps), so the global ordering here only needs to be *fair*, not
strictly conservative.
"""

from __future__ import annotations

import enum
import time
import traceback
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from types import CoroutineType
from typing import Any, Callable, Coroutine, Iterable, Sequence

import numpy as np

from repro.sim.clock import CycleClock, collect_now
from repro.sim.errors import DeadlockError, PECrashed, PEFailure, SimulationError

#: Candidate-key sentinel: this PE is not currently selectable.
_NO_KEY = np.iinfo(np.int64).max


class SchedulePolicy:
    """Pluggable resolution of the scheduler's *don't-care* choices.

    The FA-BSP semantics only pin the selection rule down to a partial
    order: among the candidates sharing the minimum virtual time, any
    pick is a legal schedule (real SHMEM jobs resolve such ties by OS
    noise).  The same freedom exists in the order a PE flushes its
    per-hop conveyor buffers.  ActorCheck (:mod:`repro.check`) exploits
    this seam to re-execute a workload under systematically perturbed
    but legal schedules and diff the traces.

    The base class is the default policy and reproduces the historical
    behavior byte-for-byte: lowest rank wins ties, buffers flush in
    ascending hop order.
    """

    def tie_break(self, time: int, ranks: Sequence[int]) -> int:
        """Pick the PE to run among ``ranks`` (ascending, all eligible
        at virtual ``time``).  Must return one of ``ranks``.  The
        scheduler applies this base rule itself, without calling it."""
        return ranks[0]

    def flush_order(self, pe: int, hops: Sequence[int]) -> Sequence[int]:
        """Order in which PE ``pe`` flushes its non-empty per-hop
        buffers.  ``hops`` arrives ascending; return a permutation."""
        return hops


#: Shared default policy instance (stateless, so sharing is safe).
DEFAULT_POLICY = SchedulePolicy()


class PEState(enum.Enum):
    """Lifecycle of a simulated PE within the scheduler."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    CRASHED = "crashed"


class _Park:
    """The one-slot awaitable a PE suspends on; ``send(None)`` resumes it."""

    __slots__ = ()

    def __await__(self):
        yield


_PARK = _Park()

_MAIN = -1  # sentinel "rank" for the scheduler loop itself


class WaitChannel:
    """A notification channel gating blocked-predicate re-evaluation.

    Layers that own waitable state (a conveyor group's quiescence, a PE's
    inbound buffer list, a collective rendezvous) create one channel per
    unit of state via :meth:`CoopScheduler.channel` and call
    :meth:`notify` whenever that state changes in a way that could flip a
    wait predicate — in either direction.  A PE that blocks with
    ``channels=(ch, ...)`` is only re-examined after one of its channels
    fires; missing a notification would make selection diverge from the
    linear oracle (``tests/sched_oracle.py``), which the differential
    tests and golden archives guard.

    Only one PE executes at a time, and crash firings — the other
    mutation source — run inside selection, so ``notify`` needs no lock.
    """

    __slots__ = ("_sched", "_waiters")

    def __init__(self, sched: "CoopScheduler") -> None:
        self._sched = sched
        self._waiters: set[int] = set()

    def notify(self) -> None:
        """Mark every waiting PE's predicate dirty (cheap if none wait)."""
        if self._waiters:
            self._sched._dirty.update(self._waiters)


@dataclass
class SchedStats:
    """Operation counters for the scheduler hot path (benchmark food)."""

    selections: int = 0       # _select calls (every scheduling point)
    handoffs: int = 0         # control transfers to a different PE
    yield_fast: int = 0       # yields resolved without a handoff
    events_fired: int = 0     # injected crashes fired
    event_batches: int = 0    # distinct cycles at which crashes fired
    pred_evals: int = 0       # blocked-predicate evaluations
    wall_s: float = 0.0       # wall-clock seconds spent inside run()


class _PERecord:
    __slots__ = ("rank", "state", "predicate", "wakeup_time", "reason", "channels")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.state = PEState.NEW
        self.predicate: Callable[[], bool] | None = None
        self.wakeup_time: int | None = None
        self.reason = ""
        self.channels: tuple[WaitChannel, ...] = ()


class CoopScheduler:
    """Runs ``n_pes`` SPMD coroutines cooperatively from one loop.

    Parameters
    ----------
    n_pes:
        Number of simulated processing elements.
    policy:
        Tie-break / flush-order resolution; None means the default
        (byte-identical to historical behaviour).

    Notes
    -----
    The scheduler is single-use: construct one per simulation run.
    """

    def __init__(self, n_pes: int, policy: SchedulePolicy | None = None) -> None:
        if n_pes <= 0:
            raise ValueError(f"need at least one PE, got {n_pes}")
        self.n_pes = n_pes
        self.policy: SchedulePolicy = policy if policy is not None else DEFAULT_POLICY
        #: The base tie_break's pick is argmin's first minimum: no tie list.
        self._lowest_rank_wins = type(self.policy).tie_break is SchedulePolicy.tie_break
        self.clocks: list[CycleClock] = [CycleClock() for _ in range(n_pes)]
        #: Pending injected crashes ``(at_cycle, rank, on_crash)``, by
        #: cycle; ties keep ``schedule_crash`` call order.
        self._crashes: list[tuple] = []
        self.stats = SchedStats()
        self._pes = [_PERecord(r) for r in range(n_pes)]
        self._started = False
        #: The PE the loop resumes when the running one parks (None: nobody).
        self._next: _PERecord | None = None
        #: Crashed PEs whose coroutines the loop has yet to close, in firing order.
        self._doomed: list[int] = []
        # Candidate index.  _keys[r] is PE r's current candidate key
        # (_NO_KEY when not selectable); _dirty holds ranks whose blocked
        # predicate must be re-evaluated before the next selection;
        # _always_dirty holds blocked ranks that gave no channels (the
        # conservative fallback); _blocked_pred tracks every blocked rank
        # with a predicate (a crash firing dirties them all).
        self._keys = np.full(n_pes, _NO_KEY, dtype=np.int64)
        self._dirty: set[int] = set()
        self._always_dirty: set[int] = set()
        self._blocked_pred: set[int] = set()
        self._n_blocked = 0
        #: rank -> virtual crash time for PEs killed by injected faults.
        self.crashed: dict[int, int] = {}
        #: Optional callable appended to deadlock reports (the fault
        #: injector's schedule, when a fault plan is active).
        self.fault_context: Callable[[], str] | None = None
        #: Optional ``(rank, start, end, reason)`` callback fired whenever a
        #: :meth:`block` call resumes with the PE's clock advanced (i.e. the
        #: PE genuinely waited).  Pure observation: it runs in the PE's own
        #: coroutine after it resumed and must not charge cycles.
        self.wait_observer: Callable[[int, int, int, str], None] | None = None

    # ------------------------------------------------------------------
    # Public API used by layer code running *inside* PE coroutines
    # ------------------------------------------------------------------

    def now(self, rank: int) -> int:
        """Current virtual time of PE ``rank``."""
        return self.clocks[rank].now

    def channel(self) -> WaitChannel:
        """Create a :class:`WaitChannel` bound to this scheduler."""
        return WaitChannel(self)

    async def yield_pe(self, rank: int) -> None:
        """Offer control to any PE that is further behind in virtual time.

        Returns without suspending when the caller is still the
        minimum-time candidate.
        """
        rec = self._pes[rank]
        rec.state = PEState.RUNNABLE
        self._keys[rank] = self.clocks[rank].now
        nxt = self._select_locked()
        if nxt is rec:
            rec.state = PEState.RUNNING
            self._keys[rank] = _NO_KEY
            self.stats.yield_fast += 1
            return
        # nxt can be None (everything else DONE) only when a crash fired
        # during selection killed this very PE; the loop then closes it.
        await self._park(nxt)

    async def block(
        self,
        rank: int,
        predicate: Callable[[], bool] | None = None,
        wakeup_time: int | None = None,
        reason: str = "",
        channels: Iterable[WaitChannel] = (),
    ) -> None:
        """Suspend PE ``rank`` until ``predicate()`` holds or ``wakeup_time``.

        At least one of ``predicate`` / ``wakeup_time`` must be given —
        blocking with neither can never end and is rejected eagerly.  When
        resumed because of the timed wakeup, the PE's clock has been
        advanced to ``wakeup_time``; when resumed because the predicate
        turned true, the clock is unchanged (the unblocking layer is
        responsible for arrival-time accounting).

        ``channels`` names the :class:`WaitChannel` s covering every piece
        of state the predicate reads that *other* PEs (or a crash) can
        mutate; the predicate is then re-evaluated only when one of them
        notifies.  An empty ``channels`` keeps the conservative behaviour
        (re-evaluation at every handoff).
        """
        if predicate is None and wakeup_time is None:
            raise SimulationError(
                f"PE {rank} tried to block forever ({reason or 'no reason given'})"
            )
        entered_at = self.clocks[rank].now
        rec = self._pes[rank]
        rec.state = PEState.BLOCKED
        rec.predicate = predicate
        rec.wakeup_time = wakeup_time
        rec.reason = reason
        self._n_blocked += 1
        self._index_block_locked(rec, channels)
        nxt = self._select_locked()
        if nxt is rec:
            self._resume_locked(rec)
        else:
            await self._park(nxt)
        if self.wait_observer is not None:
            now = self.clocks[rank].now
            if now > entered_at:
                self.wait_observer(rank, entered_at, now, reason)

    async def wait_until(
        self,
        rank: int,
        predicate: Callable[[], bool],
        wakeup_fn: Callable[[], int | None] | None = None,
        reason: str = "",
        channels: Iterable[WaitChannel] = (),
    ) -> None:
        """Block repeatedly until ``predicate`` is true.

        ``wakeup_fn``, when given, supplies a timed fallback wakeup for each
        blocking round (e.g. the arrival time of the earliest in-flight
        message).  ``channels`` is forwarded to every :meth:`block` round.
        """
        while not predicate():
            wk = wakeup_fn() if wakeup_fn is not None else None
            await self.block(rank, predicate=predicate, wakeup_time=wk,
                             reason=reason, channels=channels)

    def schedule_crash(
        self,
        rank: int,
        at_cycle: int,
        on_crash: Callable[[int, int], None] | None = None,
    ) -> None:
        """Kill PE ``rank`` at its first scheduling point >= ``at_cycle``.

        The crash does **not** abort the simulation: the victim's coroutine
        is closed (its ``finally`` blocks run) and every other PE keeps
        running (to completion, to a broken collective, or to a deadlock).
        :meth:`run` raises :class:`~repro.sim.errors.PECrashed` afterwards
        so callers know the run is degraded; collected traces stay readable.

        A PE that reaches DONE/FAILED before cycle ``at_cycle`` survives —
        the same way a SIGKILL delivered after ``exit()`` changes nothing.
        ``on_crash(rank, cycle)`` (if given) runs inside selection the
        moment the crash fires; it must be a quick data mutation.
        """
        if not 0 <= rank < self.n_pes:
            raise ValueError(f"cannot crash PE {rank}: only {self.n_pes} PEs")
        if at_cycle < 0:
            raise ValueError(f"crash cycle must be >= 0, got {at_cycle}")
        # inserted after its equals: ties keep call order
        insort(self._crashes, (at_cycle, rank, on_crash), key=itemgetter(0))

    def _crash_locked(
        self,
        at_cycle: int,
        rank: int,
        on_crash: Callable[[int, int], None] | None,
    ) -> None:
        """Fire one pending crash: mark ``rank`` crashed.

        Crashes only ever fire inside selection, so the victim is parked
        (RUNNABLE or BLOCKED) or is the PE running that very selection.
        Either way it is only marked here and queued on ``_doomed``; the
        loop closes its coroutine the next time it holds control, before
        any other PE resumes, so the victim never re-enters user code.
        """
        rec = self._pes[rank]
        if rec.state in (PEState.DONE, PEState.FAILED, PEState.CRASHED):
            return  # finished (or already dead) before the crash landed
        self.clocks[rank].advance_to(at_cycle)
        if rec.state is PEState.BLOCKED:
            self._n_blocked -= 1
        self._index_unblock_locked(rec)
        self._keys[rank] = _NO_KEY
        rec.state = PEState.CRASHED
        rec.predicate = None
        rec.wakeup_time = None
        rec.reason = f"crashed at cycle {at_cycle} (injected fault)"
        self.crashed[rank] = at_cycle
        if on_crash is not None:
            on_crash(rank, at_cycle)
        self._doomed.append(rank)

    # ------------------------------------------------------------------
    # Running the simulation
    # ------------------------------------------------------------------

    def run(self, entry: Callable[[int], Coroutine[Any, Any, Any]]) -> list[Any]:
        """Drive the coroutine ``entry(rank)`` of every PE to completion.

        Returns the per-PE return values.  Raises :class:`PEFailure` if any
        PE's program raised or the simulation wedged (the cause is then a
        :class:`DeadlockError`) — every other PE's coroutine is closed
        first, in rank order — and :class:`PECrashed` after a run that
        completed around injected crashes.
        """
        if self._started:
            raise SimulationError("CoopScheduler.run may only be called once")
        self._started = True
        coros = []
        for rank in range(self.n_pes):
            coro = entry(rank)
            if not isinstance(coro, CoroutineType):
                for started in coros:
                    started.close()
                raise SimulationError(
                    f"PE {rank}: the program returned {type(coro).__name__}, "
                    "not a coroutine — SPMD programs are `async def` functions"
                )
            coros.append(coro)
        results: list[Any] = [None] * self.n_pes
        doomed = self._doomed
        rank = _MAIN
        run_t0 = time.perf_counter()
        self._keys[:] = collect_now(self.clocks)
        for rec in self._pes:
            rec.state = PEState.RUNNABLE
        try:
            nxt = self._select_locked()
            if nxt is not None:
                self._wake_locked(nxt)
            while True:
                while doomed:  # crashed since the loop last held control
                    rank = doomed.pop(0)
                    coros[rank].close()
                if nxt is None:
                    break
                rank = nxt.rank
                try:
                    coros[rank].send(None)
                except StopIteration as stop:
                    results[rank] = stop.value
                    nxt.state = PEState.DONE
                    nxt = self._select_locked()
                    if nxt is not None:
                        self._wake_locked(nxt)
                else:
                    nxt = self._next
        except Exception as exc:  # noqa: BLE001 - report any PE failure
            self.stats.wall_s = time.perf_counter() - run_t0
            if rank >= 0:
                self._pes[rank].state = PEState.FAILED
            for coro in coros:  # unwind every suspended PE, in rank order
                try:
                    coro.close()
                except Exception:  # noqa: BLE001 - the first failure wins
                    pass
            # rank < 0 is the scheduler loop itself (_MAIN): PEFailure
            # labels it as such instead of blaming PE 0.
            tb = "".join(traceback.format_exception(exc))
            raise PEFailure(rank, f"{exc!r}\n{tb}") from exc
        self.stats.wall_s = time.perf_counter() - run_t0
        if self.crashed:
            # The run completed around the dead PE(s); report the first
            # crash so callers know the result is degraded.  Traces
            # collected so far remain readable (salvageable).
            rank = min(self.crashed)
            extra = ""
            if len(self.crashed) > 1:
                others = ", ".join(
                    f"PE {r} at {t}" for r, t in sorted(self.crashed.items())[1:]
                )
                extra = f"also crashed: {others}"
            raise PECrashed(rank, self.crashed[rank], extra)
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _park(self, nxt: _PERecord | None) -> _Park:
        """Hand control to ``nxt`` (None: nobody is left to run) and return
        the awaitable the calling PE suspends on."""
        if nxt is not None:
            self._wake_locked(nxt)
        self._next = nxt
        return _PARK

    def _wake_locked(self, rec: _PERecord) -> None:
        self._resume_locked(rec)
        self.stats.handoffs += 1

    def _resume_locked(self, rec: _PERecord) -> None:
        """Transition a selected PE to RUNNING, applying timed-wakeup time.

        A blocked PE whose predicate is (still) true resumes with its
        clock **unchanged** even when a timed wakeup was set — the
        unblocking layer owns arrival accounting; only a pure timed
        wakeup advances the clock.
        """
        if rec.state is PEState.BLOCKED:
            if rec.wakeup_time is not None:
                pred_ok = rec.predicate is not None and self._safe_pred(rec)
                if not pred_ok:
                    self.clocks[rec.rank].advance_to(rec.wakeup_time)
            self._n_blocked -= 1
            self._index_unblock_locked(rec)
        rec.state = PEState.RUNNING
        rec.predicate = None
        rec.wakeup_time = None
        rec.reason = ""
        self._keys[rec.rank] = _NO_KEY

    def _safe_pred(self, rec: _PERecord) -> bool:
        assert rec.predicate is not None
        self.stats.pred_evals += 1
        return bool(rec.predicate())

    # --- candidate-index bookkeeping ------------------------------------

    def _index_block_locked(
        self, rec: _PERecord, channels: Iterable[WaitChannel]
    ) -> None:
        """Register a freshly blocked PE with the candidate index."""
        rank = rec.rank
        if rec.predicate is not None:
            self._blocked_pred.add(rank)
            chans = tuple(channels)
            if chans:
                rec.channels = chans
                for ch in chans:
                    ch._waiters.add(rank)
                self._keys[rank] = self._predicate_key(rec)
            else:
                # No channels: conservative fallback.  The refresh at the
                # top of every selection computes the key.
                self._always_dirty.add(rank)
                self._keys[rank] = _NO_KEY
        else:
            now = self.clocks[rank].now
            w = rec.wakeup_time
            assert w is not None  # enforced by block()
            self._keys[rank] = now if now > w else w

    def _predicate_key(self, rec: _PERecord) -> int:
        """Evaluate a blocked PE's predicate; return its candidate key."""
        now = self.clocks[rec.rank].now
        if self._safe_pred(rec):
            return now
        w = rec.wakeup_time
        if w is None:
            return _NO_KEY
        return now if now > w else w

    def _index_unblock_locked(self, rec: _PERecord) -> None:
        """Deregister a PE leaving the BLOCKED state from the index."""
        rank = rec.rank
        if rec.channels:
            for ch in rec.channels:
                ch._waiters.discard(rank)
            rec.channels = ()
        self._blocked_pred.discard(rank)
        self._always_dirty.discard(rank)
        self._dirty.discard(rank)

    def _refresh_dirty_locked(self) -> None:
        """Re-evaluate dirtied blocked predicates and update their keys."""
        if self._dirty:
            ranks = self._dirty
            if self._always_dirty:
                ranks = ranks | self._always_dirty
            self._dirty = set()
        elif self._always_dirty:
            ranks = self._always_dirty
        else:
            return
        keys = self._keys
        for rank in ranks:
            rec = self._pes[rank]
            if rec.state is PEState.BLOCKED and rec.predicate is not None:
                keys[rank] = self._predicate_key(rec)

    # --- selection ------------------------------------------------------

    def _select_locked(self) -> _PERecord | None:
        """Pick the next PE to run; fire due crashes as needed.

        Returns None when every PE is DONE (simulation complete).  Raises
        :class:`DeadlockError` when blocked PEs remain but nothing can make
        progress.
        """
        self.stats.selections += 1
        keys = self._keys
        while True:
            if self._dirty or self._always_dirty:
                self._refresh_dirty_locked()
            best = int(keys.argmin())  # position of the FIRST minimum
            m = int(keys[best])
            crashes = self._crashes
            if crashes and (m == _NO_KEY or crashes[0][0] < m):
                # every crash due at this cycle, in schedule_crash order;
                # a dead PE changes which waits can end, so every blocked
                # predicate is dirtied before candidates are re-examined
                self.stats.event_batches += 1
                at_cycle = crashes[0][0]
                while crashes and crashes[0][0] == at_cycle:
                    self._crash_locked(*crashes.pop(0))
                    self.stats.events_fired += 1
                self._dirty.update(self._blocked_pred)
                continue
            if m != _NO_KEY:
                if self._lowest_rank_wins or int(np.count_nonzero(keys == m)) == 1:
                    return self._pes[best]
                ranks = np.flatnonzero(keys == m).tolist()
                chosen = self.policy.tie_break(m, ranks)
                for r in ranks:
                    if r == chosen:
                        return self._pes[r]
                raise SimulationError(
                    f"schedule policy {self.policy!r} picked PE {chosen}, "
                    f"which is not among the tied candidates {ranks}"
                )
            if self._n_blocked:
                raise DeadlockError(self._deadlock_report_locked())
            # No runnable, no blocked, no crashes: everything is DONE/FAILED.
            return None

    def _deadlock_report_locked(self) -> str:
        lines = ["simulation deadlocked; per-PE wait state:"]
        for rec in self._pes:
            if rec.state is PEState.BLOCKED:
                desc = rec.reason or "no reason"
                if rec.wakeup_time is not None:
                    desc += f"; timed wakeup at cycle {rec.wakeup_time}"
                lines.append(
                    f"  PE {rec.rank}: blocked at cycle "
                    f"{self.clocks[rec.rank].now} ({desc})"
                )
            elif rec.state is PEState.CRASHED:
                lines.append(
                    f"  PE {rec.rank}: crashed at cycle "
                    f"{self.crashed.get(rec.rank, 0)} (injected fault)"
                )
            else:
                lines.append(f"  PE {rec.rank}: {rec.state.value}")
        if self._crashes:
            lines.append(
                f"  earliest pending event: cycle {self._crashes[0][0]}")
        else:
            lines.append("  pending events: none")
        if self.fault_context is not None:
            lines.append(self.fault_context())
        return "\n".join(lines)
