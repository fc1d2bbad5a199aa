"""The FA-BSP world: SPMD launch, per-PE contexts, and finish scopes.

:func:`run_spmd` is the top-level entry point of the whole simulated
stack: it assembles scheduler → shmem → conveyors → actors, runs one copy
of the program per PE, and returns the per-PE results.

Region accounting: a :class:`PEContext` tracks whether the PE is executing
user MAIN code (inside a finish body, outside runtime internals) and emits
``main_enter``/``main_exit`` hook events on every transition, so an
attached profiler measures MAIN as exactly "finish body minus send
internals" (paper Table I).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Coroutine, Sequence

import numpy as np

from repro.conveyors.conveyor import ConveyorConfig, ConveyorGroup
from repro.conveyors.hooks import NullTraceSink, TraceSink
from repro.hclib.hooks import NullHooks, RuntimeHooks
from repro.machine.cost import CostModel
from repro.machine.spec import MachineSpec
from repro.shmem.runtime import ShmemContext, ShmemRuntime
from repro.sim.errors import SimulationError
from repro.sim.faults import FaultInjector, FaultPlan, current_plan
from repro.sim.rng import spawn_rngs
from repro.sim.scheduler import CoopScheduler, SchedulePolicy


class _SelectorSlot:
    """Symmetric (collective) state of one Selector across PEs."""

    def __init__(
        self,
        world: "World",
        mailboxes: int,
        payload_words: list[int],
        config: ConveyorConfig,
    ) -> None:
        self.mailboxes = mailboxes
        self.payload_words = payload_words
        self.config = config
        self.groups = [
            ConveyorGroup(
                world.shmem,
                replace(config, payload_words=w),
                tracer=world.physical_tracer,
                faults=world.faults,
                policy=world.schedule_policy,
            )
            for w in payload_words
        ]


class World:
    """Everything global to one simulated FA-BSP job."""

    def __init__(
        self,
        spec: MachineSpec,
        cost: CostModel | None = None,
        conveyor_config: ConveyorConfig | None = None,
        hooks: RuntimeHooks | None = None,
        physical_tracer: TraceSink | None = None,
        seed: int = 0,
        log_shmem_calls: bool = False,
        fault_plan: FaultPlan | None = None,
        schedule_policy: SchedulePolicy | None = None,
    ) -> None:
        self.spec = spec
        self.scheduler = CoopScheduler(spec.n_pes, policy=schedule_policy)
        self.schedule_policy: SchedulePolicy = self.scheduler.policy
        self.shmem = ShmemRuntime(self.scheduler, spec, cost=cost, log_calls=log_shmem_calls)
        self.cost = self.shmem.cost
        self.conveyor_config = conveyor_config or ConveyorConfig()
        self.hooks: RuntimeHooks = hooks if hooks is not None else NullHooks()
        self.physical_tracer: TraceSink = (
            physical_tracer if physical_tracer is not None else NullTraceSink()
        )
        self.seed = seed
        self.rngs = spawn_rngs(seed, spec.n_pes)
        # Fault injection: an explicit plan wins; otherwise pick up the
        # ambient `use_plan(...)` default so apps that build their own
        # World (everything in repro.apps) become fault-testable without
        # signature changes.
        plan = fault_plan if fault_plan is not None else current_plan()
        self.fault_plan = plan
        self.faults: FaultInjector | None = None
        if plan is not None and not plan.empty:
            self.faults = FaultInjector(plan, spec.n_pes)
            for crash in plan.crashes:
                self.scheduler.schedule_crash(
                    crash.pe, crash.at_cycle, on_crash=self.faults.note_crash
                )
            for slow in plan.slow_pes:
                self.shmem.perf[slow.pe].rate = slow.multiplier
                self.faults.note("slow", slow.pe, -1, 0, f"x{slow.multiplier:g}")
            self.scheduler.fault_context = self.faults.describe_schedule
        self.contexts = [PEContext(self, r) for r in range(spec.n_pes)]
        self._slots: list[_SelectorSlot] = []
        self._slot_cursor = [0] * spec.n_pes

    def _selector_slot(
        self,
        rank: int,
        mailboxes: int,
        payload_words: list[int],
        config: ConveyorConfig | None,
    ) -> _SelectorSlot:
        """Symmetric selector construction (like symmetric malloc)."""
        config = config or self.conveyor_config
        idx = self._slot_cursor[rank]
        self._slot_cursor[rank] += 1
        if idx < len(self._slots):
            slot = self._slots[idx]
            if slot.mailboxes != mailboxes or slot.payload_words != payload_words:
                raise SimulationError(
                    f"selector construction #{idx} diverged across PEs: "
                    f"PE {rank} built {mailboxes} mailboxes / {payload_words} words, "
                    f"earlier PEs built {slot.mailboxes} / {slot.payload_words}"
                )
            return slot
        slot = _SelectorSlot(self, mailboxes, payload_words, config)
        self._slots.append(slot)
        return slot

    def run(self, program: Callable[["PEContext"], Coroutine[Any, Any, Any]]) -> list[Any]:
        """Execute the ``async def`` ``program(ctx)`` on every PE; returns
        per-PE results.  A program that does not return a coroutine is a
        :class:`SimulationError` naming the PE."""
        contexts = self.contexts
        return self.scheduler.run(lambda rank: program(contexts[rank]))


class FinishScope:
    """``hclib::finish``: waits for all sends to land and be processed.

    An async context manager: ``async with ctx.finish():`` — leaving the
    body awaits the drain.
    """

    def __init__(self, ctx: "PEContext") -> None:
        self.ctx = ctx
        self.selectors: list = []
        self._tasks: list = []
        self._refresh()

    def _refresh(self) -> None:
        """Rebuild the flat views of the registered selectors the drain
        predicates read.  Handlers can register new selectors mid-drain,
        so every reader rebuilds them whenever the selector count moved.

        ``_mailboxes`` holds every selector mailbox, ``_groups`` their
        conveyor groups, ``_chained`` the selectors with more than one
        mailbox (only those can have a chained done pending), and
        ``_channels`` the WaitChannels covering everything the predicates
        read: per mailbox, the group's quiescence channel and this PE's
        endpoint delivery channel.
        """
        sels = self.selectors
        self._mailboxes = tuple(mb for s in sels for mb in s.mb)
        self._groups = tuple(mb.conveyor.group for mb in self._mailboxes)
        self._chained = tuple(s for s in sels if len(s.mb) > 1)
        self._channels = tuple(
            ch for mb in self._mailboxes
            for ch in (mb.conveyor.group.wake, mb.conveyor.inbox_wake))
        self._flat_for = len(sels)

    def _all_complete(self) -> bool:
        """Every registered selector's conveyors are globally quiescent."""
        if self._flat_for != len(self.selectors):
            self._refresh()
        for group in self._groups:
            if not group.quiescent:
                return False
        return True

    def _visible(self) -> bool:
        """Actionable work now: an inbound buffer visible at this PE's
        clock, a ready message its mailbox guard admits, or a chained done
        ready to fire."""
        if self._flat_for != len(self.selectors):
            self._refresh()
        now = self.ctx.perf.clock.now
        for mb in self._mailboxes:
            cv = mb.conveyor
            arrival = cv._min_arrival
            if arrival is not None and arrival <= now:
                return True
            if cv.ready._count and mb.enabled():
                return True
        for s in self._chained:
            if s._cascade_pending():
                return True
        return False

    def _arrived(self) -> bool:
        """Wake predicate while buffers are in flight to this PE."""
        return self._all_complete() or self._visible()

    def _idle_over(self) -> bool:
        """Wake predicate while nothing is in flight to this PE: anything
        delivered here (even future-stamped — the drain then re-blocks
        with its arrival time), a ready message its guard now admits
        (guard-disabled ones do not count: waking for them would livelock
        the drain, and the deadlock report names a guard that never
        opens), global quiescence, or a chained done ready to fire."""
        if self._all_complete():
            return True
        for mb in self._mailboxes:
            cv = mb.conveyor
            if cv.inbound or (cv.ready._count and mb.enabled()):
                return True
        for s in self._chained:
            if s._cascade_pending():
                return True
        return False

    def _register(self, selector) -> None:
        self.selectors.append(selector)

    def _run_pending_tasks(self) -> int:
        """Execute queued async tasks (MAIN region), FIFO."""
        ctx = self.ctx
        ran = 0
        while self._tasks:
            fn = self._tasks.pop(0)
            ctx._enter_main()
            try:
                fn()
            finally:
                ctx._exit_main()
            ran += 1
        return ran

    async def __aenter__(self) -> "FinishScope":
        ctx = self.ctx
        ctx._finish_stack.append(self)
        ctx.world.hooks.finish_start(ctx.rank)
        ctx._enter_main()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        ctx = self.ctx
        ctx._exit_main()
        try:
            if exc_type is None:
                await self._drain()
        finally:
            ctx._finish_stack.pop()
            ctx.world.hooks.finish_end(ctx.rank)

    async def _drain(self) -> None:
        """Run handlers until every registered selector is complete."""
        ctx = self.ctx
        rank = ctx.rank
        scheduler = ctx.scheduler
        sels = self.selectors
        # Async tasks deferred in the body run first — they may send and
        # may be the ones calling done() (the HClib async idiom).
        self._run_pending_tasks()
        # Only the entry mailbox needs an explicit done(); later mailboxes
        # terminate via chained cascade when their predecessor completes.
        missing = [
            i for i, s in enumerate(sels) if not s.mb[0].done_called
        ]
        if missing:
            raise SimulationError(
                f"PE {rank}: finish scope ended but done() was never called "
                f"on mailbox 0 of selector(s) {missing}; the finish would wait "
                "forever"
            )
        while not self._all_complete() or self._tasks:
            handled = self._run_pending_tasks()  # handlers may spawn tasks
            for s in sels:
                handled += s._progress()
            if self._all_complete() and not self._tasks:
                break
            if handled == 0 and not self._visible():
                arrivals = [t for mb in self._mailboxes
                            if (t := mb.conveyor._min_arrival) is not None]
                if arrivals:
                    # Buffers are in flight to us: sleep until the earliest
                    # lands (or something becomes visible / all complete).
                    await scheduler.block(
                        rank,
                        predicate=self._arrived,
                        wakeup_time=min(arrivals),
                        reason="finish drain (awaiting arrival)",
                        channels=self._channels,
                    )
                else:
                    # Nothing in flight to us yet.  The cascade clause of
                    # the wake predicate matters: group completion needs
                    # done() from EVERY endpoint, so an idle PE must wake
                    # to cascade its own — without it, a PE that drained
                    # its messages before the predecessor mailbox completed
                    # globally sleeps forever and the finish deadlocks.
                    await scheduler.block(
                        rank,
                        predicate=self._idle_over,
                        reason="finish drain (idle)",
                        channels=self._channels,
                    )
            else:
                await scheduler.yield_pe(rank)


class PEContext:
    """Per-PE handle passed to SPMD programs."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.shmem: ShmemContext = world.shmem.contexts[rank]
        self.perf = world.shmem.perf[rank]
        self.scheduler = world.scheduler
        self.rng: np.random.Generator = world.rngs[rank]
        self._finish_stack: list[FinishScope] = []
        self._main_depth = 0

    # --- identity --------------------------------------------------------

    @property
    def my_pe(self) -> int:
        return self.rank

    @property
    def n_pes(self) -> int:
        return self.world.spec.n_pes

    @property
    def spec(self) -> MachineSpec:
        return self.world.spec

    # --- structured parallelism -------------------------------------------

    def finish(self) -> FinishScope:
        """Open a finish scope: ``async with ctx.finish():``."""
        return FinishScope(self)

    def async_(self, fn: Callable[[], Any]) -> None:
        """``hclib::async``: defer ``fn`` to run on this PE before the
        enclosing finish completes.

        Tasks register with the *innermost* enclosing finish (HClib
        semantics) and run on this PE at the finish drain, FIFO, inside the
        MAIN region.  A task is a plain callable: it never blocks.  Tasks may send
        messages, spawn further tasks, and call ``done()`` — the finish
        waits for all of it.
        """
        scope = self._current_finish()
        if scope is None:
            raise SimulationError("async_() must be called inside a finish scope")
        self.perf.work(ins=20, loads=3, stores=3)  # task allocation/enqueue
        scope._tasks.append(fn)

    def _current_finish(self) -> FinishScope | None:
        return self._finish_stack[-1] if self._finish_stack else None

    # --- region tracking ----------------------------------------------------

    def _enter_main(self) -> None:
        self._main_depth += 1
        if self._main_depth == 1:
            self.world.hooks.main_enter(self.rank)

    def _exit_main(self) -> None:
        if self._main_depth > 0:
            self._main_depth -= 1
            if self._main_depth == 0:
                self.world.hooks.main_exit(self.rank)

    @contextlib.contextmanager
    def _runtime_section(self):
        """Suspend MAIN accounting while inside runtime internals."""
        was_main = self._main_depth > 0
        if was_main:
            self._exit_main()
        try:
            yield
        finally:
            if was_main:
                self._enter_main()

    # --- user work ------------------------------------------------------------

    def compute(self, ins: int = 0, loads: int = 0, stores: int = 0,
                branches: int = 0, flops: int = 0, vec: int = 0) -> None:
        """Charge local computation (attributed to the current region)."""
        self.perf.work(ins=ins, loads=loads, stores=stores,
                       branches=branches, flops=flops, vec=vec)

    async def barrier(self) -> None:
        """Convenience pass-through to ``shmem_barrier_all``."""
        with self._runtime_section():
            await self.shmem.barrier_all()

    async def yield_pe(self) -> None:
        """Cooperatively offer the simulated CPU to other PEs."""
        await self.scheduler.yield_pe(self.rank)


@dataclass
class RunResult:
    """Outcome of :func:`run_spmd`."""

    results: list[Any]
    world: World

    @property
    def clocks(self) -> list[int]:
        """Final per-PE cycle counts."""
        return [c.now for c in self.world.scheduler.clocks]


def run_spmd(
    program: Callable[[PEContext], Any],
    machine: MachineSpec | None = None,
    cost: CostModel | None = None,
    conveyor_config: ConveyorConfig | None = None,
    profiler=None,
    seed: int = 0,
    log_shmem_calls: bool = False,
    shmem_observers: Sequence[Any] = (),
    fault_plan: FaultPlan | None = None,
    schedule_policy: SchedulePolicy | None = None,
) -> RunResult:
    """Run an SPMD FA-BSP ``program`` on a simulated ``machine``.

    Parameters
    ----------
    program:
        ``async def`` function executed once per PE with a
        :class:`PEContext`; every blocking call inside it (finish scopes,
        collectives, ``yield_pe``) is awaited.
    machine:
        Cluster shape; defaults to 1 node × 4 PEs.
    cost:
        Cost-model overrides.
    conveyor_config:
        Default conveyor configuration for selectors.
    profiler:
        An :class:`~repro.core.profiler.ActorProf` instance (or anything
        with an ``attach(world)`` returning ``(hooks, tracer)``); None
        disables all profiling.
    seed:
        Seed for per-PE RNG streams (``ctx.rng``).
    shmem_observers:
        pshmem-style observers to attach to the SHMEM runtime (objects
        with an ``attach(runtime)`` method, e.g. the baseline profilers
        in :mod:`repro.core.baseline`).
    fault_plan:
        A :class:`~repro.sim.faults.FaultPlan` of deterministic faults to
        inject (crashes, message drop/duplicate/delay, slow PEs).  When
        omitted, the ambient :func:`~repro.sim.faults.use_plan` default
        (if any) applies.
    schedule_policy:
        A :class:`~repro.sim.scheduler.SchedulePolicy` resolving the
        scheduler's don't-care choices (tie-breaks, flush order).  None
        uses the default, byte-identical-to-historical policy.  ActorCheck
        (:mod:`repro.check`) passes perturbed policies here.

    Returns
    -------
    RunResult
        Per-PE return values plus the world for inspection.
    """
    spec = machine or MachineSpec(1, 4)
    world = World(
        spec,
        cost=cost,
        conveyor_config=conveyor_config,
        seed=seed,
        log_shmem_calls=log_shmem_calls,
        fault_plan=fault_plan,
        schedule_policy=schedule_policy,
    )
    for observer in shmem_observers:
        observer.attach(world.shmem)
    if profiler is not None:
        hooks, tracer = profiler.attach(world)
        if hooks is not None:
            world.hooks = hooks
        if tracer is not None:
            world.physical_tracer = tracer
    results = world.run(program)
    return RunResult(results=results, world=world)
