"""Deterministic fault injection for the simulated FA-BSP stack.

Real clusters kill FA-BSP runs in ways a profiler must survive: PEs are
OOM-killed mid-finish, NICs drop or duplicate packets, a throttled socket
runs every instruction slower.  This module makes those scenarios
**first-class, deterministic, and profilable**:

* :class:`FaultPlan` — a declarative, JSON-serializable description of
  the faults to inject: PE crashes at a virtual time, per-edge message
  drop / duplicate / delay probabilities, and slow-PE cycle multipliers.
* :class:`FaultInjector` — the runtime object built from a plan.  Every
  stochastic decision is drawn from a **per-edge** RNG stream derived
  from the plan seed via :class:`numpy.random.SeedSequence` (the same
  derivation :mod:`repro.sim.rng` uses for per-PE streams), so the n-th
  send on an edge sees the same fate regardless of how sends on *other*
  edges interleave.  The same seed + plan therefore yields byte-identical
  fault schedules across runs.
* :func:`use_plan` — a context manager installing a plan as the default
  for every :func:`~repro.hclib.world.run_spmd` in its scope, which turns
  any app in :mod:`repro.apps` into a robustness testbed without touching
  its signature.

Injection points (wired in by :class:`~repro.hclib.world.World`):

=================  ====================================================
crash              :meth:`~repro.sim.scheduler.CoopScheduler.schedule_crash`
                   — the PE's coroutine is closed at its next
                   scheduling point past the crash cycle; the rest
                   of the simulation continues.
drop/dup/delay     the Conveyors buffer-send boundary
                   (:meth:`repro.conveyors.conveyor.Conveyor._flush_buffer`)
                   — dropped buffer puts are retried with exponential
                   backoff, duplicates are delivered twice and deduped
                   at the receiver, delays push the arrival time out.
slow PE            :attr:`repro.machine.perf.PerfCore.rate` — every
                   charged cycle of work is multiplied.
=================  ====================================================
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

#: Domain tag mixed into per-edge seed derivations so fault streams never
#: collide with the per-PE application streams of :mod:`repro.sim.rng`.
_EDGE_STREAM_TAG = 0xFA117


@dataclass(frozen=True)
class CrashFault:
    """Kill PE ``pe`` at virtual cycle ``at_cycle``.

    The crash takes effect at the PE's first scheduling point (yield,
    block, send-side conveyor progress, collective) at or after
    ``at_cycle`` — exactly when a SIGKILL would interrupt a real PE
    between system calls.
    """

    pe: int
    at_cycle: int


@dataclass(frozen=True)
class EdgeFault:
    """Message faults on conveyor buffer sends matching ``src`` → ``dst``.

    ``src`` / ``dst`` are PE ranks, or ``None`` as a wildcard.  The first
    matching rule in :attr:`FaultPlan.edges` wins.  ``drop`` and
    ``duplicate`` are mutually exclusive outcomes of one transfer
    (``drop + duplicate <= 1``); ``delay`` is an independent probability
    of adding ``delay_cycles`` to the buffer's arrival time.
    """

    src: int | None = None
    dst: int | None = None
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_cycles: int = 0

    def matches(self, src: int, dst: int) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class SlowPE:
    """Multiply every cycle of work PE ``pe`` charges by ``multiplier``."""

    pe: int
    multiplier: float


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, reproducible description of the faults to inject."""

    crashes: tuple[CrashFault, ...] = ()
    edges: tuple[EdgeFault, ...] = ()
    slow_pes: tuple[SlowPE, ...] = ()
    seed: int = 0
    #: Bounded retry budget for dropped buffer puts; exceeding it raises
    #: :class:`~repro.sim.errors.FaultError`.
    max_retries: int = 8
    #: Base backoff after a dropped buffer put; doubles per retry.
    backoff_cycles: int = 1_000

    def __post_init__(self) -> None:
        for edge in self.edges:
            for name in ("drop", "duplicate", "delay"):
                p = getattr(edge, name)
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"edge fault {name} probability {p} "
                                     f"outside [0, 1]")
            if edge.drop + edge.duplicate > 1.0:
                raise ValueError(
                    f"edge fault drop ({edge.drop}) + duplicate "
                    f"({edge.duplicate}) exceeds 1"
                )
            if edge.delay_cycles < 0:
                raise ValueError(f"negative delay_cycles: {edge.delay_cycles}")
        for crash in self.crashes:
            if crash.at_cycle < 0:
                raise ValueError(f"crash cycle must be >= 0: {crash.at_cycle}")
        for slow in self.slow_pes:
            if slow.multiplier <= 0:
                raise ValueError(
                    f"slow-PE multiplier must be positive: {slow.multiplier}"
                )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_cycles < 0:
            raise ValueError(f"backoff_cycles must be >= 0: {self.backoff_cycles}")

    @property
    def empty(self) -> bool:
        return not (self.crashes or self.edges or self.slow_pes)

    def validate(self, n_pes: int) -> "FaultPlan":
        """Check every PE reference against the job size; returns self."""
        for crash in self.crashes:
            if not 0 <= crash.pe < n_pes:
                raise ValueError(f"crash PE {crash.pe} out of range "
                                 f"for {n_pes} PEs")
        for slow in self.slow_pes:
            if not 0 <= slow.pe < n_pes:
                raise ValueError(f"slow PE {slow.pe} out of range "
                                 f"for {n_pes} PEs")
        for edge in self.edges:
            for end, name in ((edge.src, "src"), (edge.dst, "dst")):
                if end is not None and not 0 <= end < n_pes:
                    raise ValueError(f"edge fault {name} PE {end} out of "
                                     f"range for {n_pes} PEs")
        return self

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff_cycles": self.backoff_cycles,
            "crashes": [{"pe": c.pe, "at_cycle": c.at_cycle}
                        for c in self.crashes],
            "edges": [
                {
                    "src": "*" if e.src is None else e.src,
                    "dst": "*" if e.dst is None else e.dst,
                    "drop": e.drop,
                    "duplicate": e.duplicate,
                    "delay": e.delay,
                    "delay_cycles": e.delay_cycles,
                }
                for e in self.edges
            ],
            "slow_pes": [{"pe": s.pe, "multiplier": s.multiplier}
                         for s in self.slow_pes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, "
                             f"got {type(data).__name__}")
        known = {"seed", "max_retries", "backoff_cycles", "crashes",
                 "edges", "slow_pes"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault plan key(s): {', '.join(unknown)}")

        def end(value) -> int | None:
            if value in (None, "*"):
                return None
            return int(value)

        return cls(
            seed=int(data.get("seed", 0)),
            max_retries=int(data.get("max_retries", 8)),
            backoff_cycles=int(data.get("backoff_cycles", 1_000)),
            crashes=tuple(
                CrashFault(pe=int(c["pe"]), at_cycle=int(c["at_cycle"]))
                for c in data.get("crashes", ())
            ),
            edges=tuple(
                EdgeFault(
                    src=end(e.get("src", "*")),
                    dst=end(e.get("dst", "*")),
                    drop=float(e.get("drop", 0.0)),
                    duplicate=float(e.get("duplicate", 0.0)),
                    delay=float(e.get("delay", 0.0)),
                    delay_cycles=int(e.get("delay_cycles", 0)),
                )
                for e in data.get("edges", ())
            ),
            slow_pes=tuple(
                SlowPE(pe=int(s["pe"]), multiplier=float(s["multiplier"]))
                for s in data.get("slow_pes", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read fault plan {path}: {exc}") from exc
        try:
            return cls.from_json(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def describe(self) -> str:
        """Human-readable one-plan summary (``actorprof faults check``)."""
        lines = [f"fault plan (seed {self.seed}, max_retries "
                 f"{self.max_retries}, backoff {self.backoff_cycles} cyc):"]
        for c in self.crashes:
            lines.append(f"  crash  PE {c.pe} at cycle {c.at_cycle:,}")
        for e in self.edges:
            src = "*" if e.src is None else e.src
            dst = "*" if e.dst is None else e.dst
            lines.append(
                f"  edge   {src}->{dst}: drop {e.drop:g}, "
                f"duplicate {e.duplicate:g}, delay {e.delay:g} "
                f"(+{e.delay_cycles:,} cyc)"
            )
        for s in self.slow_pes:
            lines.append(f"  slow   PE {s.pe} x{s.multiplier:g}")
        if self.empty:
            lines.append("  (no faults)")
        return "\n".join(lines)


@dataclass(frozen=True)
class FaultEvent:
    """One realized injected fault (the unit of the fault *schedule*)."""

    kind: str  # "crash" | "drop" | "duplicate" | "delay" | "slow"
    pe: int
    dst: int  # -1 when not edge-scoped
    cycle: int
    detail: str = ""

    def as_tuple(self) -> tuple[str, int, int, int, str]:
        return (self.kind, self.pe, self.dst, self.cycle, self.detail)

    def describe(self) -> str:
        edge = f" -> PE {self.dst}" if self.dst >= 0 else ""
        text = f"{self.kind:<9} PE {self.pe}{edge} at cycle {self.cycle:,}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass(frozen=True)
class SendOutcome:
    """The fate the injector assigns to one buffer send attempt."""

    action: str  # "deliver" | "drop" | "duplicate"
    extra_delay: int = 0


_DELIVER = SendOutcome("deliver")


class FaultInjector:
    """Runtime fault decisions + the realized fault schedule.

    One injector serves one simulation run.  All stochastic choices come
    from per-edge generator streams seeded as ``SeedSequence((seed, tag,
    src, dst))`` so the decision for the n-th transfer on an edge is a
    pure function of ``(plan, src, dst, n)``.
    """

    def __init__(self, plan: FaultPlan, n_pes: int) -> None:
        self.plan = plan.validate(n_pes)
        self.n_pes = n_pes
        #: Every injected fault, in injection order.
        self.events: list[FaultEvent] = []
        self._edge_rngs: dict[tuple[int, int], np.random.Generator] = {}
        self._edge_rules: dict[tuple[int, int], EdgeFault | None] = {}

    # -- edge faults ------------------------------------------------------

    def _rule_for(self, src: int, dst: int) -> EdgeFault | None:
        key = (src, dst)
        if key not in self._edge_rules:
            self._edge_rules[key] = next(
                (e for e in self.plan.edges if e.matches(src, dst)), None
            )
        return self._edge_rules[key]

    def _rng_for(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        rng = self._edge_rngs.get(key)
        if rng is None:
            ss = np.random.SeedSequence((self.plan.seed, _EDGE_STREAM_TAG,
                                         src, dst))
            rng = np.random.default_rng(ss)
            self._edge_rngs[key] = rng
        return rng

    def send_outcome(self, src: int, dst: int, cycle: int) -> SendOutcome:
        """Decide the fate of one buffer transfer ``src`` → ``dst``.

        Always consumes the same number of random draws per call so the
        edge stream position is the transfer ordinal, whatever the
        outcomes were.
        """
        rule = self._rule_for(src, dst)
        if rule is None:
            return _DELIVER
        fate, delay = self._rng_for(src, dst).random(2)
        extra = rule.delay_cycles if delay < rule.delay else 0
        if fate < rule.drop:
            self.note("drop", src, dst, cycle)
            return SendOutcome("drop", extra)
        if fate < rule.drop + rule.duplicate:
            self.note("duplicate", src, dst, cycle)
            if extra:
                self.note("delay", src, dst, cycle, f"+{extra} cycles")
            return SendOutcome("duplicate", extra)
        if extra:
            self.note("delay", src, dst, cycle, f"+{extra} cycles")
        return SendOutcome("deliver", extra)

    # -- the schedule -----------------------------------------------------

    def note(self, kind: str, pe: int, dst: int, cycle: int,
             detail: str = "") -> None:
        """Append one realized fault to the schedule."""
        self.events.append(FaultEvent(kind, pe, dst, cycle, detail))

    def note_crash(self, pe: int, cycle: int) -> None:
        """Crash callback handed to the scheduler (runs under its lock)."""
        self.note("crash", pe, -1, cycle)

    def schedule_rows(self) -> list[tuple[str, int, int, int, str]]:
        """The fault schedule as plain tuples (archive metadata)."""
        return [ev.as_tuple() for ev in self.events]

    def describe_schedule(self) -> str:
        """Multi-line schedule report (appended to DeadlockError)."""
        lines = ["injected-fault schedule:"]
        if not self.events:
            lines.append("  (plan active, no fault fired yet)")
        for ev in self.events:
            lines.append(f"  {ev.describe()}")
        planned = [c for c in self.plan.crashes]
        fired = {(ev.pe, ev.cycle) for ev in self.events if ev.kind == "crash"}
        pending = [c for c in planned if (c.pe, c.at_cycle) not in fired]
        for c in pending:
            lines.append(f"  (pending) crash PE {c.pe} at cycle {c.at_cycle:,}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# ambient default plan (`with use_plan(...): any_app(...)`)
# ----------------------------------------------------------------------

_ACTIVE_PLANS: list[FaultPlan] = []


@contextlib.contextmanager
def use_plan(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Install ``plan`` as the default fault plan for nested ``run_spmd``.

    Every :class:`~repro.hclib.world.World` constructed inside the
    ``with`` block (without an explicit ``fault_plan``) picks it up —
    including the ones apps in :mod:`repro.apps` build internally.
    ``None`` shadows any enclosing plan: the block runs fault-free.
    """
    _ACTIVE_PLANS.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.pop()


def current_plan() -> FaultPlan | None:
    """The innermost active :func:`use_plan` plan, or None."""
    return _ACTIVE_PLANS[-1] if _ACTIVE_PLANS else None
