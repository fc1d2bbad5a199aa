"""Live (in-flight) trace monitoring.

Section VI: "a feature where ActorProf can concurrently generate the
trace graph with the program's execution ... is currently being
investigated."  :class:`LiveMonitor` implements that idea for the
simulated stack: it wraps an inner profiler's runtime hooks, maintains
streaming per-PE statistics as events arrive, and emits periodic snapshots
(every ``snapshot_every`` sends, globally) that a dashboard could render
while the program still runs.

Use by wrapping the profiler::

    ap = ActorProf(ProfileFlags.all())
    live = LiveMonitor(ap, snapshot_every=1000)
    run_spmd(program, machine=spec, profiler=live)
    live.snapshots      # in-flight views
    ap.logical, ...     # the full post-run traces, unchanged
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hclib.hooks import ForwardingHooks


@dataclass(frozen=True)
class LiveSnapshot:
    """One in-flight view of the run."""

    seq: int
    total_sends: int
    sends_per_pe: tuple[int, ...]
    handled_per_pe: tuple[int, ...]
    open_finishes: int


@dataclass
class _LiveState:
    sends: np.ndarray
    handled: np.ndarray
    open_per_pe: np.ndarray
    total_sends: int = 0
    open_finishes: int = 0
    snapshots: list[LiveSnapshot] = field(default_factory=list)


class LiveMonitor(ForwardingHooks):
    """Streaming statistics over the runtime hook events.

    Decorates an inner profiler (or ``None`` for monitoring without full
    tracing).  All hook events are forwarded unmodified.
    """

    def __init__(self, inner=None, snapshot_every: int = 1000) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        super().__init__(inner)
        self.snapshot_every = snapshot_every
        self._state: _LiveState | None = None

    # -- profiler protocol -------------------------------------------------

    def attach(self, world):
        """Wire into the world; returns (hooks, tracer) like ActorProf."""
        attached = super().attach(world)
        n_pes = world.spec.n_pes
        self._state = _LiveState(
            sends=np.zeros(n_pes, dtype=np.int64),
            handled=np.zeros(n_pes, dtype=np.int64),
            open_per_pe=np.zeros(n_pes, dtype=np.int64),
        )
        return attached

    # -- live accessors ------------------------------------------------------

    @property
    def snapshots(self) -> list[LiveSnapshot]:
        return list(self._state.snapshots) if self._state else []

    def current(self) -> LiveSnapshot:
        """The up-to-the-moment view (cheap; does not store a snapshot)."""
        st = self._require_state()
        return LiveSnapshot(
            seq=len(st.snapshots),
            total_sends=st.total_sends,
            sends_per_pe=tuple(int(x) for x in st.sends),
            handled_per_pe=tuple(int(x) for x in st.handled),
            open_finishes=st.open_finishes,
        )

    def _require_state(self) -> _LiveState:
        if self._state is None:
            raise RuntimeError("LiveMonitor is not attached to a run")
        return self._state

    def _sent(self, pe: int, n: int) -> None:
        st = self._require_state()
        st.sends[pe] += n
        st.total_sends += n
        # A single send_batch can cross several snapshot_every boundaries
        # at once; emit one snapshot per crossed boundary so the snapshot
        # cadence stays uniform regardless of batch size.
        while st.total_sends // self.snapshot_every > len(st.snapshots):
            st.snapshots.append(self.current())

    # -- observed RuntimeHooks (the rest forward untouched) ---------------------

    def finish_start(self, pe: int) -> None:
        st = self._require_state()
        st.open_per_pe[pe] += 1
        st.open_finishes += 1
        super().finish_start(pe)

    def finish_end(self, pe: int) -> None:
        st = self._require_state()
        if st.open_per_pe[pe] <= 0:
            raise RuntimeError(
                f"unmatched finish_end on PE {pe}: no finish scope is open "
                f"on that PE (runtime hook sequencing bug)"
            )
        st.open_per_pe[pe] -= 1
        st.open_finishes -= 1
        super().finish_end(pe)

    def proc_exit(self, pe: int, mailbox: int, n_items: int) -> None:
        self._require_state().handled[pe] += n_items
        super().proc_exit(pe, mailbox, n_items)

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:
        super().send(pe, mailbox, dst, nbytes)
        self._sent(pe, 1)

    def send_batch(self, pe: int, mailbox: int, dsts, nbytes: int) -> None:
        super().send_batch(pe, mailbox, dsts, nbytes)
        self._sent(pe, len(dsts))
