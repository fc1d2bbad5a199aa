"""The ActorProf profiler: runtime hooks + trace collection.

One :class:`ActorProf` instance profiles one :func:`~repro.hclib.run_spmd`
run.  ``attach(world)`` wires it into the runtime's hook points and into
Conveyors' physical-trace seam; after the run the four trace objects are
available as attributes and :meth:`write_traces` emits the paper's file
set (``PEi_send.csv``, ``PEi_PAPI.csv``, ``overall.txt``, ``physical.txt``).

Region measurement follows the paper:

* cycle times come from the simulated ``rdtsc`` (never an OS timer),
* MAIN and PROC are measured directly; COMM is derived,
* PAPI counters are started/stopped at region boundaries so Conveyors and
  HClib internals are excluded from the user-region counts.

Every hook runs inside the program it observes, so each one is a few
plain-int operations: the clock is read directly, event sets subtract a
baseline of their own few counters, and per-region counter deltas go
into :attr:`PAPITrace.pending` lists that the trace folds into its
arrays only when its totals are read.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.conveyors.hooks import TraceSink
from repro.core.flags import ProfileFlags
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.timeline import TimelineTrace
from repro.papi import PAPI, EventSet
from repro.sim.errors import SimulationError


class _PEProfState:
    """Per-PE measurement state."""

    __slots__ = (
        "clock",
        "finish_start_tsc",
        "finish_depth",
        "main_start_tsc",
        "proc_start_tsc",
        "es_main",
        "es_proc",
        "main_pending",
        "proc_pending",
        "user_totals",
        "num_sends",
        "region",
    )

    def __init__(self, clock, n_events: int) -> None:
        self.clock = clock
        self.finish_start_tsc = 0
        self.finish_depth = 0
        self.main_start_tsc = 0
        self.proc_start_tsc = 0
        self.es_main: EventSet | None = None
        self.es_proc: EventSet | None = None
        # this PE's rows of PAPITrace.pending["MAIN"/"PROC"]
        self.main_pending: list[int] = []
        self.proc_pending: list[int] = []
        self.user_totals = [0] * n_events
        self.num_sends: dict[int, int] = {}
        self.region = "COMM"


def _accumulate(st: _PEProfState, pending: list[int], deltas: list[int]) -> None:
    """Add one closed region's counter deltas to the PE's running user
    totals and to its pending per-region row."""
    user = st.user_totals
    for i, delta in enumerate(deltas):
        user[i] += delta
        pending[i] += delta


class ActorProf:
    """Profiling and visualization framework for FA-BSP execution.

    Parameters
    ----------
    flags:
        Which capabilities to enable; defaults to everything on
        (:meth:`ProfileFlags.all`).
    """

    def __init__(self, flags: ProfileFlags | None = None) -> None:
        self.flags = flags or ProfileFlags.all()
        self.world = None
        self.logical: LogicalTrace | None = None
        self.papi_trace: PAPITrace | None = None
        self.overall: OverallProfile | None = None
        self.physical: PhysicalTrace | None = None
        self.timeline: TimelineTrace | None = None
        self._pe_state: list[_PEProfState] = []
        self._papi_on = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, world) -> tuple[object | None, TraceSink | None]:
        """Wire into a World; returns (runtime hooks, physical tracer)."""
        if self.world is not None:
            raise SimulationError(
                f"a {type(self).__name__} instance profiles exactly one run")
        self.world = world
        spec = world.spec
        flags = self.flags
        n_events = len(flags.papi_events)
        self._papi_on = flags.enable_trace and n_events > 0
        if flags.enable_trace:
            self.logical = LogicalTrace(
                spec, sample_interval=flags.logical_sample_interval
            )
            self.papi_trace = PAPITrace(spec, flags.papi_events)
        if flags.enable_tcomm_profiling:
            self.overall = OverallProfile(spec.n_pes)
        if flags.enable_trace_physical:
            self.physical = PhysicalTrace(spec.n_pes, spec=spec)
        if flags.enable_timeline:
            self.timeline = TimelineTrace(
                spec.n_pes, max_spans_per_pe=flags.timeline_max_spans
            )
        perf = world.shmem.perf
        self._pe_state = [_PEProfState(perf[pe].clock, n_events)
                          for pe in range(spec.n_pes)]
        if self._papi_on:
            for pe, st in enumerate(self._pe_state):
                papi = PAPI(perf[pe])
                st.es_main = papi.create_eventset()
                st.es_main.add_events(flags.papi_events)
                st.es_proc = papi.create_eventset()
                st.es_proc.add_events(flags.papi_events)
                st.main_pending = self.papi_trace.pending["MAIN"][pe]
                st.proc_pending = self.papi_trace.pending["PROC"][pe]
        hooks = (
            self
            if flags.enable_trace or flags.enable_tcomm_profiling
            or flags.enable_timeline
            else None
        )
        # ActorProf itself is the Conveyors trace sink so one record call
        # can feed both the physical trace and the timeline.
        tracer = self if (self.physical is not None or self.timeline is not None) else None
        return hooks, tracer

    # ------------------------------------------------------------------
    # Conveyors TraceSink implementation
    # ------------------------------------------------------------------

    def record(self, send_type: str, nbytes: int, src_pe: int, dst_pe: int,
               time: int) -> None:
        """Receive one instrumented Conveyors operation."""
        if self.physical is not None:
            self.physical.record(send_type, nbytes, src_pe, dst_pe, time)
        if self.timeline is not None:
            self.timeline.add_net_event(time, send_type, src_pe, dst_pe, nbytes)

    # ------------------------------------------------------------------
    # RuntimeHooks implementation
    # ------------------------------------------------------------------

    def finish_start(self, pe: int) -> None:
        st = self._pe_state[pe]
        # Nested finish scopes measure only the outermost span, so
        # T_TOTAL never double-counts.
        if st.finish_depth == 0:
            st.finish_start_tsc = st.clock.now
        st.finish_depth += 1

    def finish_end(self, pe: int) -> None:
        st = self._pe_state[pe]
        st.finish_depth -= 1
        if st.finish_depth > 0:
            return
        now = st.clock.now
        if self.overall is not None:
            self.overall.add_total(pe, now - st.finish_start_tsc)
        if self.timeline is not None:
            self.timeline.add_span(pe, "FINISH", st.finish_start_tsc, now)
        if self.papi_trace is not None:
            # Summary row (mailbox = -1): final user-region counter totals,
            # including PROC work done during the finish drain after the
            # last send — so offline consumers of PEi_PAPI.csv see the
            # true per-PE totals in the file's last line.
            total_sends = sum(st.num_sends.values())
            self.papi_trace.record(
                pe, pe, 0, -1, total_sends, self._live_user_counters(st)
            )

    def main_enter(self, pe: int) -> None:
        st = self._pe_state[pe]
        st.region = "MAIN"
        st.main_start_tsc = st.clock.now
        if st.es_main is not None:
            st.es_main.start()

    def main_exit(self, pe: int) -> None:
        st = self._pe_state[pe]
        st.region = "COMM"
        now = st.clock.now
        if self.overall is not None:
            self.overall.add_main(pe, now - st.main_start_tsc)
        if self.timeline is not None:
            self.timeline.add_span(pe, "MAIN", st.main_start_tsc, now)
        if st.es_main is not None and st.es_main.running:
            _accumulate(st, st.main_pending, st.es_main.stop())

    def proc_enter(self, pe: int, mailbox: int) -> None:
        st = self._pe_state[pe]
        st.region = "PROC"
        st.proc_start_tsc = st.clock.now
        if st.es_proc is not None:
            st.es_proc.start()

    def proc_exit(self, pe: int, mailbox: int, n_items: int) -> None:
        st = self._pe_state[pe]
        st.region = "COMM"
        now = st.clock.now
        if self.overall is not None:
            self.overall.add_proc(pe, now - st.proc_start_tsc)
        if self.timeline is not None:
            self.timeline.add_span(pe, "PROC", st.proc_start_tsc, now,
                                   mailbox=mailbox)
        if st.es_proc is not None and st.es_proc.running:
            _accumulate(st, st.proc_pending, st.es_proc.stop())

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:
        st = self._pe_state[pe]
        if self.logical is not None:
            self.logical.record(pe, dst, nbytes)
        n = st.num_sends.get(mailbox, 0) + 1
        st.num_sends[mailbox] = n
        if self.papi_trace is not None and n % self.flags.papi_sample_interval == 0:
            self.papi_trace.record(
                pe, dst, nbytes, mailbox, n, self._live_user_counters(st)
            )

    def send_batch(self, pe: int, mailbox: int, dsts: np.ndarray, nbytes: int) -> None:
        st = self._pe_state[pe]
        if self.logical is not None:
            self.logical.record_batch(pe, dsts, nbytes)
        n = st.num_sends.get(mailbox, 0) + len(dsts)
        st.num_sends[mailbox] = n
        if self.papi_trace is not None and len(dsts) > 0:
            # one sampled row per batch, stamped with the batch's last dst
            self.papi_trace.record(
                pe, int(dsts[-1]), nbytes, mailbox, n, self._live_user_counters(st)
            )

    # ------------------------------------------------------------------

    def _live_user_counters(self, st: _PEProfState) -> list[int]:
        """Cumulative user-region counters including the open region."""
        es = (st.es_main if st.region == "MAIN"
              else st.es_proc if st.region == "PROC" else None)
        if es is None or not es.running:
            return st.user_totals
        return [t + v for t, v in zip(st.user_totals, es.read())]

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write_traces(self, directory: str | Path) -> dict[str, object]:
        """Write every enabled trace to ``directory``.

        Returns a mapping of trace name → written path(s).
        """
        written: dict[str, object] = {}
        if self.logical is not None:
            written["logical"] = self.logical.write(directory)
        if self.papi_trace is not None:
            written["papi"] = self.papi_trace.write(directory)
        if self.overall is not None:
            written["overall"] = self.overall.write(directory)
        if self.physical is not None:
            written["physical"] = self.physical.write(directory)
        if self.timeline is not None:
            from repro.core.export import write_chrome_trace, write_otf

            directory = Path(directory)
            written["chrome_trace"] = write_chrome_trace(
                self.timeline, self.world.spec, directory / "trace.json"
            )
            written["otf"] = write_otf(self.timeline, self.world.spec, directory)
        return written

    def export_archive(self, path: str | Path,
                       meta: dict | None = None, *,
                       lod: bool = False) -> Path:
        """Write every enabled trace into one ``.aptrc`` archive.

        The compact binary alternative to :meth:`write_traces`; ``meta``
        entries (app name, scale, …) land in the archive footer.
        ``lod=True`` also stores the level-of-detail summary pyramid
        (time-resolved when the timeline was enabled); the default stays
        off so existing export bytes are unchanged.
        """
        from repro.core.store import export_run

        full_meta = {"papi_events": list(self.flags.papi_events)}
        full_meta.update(meta or {})
        return export_run(
            path,
            logical=self.logical,
            physical=self.physical,
            papi=self.papi_trace,
            overall=self.overall,
            timeline=self.timeline,
            meta=full_meta,
            lod=lod,
        )

    def salvage_archive(self, path: str | Path, failure: BaseException | None = None,
                        meta: dict | None = None, *, lod: bool = False) -> Path:
        """Export whatever was traced before a failed run into ``path``.

        The graceful-degradation path: when the profiled run raised
        (an injected crash, a broken collective, a deadlock), every
        trace collected up to the failure is still in memory — write it
        out as a ``.aptrc`` whose footer marks the run ``degraded`` and
        records the failure plus the injected-fault schedule.  Surviving
        PEs' data is intact and the archive loads, queries, and diffs
        like any other.
        """
        from repro.core.store.writer import degraded_meta

        return self.export_archive(
            path, meta={**degraded_meta(self.world, failure), **(meta or {})},
            lod=lod)
