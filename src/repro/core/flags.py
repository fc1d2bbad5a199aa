"""Profiling configuration: the compile-flag equivalents.

The paper enables each ActorProf capability with a compile flag on the
user application; here the same switches are runtime configuration:

=========================  ===============================
Paper compile flag          :class:`ProfileFlags` field
=========================  ===============================
``-DENABLE_TRACE``          ``enable_trace``
``-DENABLE_TCOMM_PROFILING``  ``enable_tcomm_profiling``
``-DENABLE_TRACE_PHYSICAL``   ``enable_trace_physical``
=========================  ===============================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.papi.eventset import MAX_EVENTS
from repro.papi.events import is_preset

#: The counters used in the paper's case study (Section III-A).
DEFAULT_PAPI_EVENTS: tuple[str, ...] = ("PAPI_TOT_INS", "PAPI_LST_INS")


@dataclass(frozen=True)
class ProfileFlags:
    """Which ActorProf capabilities are compiled in.

    Attributes
    ----------
    enable_trace:
        Logical trace (``PEi_send.csv``) + PAPI region trace
        (``PEi_PAPI.csv``).  Paper flag ``-DENABLE_TRACE``.
    enable_tcomm_profiling:
        Overall T_MAIN/T_COMM/T_PROC breakdown (``overall.txt``).  Paper
        flag ``-DENABLE_TCOMM_PROFILING``.
    enable_trace_physical:
        Conveyors-level physical trace (``physical.txt``).  Paper flag
        ``-DENABLE_TRACE_PHYSICAL``.
    papi_events:
        Preset events recorded for the MAIN/PROC regions; at most
        four (PAPI limitation cited by the paper).
    enable_timeline:
        Timestamped region spans + network events for OTF / Google Trace
        Event export (the paper's Section VI future work).
    papi_sample_interval:
        Record one ``PEi_PAPI.csv`` row every N sends (1 = every send,
        like the paper; larger values bound trace size for huge runs —
        the trace-size problem the paper's Section VI discusses).
    logical_sample_interval:
        Record every N-th logical send per PE (deterministic stratified
        sampling; Section VI trace-size management).  ``estimated_matrix``
        rescales samples back to population estimates.
    timeline_max_spans:
        Per-PE cap on recorded timeline spans (tail-drop with a counter).
    """

    enable_trace: bool = False
    enable_tcomm_profiling: bool = False
    enable_trace_physical: bool = False
    enable_timeline: bool = False
    papi_events: tuple[str, ...] = DEFAULT_PAPI_EVENTS
    papi_sample_interval: int = 1
    logical_sample_interval: int = 1
    timeline_max_spans: int = 100_000

    def __post_init__(self) -> None:
        if len(self.papi_events) > MAX_EVENTS:
            raise ValueError(
                f"at most {MAX_EVENTS} concurrent PAPI events (got "
                f"{len(self.papi_events)}) — PAPI limitation, paper §III-A"
            )
        for ev in self.papi_events:
            if not is_preset(ev):
                raise ValueError(f"unknown PAPI event {ev!r}")
        if self.papi_sample_interval < 1:
            raise ValueError("papi_sample_interval must be >= 1")
        if self.logical_sample_interval < 1:
            raise ValueError("logical_sample_interval must be >= 1")
        if self.timeline_max_spans < 1:
            raise ValueError("timeline_max_spans must be >= 1")

    @classmethod
    def all(cls, papi_events: tuple[str, ...] = DEFAULT_PAPI_EVENTS,
            papi_sample_interval: int = 1,
            enable_timeline: bool = False) -> "ProfileFlags":
        """Every paper capability enabled (the common case-study setup).

        The timeline (a future-work extension, not part of the paper's
        three compile flags) stays opt-in.
        """
        return cls(
            enable_trace=True,
            enable_tcomm_profiling=True,
            enable_trace_physical=True,
            enable_timeline=enable_timeline,
            papi_events=papi_events,
            papi_sample_interval=papi_sample_interval,
        )
