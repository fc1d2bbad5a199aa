"""Timeline trace: timestamped region spans and network events.

The paper's future work (Section VI) plans "the adoption of OTF and
Google Trace Events format".  This module provides the substrate: a
per-PE timeline of

* **region spans** — every MAIN and PROC interval with rdtsc start/end
  (COMM is the gap between them, as always),
* **network events** — every instrumented Conveyors operation with its
  issue timestamp, endpoints and buffer size,
* **finish markers** — the enclosing finish scopes.

Exporters for the two formats live in :mod:`repro.core.export`.

Timeline collection is optional (``ProfileFlags.enable_timeline``): at one
span per region instance the trace grows with message-handler count, which
is exactly the trace-size problem the paper's Section VI discusses —
``max_spans_per_pe`` bounds it by dropping the tail (with a counter, so
consumers know truncation happened).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    """A closed region interval on one PE (cycles)."""

    pe: int
    region: str  # "MAIN" | "PROC" | "FINISH"
    start: int
    end: int
    mailbox: int = -1

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class NetEvent:
    """One instrumented Conveyors operation with its issue time."""

    time: int
    kind: str  # local_send | nonblock_send | nonblock_progress
    src: int
    dst: int
    nbytes: int


class TimelineTrace:
    """Per-PE timestamped trace of one run.

    Recording (inside the observed run) appends plain tuples;
    :class:`Span`/:class:`NetEvent` objects are built only when read.
    """

    def __init__(self, n_pes: int, max_spans_per_pe: int = 100_000) -> None:
        if max_spans_per_pe < 1:
            raise ValueError("max_spans_per_pe must be positive")
        self.n_pes = n_pes
        self.max_spans_per_pe = max_spans_per_pe
        self._spans: list[list[tuple]] = [[] for _ in range(n_pes)]
        self._net: list[tuple] = []
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def add_span(self, pe: int, region: str, start: int, end: int,
                 mailbox: int = -1) -> None:
        """Record a closed region interval."""
        if end < start:
            raise ValueError(f"span ends before it starts: [{start}, {end})")
        bucket = self._spans[pe]
        if len(bucket) >= self.max_spans_per_pe:
            self.dropped_spans += 1
            return
        bucket.append((region, start, end, mailbox))

    def add_net_event(self, time: int, kind: str, src: int, dst: int,
                      nbytes: int) -> None:
        """Record one network operation."""
        self._net.append((time, kind, src, dst, nbytes))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def spans(self, pe: int | None = None, region: str | None = None) -> list[Span]:
        """Spans of one PE (or all), optionally filtered by region."""
        pes = range(self.n_pes) if pe is None else (pe,)
        return [Span(p, *s) for p in pes for s in self._spans[p]
                if region is None or s[0] == region]

    def net_events(self, kind: str | None = None) -> list[NetEvent]:
        return [NetEvent(*e) for e in self._net if kind is None or e[1] == kind]

    def span_count(self) -> int:
        return sum(len(b) for b in self._spans)

    def net_count(self) -> int:
        return len(self._net)

    def span_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(pe, region, start, end)`` of every span, PE-major in
        recording order: int64 columns plus a str array of region names."""
        flat = [s for bucket in self._spans for s in bucket]
        pe = np.repeat(np.arange(self.n_pes, dtype=np.int64),
                       [len(bucket) for bucket in self._spans])
        return (pe, np.array([s[0] for s in flat], dtype=str),
                np.array([s[1] for s in flat], dtype=np.int64),
                np.array([s[2] for s in flat], dtype=np.int64))

    def net_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(time, src, dst, nbytes)`` of every network event as int64
        columns, in recording order."""
        return tuple(np.array([e[i] for e in self._net], dtype=np.int64)
                     for i in (0, 2, 3, 4))

    def end_time(self) -> int:
        """Latest timestamp anywhere in the timeline."""
        last_span = max((s[2] for b in self._spans for s in b), default=0)
        last_net = max((e[0] for e in self._net), default=0)
        return max(last_span, last_net)

    def region_totals(self, region: str) -> np.ndarray:
        """Total cycles per PE spent in ``region`` spans."""
        out = np.zeros(self.n_pes, dtype=np.int64)
        for pe, bucket in enumerate(self._spans):
            out[pe] = sum(s[2] - s[1] for s in bucket if s[0] == region)
        return out

    def utilization(self, pe: int, bucket_cycles: int) -> np.ndarray:
        """Fraction of each time bucket covered by MAIN+PROC spans.

        A simple occupancy profile — the "CPU utilization over time" view
        that tools like Legion Prof display.
        """
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be positive")
        horizon = self.end_time()
        n_buckets = max(1, -(-horizon // bucket_cycles))
        busy = np.zeros(n_buckets, dtype=np.float64)
        for region, start, end, _ in self._spans[pe]:
            if region not in ("MAIN", "PROC"):
                continue
            b0 = start // bucket_cycles
            b1 = end // bucket_cycles
            for b in range(b0, min(b1, n_buckets - 1) + 1):
                lo = max(start, b * bucket_cycles)
                hi = min(end, (b + 1) * bucket_cycles)
                busy[b] += max(0, hi - lo)
        return busy / bucket_cycles
