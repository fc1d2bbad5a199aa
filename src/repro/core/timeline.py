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

import numpy as np

from repro.conveyors.hooks import SEND_TYPES
from repro.core.rowstore import RowStore, bincount

#: Region names by the code the ``region`` column stores.
REGIONS = ("MAIN", "PROC", "FINISH")
MAIN, PROC, FINISH = range(3)
SPAN_COLUMNS = ("pe", "region", "start", "end", "mailbox")
#: ``kind`` indexes :data:`~repro.conveyors.hooks.SEND_TYPES`.
NET_COLUMNS = ("time", "kind", "src", "dst", "nbytes")

_REGION_CODE = {name: code for code, name in enumerate(REGIONS)}
_KIND_CODE = {kind: code for code, kind in enumerate(SEND_TYPES)}


def spread_spans(rows: np.ndarray, start: np.ndarray, end: np.ndarray,
                 width: int, n_rows: int, n_buckets: int) -> np.ndarray:
    """Cycles of every span ``[start, end)`` (ending by ``n_buckets *
    width``) spread over the buckets of its row: an ``(n_rows,
    n_buckets)`` int64 occupancy matrix.  A span's first and last bucket
    get its partial overlap and every bucket between them ``width``,
    through one difference array (``+x`` where a run of ``x`` per bucket
    starts, ``-x`` one past its end) and a prefix sum: O(spans + cells)
    however long the spans are."""
    keep = end > start
    rows, start, end = rows[keep], start[keep], end[keep]
    b0 = start // width
    b1 = (end - 1) // width
    split = b1 > b0
    head = np.where(split, (b0 + 1) * width, end) - start
    tail = np.where(split, end - b1 * width, 0)
    full = np.where(split, width, 0)
    cols = n_buckets + 1  # b1 + 1 may be one past the last bucket
    base = rows * cols
    diff = np.zeros(n_rows * cols, dtype=np.int64)
    for at, value in ((b0, head), (b0 + 1, full - head),
                      (b1, tail - full), (b1 + 1, -tail)):
        np.add.at(diff, base + at, value)
    return np.cumsum(diff.reshape(n_rows, cols)[:, :n_buckets], axis=1)


class TimelineTrace:
    """Per-PE timestamped trace of one run: two int64 tables.

    Spans (:data:`SPAN_COLUMNS`) read PE-major in recording order, net
    events (:data:`NET_COLUMNS`) in recording order; regions and send
    kinds are stored as codes into :data:`REGIONS` / ``SEND_TYPES``.
    """

    def __init__(self, n_pes: int, max_spans_per_pe: int = 100_000) -> None:
        if max_spans_per_pe < 1:
            raise ValueError("max_spans_per_pe must be positive")
        self.n_pes = n_pes
        self.max_spans_per_pe = max_spans_per_pe
        self._spans = RowStore(SPAN_COLUMNS, grouped=True)
        self._net = RowStore(NET_COLUMNS)
        self._kept = [0] * n_pes  # spans recorded per PE
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def add_span(self, pe: int, region: str, start: int, end: int,
                 mailbox: int = -1) -> None:
        """Record a closed region interval."""
        if end < start:
            raise ValueError(f"span ends before it starts: [{start}, {end})")
        code = _REGION_CODE.get(region)
        if code is None:
            raise ValueError(f"unknown timeline region {region!r}")
        kept = self._kept[pe]
        if kept >= self.max_spans_per_pe:
            self.dropped_spans += 1
            return
        self._kept[pe] = kept + 1
        self._spans.add((pe, code, start, end, mailbox))

    def add_net_event(self, time: int, kind: str, src: int, dst: int,
                      nbytes: int) -> None:
        """Record one network operation."""
        code = _KIND_CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown network event kind {kind!r}")
        self._net.add((time, code, src, dst, nbytes))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def span_columns(self) -> dict[str, np.ndarray]:
        """Every span as :data:`SPAN_COLUMNS`, PE-major in recording order."""
        return self._spans.columns()

    def span_bounds(self) -> np.ndarray:
        """PE ``p``'s spans are rows ``[bounds[p], bounds[p + 1])`` of
        :meth:`span_columns`."""
        return self._spans.bounds(self.n_pes)

    def net_columns(self) -> dict[str, np.ndarray]:
        """Every network event as :data:`NET_COLUMNS`, in recording order."""
        return self._net.columns()

    def span_count(self) -> int:
        return sum(self._kept)

    def net_count(self) -> int:
        return self._net.table().shape[1]

    def end_time(self) -> int:
        """Latest timestamp anywhere in the timeline."""
        return int(max(self._spans.table()[3].max(initial=0),
                       self._net.table()[0].max(initial=0)))

    def region_totals(self, region: str) -> np.ndarray:
        """Total cycles per PE spent in ``region`` spans."""
        pe, code, start, end, _ = self._spans.table()
        mine = code == _REGION_CODE.get(region, -1)
        return bincount(pe[mine], (end - start)[mine], self.n_pes)
