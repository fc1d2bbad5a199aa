"""Reference recorders: the trace containers as dicts and tuple lists.

These are the logical, physical, PAPI and timeline recorders as they
stood before every trace became int64 section columns
(:mod:`repro.core.rowstore`): per-PE ``dict[(dst, size)] -> count``, one
``dict`` keyed by send-type name, and per-PE tuple lists.  Each exposes
the production ``to_columns()`` layout built the old way, row by row, so
``tests/test_trace_store.py`` can compare the row store against an
independent implementation of the same recording semantics.
"""

import numpy as np

from repro.conveyors.hooks import SEND_TYPES
from repro.core.timeline import REGIONS


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class OracleLogical:
    def __init__(self, spec, sample_interval: int = 1) -> None:
        self.spec = spec
        self.sample_interval = sample_interval
        self._counts = [{} for _ in range(spec.n_pes)]
        self._ticks = [0] * spec.n_pes

    def record(self, src, dst, msg_size) -> None:
        tick = self._ticks[src]
        self._ticks[src] = tick + 1
        if tick % self.sample_interval:
            return
        c = self._counts[src]
        c[(dst, msg_size)] = c.get((dst, msg_size), 0) + 1

    def record_batch(self, src, dsts, msg_size) -> None:
        for dst in np.asarray(dsts).tolist():
            self.record(src, dst, msg_size)

    def clear(self) -> None:
        for per_src in self._counts:
            per_src.clear()

    def to_columns(self):
        rows = [(src, dst, size, n)
                for src, per_src in enumerate(self._counts)
                for (dst, size), n in sorted(per_src.items())]
        columns = {name: _int64([r[i] for r in rows])
                   for i, name in enumerate(("src", "dst", "size", "count"))}
        return columns, {**self.spec.attrs(),
                         "sample_interval": self.sample_interval,
                         "ticks": list(self._ticks)}


class OraclePhysical:
    def __init__(self, n_pes: int, spec=None) -> None:
        self.n_pes = n_pes
        self.spec = spec
        self._counts = {}

    def record(self, send_type, nbytes, src_pe, dst_pe, time) -> None:
        key = (send_type, nbytes, src_pe, dst_pe)
        self._counts[key] = self._counts.get(key, 0) + 1

    def clear(self) -> None:
        self._counts.clear()

    def to_columns(self):
        rows = sorted((SEND_TYPES.index(kind), nb, src, dst, n)
                      for (kind, nb, src, dst), n in self._counts.items())
        columns = {name: _int64([r[i] for r in rows]) for i, name in
                   enumerate(("kind", "size", "src", "dst", "count"))}
        attrs = {"n_pes": self.n_pes, "send_types": list(SEND_TYPES)}
        if self.spec is not None:
            attrs.update(self.spec.attrs())
        return columns, attrs


class OraclePAPI:
    def __init__(self, spec, events) -> None:
        self.spec = spec
        self.events = tuple(events)
        self._rows = [[] for _ in range(spec.n_pes)]

    def record(self, src, dst, pkt_size, mailbox, num_sends, values) -> None:
        self._rows[src].append(
            (src, dst, pkt_size, mailbox, num_sends, *map(int, values)))

    def to_columns(self):
        rows = [r for pe_rows in self._rows for r in pe_rows]
        names = ("src", "dst", "pkt_size", "mailbox", "num_sends") \
            + tuple(f"ev_{i}" for i in range(len(self.events)))
        columns = {name: _int64([r[i] for r in rows])
                   for i, name in enumerate(names)}
        zeros = [[0] * len(self.events) for _ in range(self.spec.n_pes)]
        return columns, {**self.spec.attrs(), "events": list(self.events),
                         "main_totals": zeros, "proc_totals": zeros}


class OracleTimeline:
    def __init__(self, n_pes: int, max_spans_per_pe: int = 100_000) -> None:
        self.n_pes = n_pes
        self.max_spans_per_pe = max_spans_per_pe
        self._spans = [[] for _ in range(n_pes)]
        self._net = []
        self.dropped_spans = 0

    def add_span(self, pe, region, start, end, mailbox=-1) -> None:
        bucket = self._spans[pe]
        if len(bucket) >= self.max_spans_per_pe:
            self.dropped_spans += 1
            return
        bucket.append((pe, REGIONS.index(region), start, end, mailbox))

    def add_net_event(self, time, kind, src, dst, nbytes) -> None:
        self._net.append((time, SEND_TYPES.index(kind), src, dst, nbytes))

    def span_columns(self):
        rows = [s for bucket in self._spans for s in bucket]
        return {name: _int64([r[i] for r in rows]) for i, name in
                enumerate(("pe", "region", "start", "end", "mailbox"))}

    def net_columns(self):
        return {name: _int64([r[i] for r in self._net]) for i, name in
                enumerate(("time", "kind", "src", "dst", "nbytes"))}


def same_columns(got: dict, want: dict) -> bool:
    """Same column names in the same order, equal int64 values."""
    return (list(got) == list(want)
            and all(got[c].dtype == np.int64 and got[c].shape == want[c].shape
                    and np.array_equal(got[c], want[c]) for c in want))


def same_trace(got, want) -> bool:
    """Equal ``to_columns()``: the columns as :func:`same_columns`, and
    the attrs."""
    (got_cols, got_attrs), (want_cols, want_attrs) = \
        got.to_columns(), want.to_columns()
    return same_columns(got_cols, want_cols) and got_attrs == want_attrs
