"""Columnar frame: pruned, streamed, vectorized access to archive sections.

A :class:`Frame` wraps one archive
:class:`~repro.core.store.archive.Section` and exposes the three tricks
that make multi-million-row scans cheap:

* **chunk pruning** — the footer's per-chunk ``(min, max, sum)`` stats
  (see ``docs/TRACE_STORE.md``) let a predicate like ``src == 7`` drop
  every row group whose ``[min, max]`` interval cannot contain a match,
  before any payload byte is read;
* **stats-only aggregation** — un-predicated sums (``sends``, ``bytes``)
  are answered straight from the footer sums, decoding nothing at all;
* **row-group streaming** — :meth:`Frame.groups` yields the surviving
  row groups one at a time and caches nothing, so a scan holds one row
  group of each column it reads, never a column.

The query layer (:mod:`repro.core.query`), run diffing
(:mod:`repro.core.diffing`) and the pyramid backfill
(:mod:`repro.core.store.lod`) are folds over it.  Sections without chunk
stats — version-1 archives written before the stats extension, and
in-memory traces viewed through :class:`MemorySection` — degrade
gracefully: nothing is pruned, every row group is streamed, and results
are identical either way.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.rowstore import bincount, fold
from repro.core.store.archive import NO_STATS, ChunkRef, ChunkTable, Section
from repro.core.store.codec import CodecError, pack_spec


class MemorySection(Section):
    """An in-memory trace's ``to_columns()`` output dressed as an archive
    section: one row group, no chunk stats, every column already decoded
    — so a :class:`Frame` over it takes the stats-unavailable path."""

    def __init__(self, columns: dict[str, np.ndarray], attrs: dict) -> None:
        rows = len(next(iter(columns.values())))
        super().__init__(None, "memory", {"attrs": attrs, "rows": rows})
        self._chunks = ChunkTable(
            {col: ["memory"] for col in columns},
            np.array([[[0, 0, rows, *NO_STATS]]] * len(columns), np.int64))
        self._cache.update(columns)

    def decode_chunk(self, name: str, ref: ChunkRef) -> np.ndarray:
        return self._cache[name]


def as_section(source) -> Section:
    """``source`` itself when it is a section, else a
    :class:`MemorySection` over a trace object's ``to_columns()``."""
    if isinstance(source, Section):
        return source
    return MemorySection(*source.to_columns())


#: ``op`` → which chunks' ``[lo, hi]`` intervals (arrays) may hold an
#: ``x`` with ``x <op> value``.  Conservative in exactly one direction:
#: True means "cannot rule the chunk out", never "every row matches".
INTERVAL_MAY_MATCH = {
    "==": lambda lo, hi, value: (lo <= value) & (value <= hi),
    "!=": lambda lo, hi, value: (lo != value) | (hi != value),
    "<": lambda lo, hi, value: lo < value,
    "<=": lambda lo, hi, value: lo <= value,
    ">": lambda lo, hi, value: hi > value,
    ">=": lambda lo, hi, value: hi >= value,
}


class Frame:
    """Lazy pruned view of one archive section's row groups."""

    def __init__(self, section: Section, use_stats: bool = True) -> None:
        self._section = section
        self.n_chunks = section.n_chunks
        #: Which row groups survive pruning so far.
        self.keep = np.ones(self.n_chunks, dtype=bool)
        self.use_stats = bool(use_stats)

    # -- stats access ----------------------------------------------------

    def _stats(self, name: str) -> tuple[np.ndarray, ...] | None:
        """Per-chunk ``(min, max, sum)`` arrays of one column, or None if
        any chunk predates the stats extension."""
        if not self.use_stats:
            return None
        return self._section._table(name).stats(name)

    # -- pruning ---------------------------------------------------------

    def prune(self, name: str, op: str, value: int,
              divisor: int | None = None) -> bool:
        """Drop row groups where ``column <op> value`` cannot hold.

        ``divisor`` prunes on ``column // divisor`` (node-of-PE fields):
        floor division is monotone, so the divided bounds still bound the
        divided values.  Returns True when stats allowed pruning (even if
        nothing was dropped), False when the frame fell back to keeping
        everything.
        """
        stats = self._stats(name)
        if stats is None:
            return False
        lo, hi, _ = stats
        if divisor:
            lo, hi = lo // divisor, hi // divisor
        self.keep &= INTERVAL_MAY_MATCH[op](lo, hi, value)
        return True

    # -- row-group access ------------------------------------------------

    def groups(self, *names: str, constant: str | None = None) -> Iterator[tuple]:
        """The named columns of one surviving row group at a time: int64
        arrays decoded for this iteration only, kept by neither frame nor
        section, so a fold costs one row group of memory however long the
        section is.  (An in-memory section yields the trace's own arrays.)
        Column ``constant`` is the int :meth:`constants` reads, where it
        reads one, and is then not decoded."""
        section = self._section
        table = section._table(*names)
        kept = np.flatnonzero(self.keep).tolist()
        known = self.constants(constant) if constant else [None] * len(kept)
        for group, value in zip(kept, known):
            yield tuple(value if value is not None and name == constant
                        else section.decode_chunk(name, table.ref(name, group))
                        for name in names)

    def constants(self, name: str) -> list[int | None]:
        """Per surviving row group, the value every row of column ``name``
        holds when its chunk is a zero-width ``pack`` with no payload (read
        from the chunk index, not decoded), else None."""
        table, kept = self._section._table(name), np.flatnonzero(self.keep)
        encodings, lengths = table.encodings[name], table.column(name)[kept, 1]
        return [None if length else _constant(encodings[group])
                for group, length in zip(kept.tolist(), lengths.tolist())]

    # -- stats-only aggregation ------------------------------------------

    def total(self, name: str) -> int | None:
        """Sum of one column over surviving row groups, from footer stats
        alone (no payload decode); None when stats are unavailable."""
        stats = self._stats(name)
        return None if stats is None else sum(stats[2][self.keep].tolist())

    def weighted_total(self) -> int | None:
        """Sum of ``count * size`` over surviving row groups, from the
        footer's per-row-group weights; None when the writer did not
        record them."""
        weights = self._section._chunks.weights if self.use_stats else None
        return None if weights is None else sum(weights[self.keep].tolist())


def _constant(encoding: str) -> int | None:
    if not encoding.startswith("pack:"):
        return None
    try:
        lo, _, width, _ = pack_spec(encoding)
    except CodecError:  # left for the decode to raise, located
        return None
    return lo if width == 0 else None


# ----------------------------------------------------------------------
# vectorized aggregation helpers
# ----------------------------------------------------------------------

def group_sum(keys: np.ndarray, weights: np.ndarray,
              where: np.ndarray | bool = True,
              bounds: tuple[int, int] | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Sum int64 ``weights`` per distinct key over the rows ``where``
    selects (a mask, or True for all): ``(unique_keys, sums)``, keys
    ascending, one for every key a selected row carries whatever its sum.
    ``bounds`` is the keys' ``(min, max)``, when the caller knows it.
    Rows of one key (a sorted run's row group) are one masked reduce, no
    copy, and no key when the mask selects none.  Any others are masked,
    then take an int64 :func:`~repro.core.rowstore.bincount` if their
    span is dense enough, else the row store's sort-based
    :func:`~repro.core.rowstore.fold`."""
    if len(keys) == 0:
        return keys, weights
    lo, hi = bounds if bounds is not None else (int(keys.min()), int(keys.max()))
    if lo == hi and (where is True or where.any()):
        # (a copy: a view would keep the whole row group alive)
        return keys[:1].copy(), np.add.reduce(weights, where=where, keepdims=True)
    if where is not True:  # [lo, hi] still bounds the rows it keeps
        keys, weights = keys[where], weights[where]
    span = hi - lo + 1
    if span <= max(1 << 10, 4 * len(keys)):
        shifted = keys - lo
        present = np.flatnonzero(np.bincount(shifted, minlength=span))
        return present + lo, bincount(shifted, weights, span)[present]
    return tuple(fold(np.stack((keys.astype(np.int64), weights)), 1))
