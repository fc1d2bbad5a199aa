"""The one trace model: int64 section columns from the first append.

Every trace ActorProf records is a table of int64 columns named as in
its ``.aptrc`` section (send kinds and regions are integer codes).  A
hook appends one row's plain ints to a flat Python list, the cheapest
append CPython has; every :data:`BLOCK_ROWS` rows, and whenever the
table is read, the list becomes one ``(width, n)`` int64 block.  A table
reads *folded* (``keys=k``: a count table; rows equal on the first ``k``
columns merge by summing the rest, sorted on the keys in column order,
folded at block-full too), *grouped* (stably sorted on the first column,
the PE) or in recording order.
"""

from __future__ import annotations

import numpy as np

#: Rows a pending list holds before it becomes an int64 block.
BLOCK_ROWS = 1 << 16


def fold(table: np.ndarray, keys: int) -> np.ndarray:
    """Group-sum a ``(width, n)`` table on its first ``keys`` rows: one
    column per distinct key, keys ascending lexicographically."""
    if table.shape[1] < 2:
        return table
    table = table[:, np.lexsort(table[keys - 1::-1])]
    key = table[:keys]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(key[:, 1:] != key[:, :-1], axis=0))))
    return np.concatenate((key[:, starts],
                           np.add.reduceat(table[keys:], starts, axis=1)))


class RowStore:
    """An append-only int64 table with named columns (see module doc)."""

    __slots__ = ("names", "keys", "grouped", "pending", "_limit", "_blocks", "_compact")

    def __init__(self, names, keys: int = 0, grouped: bool = False) -> None:
        self.names = tuple(names)
        self.keys = keys
        self.grouped = grouped
        self.pending: list[int] = []  # row-major ints not yet in a block
        self._limit = BLOCK_ROWS * len(self.names)
        self._blocks: list[np.ndarray] = []
        self._compact = True  # _blocks is one block in read order

    def add(self, row) -> None:
        """Append one row (or several, flattened row-major)."""
        pending = self.pending
        pending += row
        if len(pending) >= self._limit:
            self.seal()

    def seal(self) -> None:
        """Turn the pending ints into a block (a count table folds)."""
        if self.pending:
            block = np.array(self.pending, dtype=np.int64)
            self.pending.clear()
            self._blocks.append(block.reshape(-1, len(self.names)).T)
            self._compact = False
            if self.keys:
                self._merge()

    def _merge(self) -> None:
        blocks = self._blocks or [np.zeros((len(self.names), 0), np.int64)]
        table = np.concatenate(blocks, axis=1)
        if self.keys:
            table = fold(table, self.keys)
        elif self.grouped:
            table = table[:, np.argsort(table[0], kind="stable")]
        self._blocks = [np.ascontiguousarray(table)]
        self._compact = True

    def table(self) -> np.ndarray:
        """Every row as one C-contiguous ``(width, n)`` int64 array in
        read order.  Treat it as read-only: later reads may return it."""
        self.seal()
        if not self._compact or not self._blocks:
            self._merge()
        return self._blocks[0]

    def columns(self) -> dict[str, np.ndarray]:
        """The table as named columns (contiguous views of :meth:`table`)."""
        return dict(zip(self.names, self.table()))

    def bounds(self, n: int) -> np.ndarray:
        """Rows whose (sorted) first column is ``v`` are
        ``[bounds[v], bounds[v + 1])``, for ``v`` in ``0..n-1``."""
        return np.searchsorted(self.table()[0], np.arange(n + 1))

    def adopt(self, columns: dict) -> None:
        """Replace the rows with ``columns`` (archive columns by name)."""
        self.pending.clear()
        self._blocks = [np.array([np.asarray(columns[name], dtype=np.int64)
                                  for name in self.names],
                                 dtype=np.int64).reshape(len(self.names), -1)]
        self._compact = False

    def clear(self) -> None:
        """Drop every row."""
        self.pending.clear()
        self._blocks = []
        self._compact = True


# ----------------------------------------------------------------------
# exact int64 reductions
# ----------------------------------------------------------------------

def bincount(indices: np.ndarray, weights: np.ndarray,
             length: int) -> np.ndarray:
    """Exact int64 sum of ``weights`` per index in ``[0, length)`` (else a
    ValueError): ``np.add.at`` adds in int64, and under numpy 2 it beats a
    guarded float64 ``np.bincount`` at every size from 16 rows to 1 M."""
    indices = np.asarray(indices)
    if len(indices) and indices.min() < 0:  # np.add.at would wrap it
        raise ValueError(f"bincount: index {indices.min()} is negative")
    out = np.zeros(length, dtype=np.int64)
    try:
        np.add.at(out, indices, np.asarray(weights, dtype=np.int64))
    except IndexError as exc:
        raise ValueError(f"bincount: {exc}") from None
    return out


def scatter_matrix(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                   shape: tuple[int, int]) -> np.ndarray:
    """Accumulate ``weights`` into a dense ``shape`` matrix at
    ``(rows[i], cols[i])`` — duplicate coordinates sum, which is exactly
    how streamed partial aggregates merge."""
    flat = np.asarray(rows, dtype=np.int64) * shape[1] \
        + np.asarray(cols, dtype=np.int64)
    return bincount(flat, weights, shape[0] * shape[1]).reshape(shape)


# ----------------------------------------------------------------------
# trust boundaries: archive columns and attrs, paper-format text rows
# ----------------------------------------------------------------------

def check_text_pes(where: str, src: int, dst: int, n_pes: int | None) -> None:
    """Refuse a text row whose source or destination PE lies outside
    ``[0, n_pes)`` (below 0 when ``n_pes`` is None); ``where`` is
    ``path:line``."""
    for label, pe in (("source", src), ("destination", dst)):
        if pe < 0 or (n_pes is not None and pe >= n_pes):
            bound = "a PE index" if n_pes is None else f"n_pes={n_pes}"
            raise ValueError(f"{where}: {label} PE {pe} out of range for {bound}")


def check_pe_pairs(what: str, columns: dict, n_pes: int,
                   bad: np.ndarray | None = None) -> None:
    """Refuse the first row whose ``src``/``dst`` lies outside
    ``[0, n_pes)`` — unless a row the caller marks ``bad`` comes first
    (the caller refuses that one)."""
    src, dst = (np.asarray(columns[c], dtype=np.int64) for c in ("src", "dst"))
    out = (src < 0) | (src >= n_pes) | (dst < 0) | (dst >= n_pes)
    first = np.flatnonzero(out if bad is None else out | bad)[:1]
    if len(first) and (bad is None or not bad[first[0]]):
        i = first[0]
        raise ValueError(f"archived {what} row has PE pair ({src[i]}, "
                         f"{dst[i]}) out of range for n_pes={n_pes}")


def attr_array(attrs: dict, section: str, name: str,
               shape: tuple[int, ...]) -> np.ndarray:
    """``attrs[name]`` as an int64 array of exactly ``shape``; anything
    else is a ValueError naming the section, the attr and the shape."""
    try:
        value = np.asarray(attrs[name], dtype=np.int64)
    except (TypeError, ValueError):
        value = None
    if value is None or value.shape != shape:
        got = "a ragged list" if value is None else f"shape {value.shape}"
        raise ValueError(f"archived {section} section attr {name!r} has "
                         f"{got}, expected shape {shape}")
    return value
