"""Lower-triangular adjacency matrices in CSR form.

Algorithm 1's input: ``L`` with ``l_ij`` (j < i) marking the undirected
edge {i, j}.  :class:`LowerTriangular` stores the global matrix; per-PE
local views are sliced through a distribution in :mod:`repro.apps`.
"""

from __future__ import annotations

import numpy as np

#: Upper neighbours per bitset pass of
#: :meth:`LowerTriangular.triangle_count_reference` (bitsets take
#: ``n_vertices * SPAN / 8`` bytes) and edges per AND/popcount block.
REFERENCE_SPAN = 4096
REFERENCE_EDGES = 4096


class LowerTriangular:
    """CSR storage of a strictly lower-triangular 0/1 adjacency matrix."""

    def __init__(self, n_vertices: int, rows: np.ndarray, cols: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be equal-length 1-D arrays")
        if len(rows) and (rows <= cols).any():
            raise ValueError("matrix must be strictly lower triangular (row > col)")
        if len(rows) and (rows.max() >= n_vertices or cols.min() < 0):
            raise ValueError("vertex index out of range")
        order = np.lexsort((cols, rows))
        self.n_vertices = n_vertices
        self.rows = rows[order]
        self.cols = cols[order]
        self.row_ptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.add.at(self.row_ptr, self.rows + 1, 1)
        np.cumsum(self.row_ptr, out=self.row_ptr)

    @classmethod
    def from_edges(cls, edges: np.ndarray, n_vertices: int | None = None) -> "LowerTriangular":
        """Build from an ``(m, 2)`` (row, col) edge array with row > col."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return cls(n_vertices or 0, np.empty(0, np.int64), np.empty(0, np.int64))
        if n_vertices is None:
            n_vertices = int(edges.max()) + 1
        return cls(n_vertices, edges[:, 0], edges[:, 1])

    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored edges."""
        return len(self.rows)

    def neighbors(self, i: int) -> np.ndarray:
        """Columns of row ``i`` (the lower neighbors of vertex ``i``), sorted."""
        return self.cols[self.row_ptr[i] : self.row_ptr[i + 1]]

    def row_degrees(self) -> np.ndarray:
        """Stored entries per row (lower-triangular degree of each vertex)."""
        return np.diff(self.row_ptr)

    def has_edge(self, i: int, j: int) -> bool:
        """Is ``l_ij`` present?  (Requires j < i to possibly be stored.)"""
        ns = self.neighbors(i)
        k = np.searchsorted(ns, j)
        return bool(k < len(ns) and ns[k] == j)

    def has_edges(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` over parallel index arrays.

        Edges are stored lexicographically by (row, col), so the combined
        key ``row * n + col`` is sorted and one batched binary search
        answers every query.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if len(rows) == 0:
            return np.zeros(0, dtype=bool)
        if self.nnz == 0:
            return np.zeros(len(rows), dtype=bool)
        keys = self._edge_keys()
        q = rows * self.n_vertices + cols
        # a query past the last key lands on position nnz; clipping it to
        # the last key compares against a smaller key, which never matches
        return keys.take(keys.searchsorted(q), mode="clip") == q

    def _edge_keys(self) -> np.ndarray:
        keys = getattr(self, "_keys", None)
        if keys is None:
            keys = self.rows * self.n_vertices + self.cols
            self._keys = keys
        return keys

    def triangle_count_reference(self) -> int:
        """Exact triangle count: Σ_{i>j>k} l_ij · l_ik · l_jk.

        That is ``((Lᵀ L) ∘ L).sum()``: for every stored edge (j, k), the
        number of common "upper" neighbours i of j and k.  Bit i of vertex
        v's bitset is ``l_iv``; each edge ANDs its endpoints' bitsets and
        counts the set bits.  No wedge is enumerated, so this checks
        Algorithm 1 (``l_jk`` tested for every neighbour pair of every i)
        by different arithmetic — the paper's assertion validation.
        A pass holds ``n_vertices * REFERENCE_SPAN / 8`` bytes of bitsets
        (32 MB at 2^16 vertices) and re-ANDs every edge below its span,
        so the work grows as ``nnz * n_vertices / REFERENCE_SPAN``.
        """
        n = self.n_vertices
        total = 0
        for lo in range(0, n, REFERENCE_SPAN):
            hi = min(lo + REFERENCE_SPAN, n)
            words = -(-(hi - lo) // 64)
            # the upper neighbours in [lo, hi) are those rows; their
            # columns, and every edge (j, k) that can share one, lie below hi
            first, last = self.row_ptr[lo], self.row_ptr[hi]
            i = self.rows[first:last] - lo
            bits = np.zeros(hi * words, dtype=np.uint64)
            np.bitwise_or.at(bits, self.cols[first:last] * words + (i >> 6),
                             np.uint64(1) << (i & 63).astype(np.uint64))
            bits = bits.reshape(hi, words)
            for e0 in range(0, last, REFERENCE_EDGES):
                e1 = min(e0 + REFERENCE_EDGES, last)
                common = bits[self.rows[e0:e1]] & bits[self.cols[e0:e1]]
                total += int(np.bitwise_count(common).sum(dtype=np.int64))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LowerTriangular(n={self.n_vertices}, nnz={self.nnz})"
