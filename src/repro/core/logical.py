"""Logical trace: application-level (pre-aggregation) sends.

Section III-A: "Logical trace records the 'user application-fed' source
and destination records" — one record per asynchronous send, before
Conveyors aggregates anything.  File format (one file per PE)::

    PEi_send.csv:
      source node, source PE, destination node, destination PE, message size

Records are aggregated in memory as ``(src, dst, size) → count`` rows of
a folded :class:`~repro.core.rowstore.RowStore` — the columns of the
archive's ``logical`` section — so billion-send runs don't hold billions
of Python objects; writing the CSV expands counts back into the paper's
one-line-per-send format.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.rowstore import (
    RowStore, attr_array, bincount, check_pe_pairs, check_text_pes, scatter_matrix)
from repro.machine.spec import MachineSpec

#: The ``logical`` section's columns; ``(src, dst, size)`` is the key.
COLUMNS = ("src", "dst", "size", "count")


class LogicalTrace:
    """Recorder + container for the logical trace of one run.

    ``sample_interval`` > 1 enables the trace-size management the paper's
    Section VI calls for: only every k-th send per PE is recorded
    (deterministic, stratified per source, no RNG), and
    :meth:`estimated_matrix` rescales the sample back to population
    estimates.  ``matrix()`` always returns the *recorded* counts.
    """

    def __init__(self, spec: MachineSpec, sample_interval: int = 1) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.spec = spec
        self.sample_interval = sample_interval
        self._rows = RowStore(COLUMNS, keys=3)
        self._ticks = [0] * spec.n_pes  # sends seen per PE (pre-sampling)

    # ------------------------------------------------------------------
    # recording (called from ActorProf's runtime hooks)
    # ------------------------------------------------------------------

    def record(self, src: int, dst: int, msg_size: int) -> None:
        """Record one send (subject to sampling)."""
        tick = self._ticks[src]
        self._ticks[src] = tick + 1
        if tick % self.sample_interval:
            return
        self._rows.add((src, dst, msg_size, 1))

    def record_batch(self, src: int, dsts: np.ndarray, msg_size: int) -> None:
        """Record a batch of sends of uniform size (vectorized).

        Sampling keeps exactly the elements the scalar path would keep:
        positions where the running per-PE tick hits the interval.
        """
        n = len(dsts)
        if n == 0:
            return
        dsts = np.asarray(dsts)
        k = self.sample_interval
        tick = self._ticks[src]
        self._ticks[src] = tick + n
        if k > 1:
            # positions p where (tick + p) % k == 0
            dsts = dsts[(-tick) % k::k]
        uniq, counts = np.unique(dsts, return_counts=True)
        same = np.full(len(uniq), src), np.full(len(uniq), msg_size)
        self._rows.add(np.column_stack((same[0], uniq, same[1], counts)).ravel().tolist())

    def clear(self) -> None:
        """Drop the aggregated rows (after a streaming spill); ticks stay."""
        self._rows.clear()

    # ------------------------------------------------------------------
    # analysis accessors
    # ------------------------------------------------------------------

    @property
    def n_pes(self) -> int:
        return self.spec.n_pes

    def matrix(self) -> np.ndarray:
        """(n_pes, n_pes) send-count matrix: row = source, column = dest."""
        src, dst, _size, count = self._rows.table()
        return scatter_matrix(src, dst, count, (self.n_pes, self.n_pes))

    def bytes_matrix(self) -> np.ndarray:
        """(n_pes, n_pes) payload-byte matrix."""
        src, dst, size, count = self._rows.table()
        return scatter_matrix(src, dst, count * size, (self.n_pes, self.n_pes))

    def sends_per_pe(self) -> np.ndarray:
        """Total messages sent by each PE (the heatmap's last column)."""
        src, _dst, _size, count = self._rows.table()
        return bincount(src, count, self.n_pes)

    def recvs_per_pe(self) -> np.ndarray:
        """Total messages received by each PE (the heatmap's last row)."""
        _src, dst, _size, count = self._rows.table()
        return bincount(dst, count, self.n_pes)

    def total_sends(self) -> int:
        """Recorded sends (equal to actual sends when not sampling)."""
        return int(self._rows.table()[3].sum())

    def estimated_matrix(self) -> np.ndarray:
        """Population estimate of the send matrix under sampling."""
        return self.matrix() * self.sample_interval

    # ------------------------------------------------------------------
    # archive adapters (.aptrc columnar store)
    # ------------------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict]:
        """Columnar form for the ``.aptrc`` store: (columns, attrs).

        Rows are the aggregated ``(src, dst, size) → count`` entries,
        sorted so the delta codec sees near-monotone sequences.
        """
        attrs = {
            **self.spec.attrs(),
            "sample_interval": self.sample_interval,
            "ticks": list(self._ticks),
        }
        return self._rows.columns(), attrs

    @classmethod
    def from_columns(cls, columns: dict, attrs: dict) -> "LogicalTrace":
        """Rebuild a trace from archive columns (inverse of to_columns).

        Duplicate ``(src, dst, size)`` keys — produced by streaming
        writers that spill partial aggregates — are merged by summing.
        """
        spec = MachineSpec.from_attrs(attrs)
        trace = cls(spec, sample_interval=int(attrs.get("sample_interval", 1)))
        check_pe_pairs("logical", columns, spec.n_pes)
        trace._rows.adopt(columns)
        trace._ticks = (
            attr_array(attrs, "logical", "ticks", (spec.n_pes,))
            if attrs.get("ticks") is not None
            else trace.sends_per_pe() * trace.sample_interval).tolist()
        return trace

    # ------------------------------------------------------------------
    # file I/O (paper format)
    # ------------------------------------------------------------------

    def write(self, directory: str | Path) -> list[Path]:
        """Write ``PEi_send.csv`` per PE; returns the paths written."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        _src, dst, size, count = self._rows.table().tolist()
        bounds = self._rows.bounds(self.n_pes).tolist()
        node_of = self.spec.node_of
        paths = []
        for src in range(self.n_pes):
            path = directory / f"PE{src}_send.csv"
            src_node = node_of(src)
            with path.open("w") as f:
                f.write("# source node, source PE, destination node, "
                        "destination PE, message size\n")
                for i in range(bounds[src], bounds[src + 1]):
                    line = f"{src_node},{src},{node_of(dst[i])},{dst[i]},{size[i]}\n"
                    f.write(line * count[i])
            paths.append(path)
        return paths


def parse_logical_dir(directory: str | Path, n_pes: int,
                      pes_per_node: int | None = None) -> LogicalTrace:
    """Parse a directory of ``PEi_send.csv`` files back into a trace.

    ``pes_per_node`` is inferred from the node columns when omitted.
    """
    if n_pes < 1:
        raise ValueError(f"n_pes must be >= 1, got {n_pes}")
    directory = Path(directory)
    rows: list[tuple[int, int, int, int, int]] = []
    max_node = 0
    for src in range(n_pes):
        path = directory / f"PE{src}_send.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing logical trace file {path}")
        with path.open() as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    parts = [int(x) for x in line.split(",")]
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: malformed logical trace line: "
                        f"{line!r} (expected 5 comma-separated integers)"
                    ) from None
                if len(parts) != 5:
                    raise ValueError(
                        f"{path}:{lineno}: malformed logical trace line: "
                        f"{line!r} (expected 5 fields, got {len(parts)})"
                    )
                check_text_pes(f"{path}:{lineno}", parts[1], parts[3], n_pes)
                rows.append(tuple(parts))  # type: ignore[arg-type]
                max_node = max(max_node, parts[0], parts[2])
    nodes = max_node + 1
    if pes_per_node is None:
        pes_per_node = n_pes // nodes if n_pes % nodes == 0 else n_pes
        nodes = n_pes // pes_per_node
    spec = MachineSpec(nodes, pes_per_node)
    trace = LogicalTrace(spec)
    for _sn, src, _dn, dst, size in rows:
        trace.record(src, dst, size)
    return trace
