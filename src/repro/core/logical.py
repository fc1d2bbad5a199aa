"""Logical trace: application-level (pre-aggregation) sends.

Section III-A: "Logical trace records the 'user application-fed' source
and destination records" — one record per asynchronous send, before
Conveyors aggregates anything.  File format (one file per PE)::

    PEi_send.csv:
      source node, source PE, destination node, destination PE, message size

Records are aggregated in memory as (src, dst, size) → count so that
billion-send runs don't hold billions of Python objects; writing the CSV
expands counts back into the paper's one-line-per-send format.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.machine.spec import MachineSpec


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
        # per source PE: {(dst, msg_size): count}
        self._counts: list[dict[tuple[int, int], int]] = [
            {} for _ in range(spec.n_pes)
        ]
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
        key = (dst, msg_size)
        c = self._counts[src]
        c[key] = c.get(key, 0) + 1

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
            first = (-tick) % k
            dsts = dsts[first::k]
            if len(dsts) == 0:
                return
        uniq, counts = np.unique(dsts, return_counts=True)
        c = self._counts[src]
        for dst, cnt in zip(uniq.tolist(), counts.tolist()):
            key = (int(dst), msg_size)
            c[key] = c.get(key, 0) + int(cnt)

    def clear(self) -> None:
        """Drop the aggregated rows (after a streaming spill); ticks stay."""
        for per_src in self._counts:
            per_src.clear()

    # ------------------------------------------------------------------
    # analysis accessors
    # ------------------------------------------------------------------

    @property
    def n_pes(self) -> int:
        return self.spec.n_pes

    def matrix(self) -> np.ndarray:
        """(n_pes, n_pes) send-count matrix: row = source, column = dest."""
        m = np.zeros((self.n_pes, self.n_pes), dtype=np.int64)
        for src, counts in enumerate(self._counts):
            for (dst, _size), n in counts.items():
                m[src, dst] += n
        return m

    def bytes_matrix(self) -> np.ndarray:
        """(n_pes, n_pes) payload-byte matrix."""
        m = np.zeros((self.n_pes, self.n_pes), dtype=np.int64)
        for src, counts in enumerate(self._counts):
            for (dst, size), n in counts.items():
                m[src, dst] += n * size
        return m

    def sends_per_pe(self) -> np.ndarray:
        """Total messages sent by each PE (the heatmap's last column)."""
        return self.matrix().sum(axis=1)

    def recvs_per_pe(self) -> np.ndarray:
        """Total messages received by each PE (the heatmap's last row)."""
        return self.matrix().sum(axis=0)

    def total_sends(self) -> int:
        """Recorded sends (equal to actual sends when not sampling)."""
        return int(self.matrix().sum())

    def observed_sends(self) -> int:
        """Actual sends seen by the recorder, including unsampled ones."""
        return sum(self._ticks)

    def estimated_matrix(self) -> np.ndarray:
        """Population estimate of the send matrix under sampling."""
        return self.matrix() * self.sample_interval

    def estimated_total_sends(self) -> int:
        return int(self.estimated_matrix().sum())

    # ------------------------------------------------------------------
    # archive adapters (.aptrc columnar store)
    # ------------------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict]:
        """Columnar form for the ``.aptrc`` store: (columns, attrs).

        Rows are the aggregated ``(src, dst, size) → count`` entries,
        sorted so the delta codec sees near-monotone sequences.
        """
        srcs: list[int] = []
        dsts: list[int] = []
        sizes: list[int] = []
        counts: list[int] = []
        for src, per_src in enumerate(self._counts):
            for (dst, size), n in sorted(per_src.items()):
                srcs.append(src)
                dsts.append(dst)
                sizes.append(size)
                counts.append(n)
        columns = {
            "src": np.asarray(srcs, dtype=np.int64),
            "dst": np.asarray(dsts, dtype=np.int64),
            "size": np.asarray(sizes, dtype=np.int64),
            "count": np.asarray(counts, dtype=np.int64),
        }
        attrs = {
            **self.spec.attrs(),
            "sample_interval": self.sample_interval,
            "ticks": list(self._ticks),
        }
        return columns, attrs

    @classmethod
    def from_columns(cls, columns: dict, attrs: dict) -> "LogicalTrace":
        """Rebuild a trace from archive columns (inverse of to_columns).

        Duplicate ``(src, dst, size)`` keys — produced by streaming
        writers that spill partial aggregates — are merged by summing.
        """
        spec = MachineSpec.from_attrs(attrs)
        trace = cls(spec, sample_interval=int(attrs.get("sample_interval", 1)))
        n_pes = spec.n_pes
        for src, dst, size, n in zip(
            columns["src"].tolist(), columns["dst"].tolist(),
            columns["size"].tolist(), columns["count"].tolist(),
        ):
            if not (0 <= src < n_pes and 0 <= dst < n_pes):
                raise ValueError(
                    f"archived logical row has PE pair ({src}, {dst}) out "
                    f"of range for n_pes={n_pes}"
                )
            c = trace._counts[src]
            key = (dst, size)
            c[key] = c.get(key, 0) + n
        ticks = attrs.get("ticks")
        if ticks is not None:
            trace._ticks = [int(t) for t in ticks]
        else:
            trace._ticks = [
                sum(per_src.values()) * trace.sample_interval
                for per_src in trace._counts
            ]
        return trace

    # ------------------------------------------------------------------
    # file I/O (paper format)
    # ------------------------------------------------------------------

    def write(self, directory: str | Path) -> list[Path]:
        """Write ``PEi_send.csv`` per PE; returns the paths written."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for src in range(self.n_pes):
            path = directory / f"PE{src}_send.csv"
            src_node = self.spec.node_of(src)
            with path.open("w") as f:
                f.write("# source node, source PE, destination node, "
                        "destination PE, message size\n")
                for (dst, size), n in sorted(self._counts[src].items()):
                    dst_node = self.spec.node_of(dst)
                    line = f"{src_node},{src},{dst_node},{dst},{size}\n"
                    f.write(line * n)
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
                for label, pe in (("source", parts[1]),
                                  ("destination", parts[3])):
                    if not 0 <= pe < n_pes:
                        raise ValueError(
                            f"{path}:{lineno}: {label} PE {pe} out of range "
                            f"for n_pes={n_pes}"
                        )
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
