"""Physical trace: post-aggregation Conveyors network operations.

Section III-C: the physical trace records the network-fed routes dictated
by the Conveyors topology — one record per instrumented Conveyors call:

* ``local_send`` — intra-node buffer copy (memcpy via ``shmem_ptr``),
* ``nonblock_send`` — inter-node ``shmem_putmem_nbi`` of a buffer,
* ``nonblock_progress`` — ``shmem_quiet`` + signalling ``shmem_put``.

Existing profilers cannot capture the non-blocking routines (the paper's
Section V-B documents score-p / TAU / CrayPat / VTune all missing them),
which is why ActorProf generates this trace itself.

File format (single file for all PEs)::

    physical.txt:
      send type, buffer (network-packet) size, source PE, destination PE
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.conveyors.hooks import SEND_TYPES
from repro.machine.spec import MachineSpec


class PhysicalTrace:
    """Recorder + container for the physical trace (a Conveyors TraceSink).

    ``spec`` (a :class:`~repro.machine.spec.MachineSpec`) is optional but
    enables node-level analysis — e.g. the ``src_node``/``dst_node``
    query fields.  Traces built from bare ``n_pes`` keep working; node
    queries on them raise a clear error instead.
    """

    def __init__(self, n_pes: int, spec=None) -> None:
        self.n_pes = n_pes
        if spec is not None and spec.n_pes != n_pes:
            raise ValueError(
                f"spec has {spec.n_pes} PEs but trace was sized for {n_pes}"
            )
        self.spec = spec
        # (send_type, nbytes, src, dst) -> count
        self._counts: dict[tuple[str, int, int, int], int] = {}

    # ------------------------------------------------------------------
    # TraceSink interface (called from inside Conveyors)
    # ------------------------------------------------------------------

    def record(self, send_type: str, nbytes: int, src_pe: int, dst_pe: int, time: int) -> None:
        """Record one instrumented Conveyors operation."""
        if send_type not in SEND_TYPES:
            raise ValueError(f"unknown physical send type {send_type!r}")
        key = (send_type, nbytes, src_pe, dst_pe)
        self._counts[key] = self._counts.get(key, 0) + 1

    def clear(self) -> None:
        """Drop the aggregated rows (after a streaming spill)."""
        self._counts.clear()

    # ------------------------------------------------------------------
    # analysis accessors
    # ------------------------------------------------------------------

    def matrix(self, send_type: str | None = None) -> np.ndarray:
        """(n_pes, n_pes) buffer-count matrix, optionally one send type."""
        m = np.zeros((self.n_pes, self.n_pes), dtype=np.int64)
        for (kind, _nb, src, dst), n in self._counts.items():
            if send_type is None or kind == send_type:
                m[src, dst] += n
        return m

    def bytes_matrix(self, send_type: str | None = None) -> np.ndarray:
        """(n_pes, n_pes) buffer-byte matrix, optionally one send type."""
        m = np.zeros((self.n_pes, self.n_pes), dtype=np.int64)
        for (kind, nb, src, dst), n in self._counts.items():
            if send_type is None or kind == send_type:
                m[src, dst] += n * nb
        return m

    def counts_by_type(self) -> dict[str, int]:
        """Total operations per send type."""
        out: dict[str, int] = {}
        for (kind, _nb, _s, _d), n in self._counts.items():
            out[kind] = out.get(kind, 0) + n
        return out

    def sends_per_pe(self, send_type: str | None = None) -> np.ndarray:
        return self.matrix(send_type).sum(axis=1)

    def recvs_per_pe(self, send_type: str | None = None) -> np.ndarray:
        return self.matrix(send_type).sum(axis=0)

    def total_operations(self) -> int:
        return sum(self._counts.values())

    # ------------------------------------------------------------------
    # archive adapters (.aptrc columnar store)
    # ------------------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict]:
        """Columnar form for the ``.aptrc`` store: (columns, attrs).

        ``kind`` is stored as an index into the ``send_types`` attr so
        the column is pure integers.
        """
        keys = sorted(
            ((SEND_TYPES.index(kind), nb, src, dst), n)
            for (kind, nb, src, dst), n in self._counts.items()
        )
        columns = {
            "kind": np.asarray([k[0] for k, _ in keys], dtype=np.int64),
            "size": np.asarray([k[1] for k, _ in keys], dtype=np.int64),
            "src": np.asarray([k[2] for k, _ in keys], dtype=np.int64),
            "dst": np.asarray([k[3] for k, _ in keys], dtype=np.int64),
            "count": np.asarray([n for _, n in keys], dtype=np.int64),
        }
        attrs = {"n_pes": self.n_pes, "send_types": list(SEND_TYPES)}
        if self.spec is not None:
            attrs.update(self.spec.attrs())
        return columns, attrs

    @classmethod
    def from_columns(cls, columns: dict, attrs: dict) -> "PhysicalTrace":
        """Rebuild a trace from archive columns (inverse of to_columns).

        Duplicate keys from streamed partial aggregates merge by summing.
        """
        n_pes = int(attrs["n_pes"])
        send_types = [str(s) for s in attrs.get("send_types", SEND_TYPES)]
        spec = None
        if "pes_per_node" in attrs and "nodes" in attrs:
            spec = MachineSpec.from_attrs(attrs)
        trace = cls(n_pes, spec=spec)
        for code, nb, src, dst, n in zip(
            columns["kind"].tolist(), columns["size"].tolist(),
            columns["src"].tolist(), columns["dst"].tolist(),
            columns["count"].tolist(),
        ):
            if not 0 <= code < len(send_types):
                raise ValueError(
                    f"archived physical row has send-type code {code} out "
                    f"of range for send_types={send_types}"
                )
            if not (0 <= src < n_pes and 0 <= dst < n_pes):
                raise ValueError(
                    f"archived physical row has PE pair ({src}, {dst}) out "
                    f"of range for n_pes={n_pes}"
                )
            key = (send_types[code], nb, src, dst)
            trace._counts[key] = trace._counts.get(key, 0) + n
        return trace

    # ------------------------------------------------------------------
    # file I/O (paper format)
    # ------------------------------------------------------------------

    def write(self, directory: str | Path) -> Path:
        """Write ``physical.txt``; returns its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "physical.txt"
        with path.open("w") as f:
            f.write("# send type, buffer size, source PE, destination PE\n")
            for (kind, nbytes, src, dst), n in sorted(self._counts.items()):
                line = f"{kind},{nbytes},{src},{dst}\n"
                f.write(line * n)
        return path


def parse_physical_file(path: str | Path, n_pes: int | None = None,
                        spec=None) -> PhysicalTrace:
    """Parse a ``physical.txt`` back into a :class:`PhysicalTrace`.

    The text format carries no node layout, so ``src_node``/``dst_node``
    queries need ``spec`` (a :class:`~repro.machine.spec.MachineSpec`,
    typically taken from the logical trace of the same run).
    """
    path = Path(path)
    if n_pes is None and spec is not None:
        n_pes = spec.n_pes
    if path.is_dir():
        path = path / "physical.txt"
    rows: list[tuple[str, int, int, int]] = []
    max_pe = -1
    with path.open() as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(
                    f"{path}:{lineno}: malformed physical trace line: "
                    f"{line!r} (expected 4 fields, got {len(fields)})"
                )
            kind = fields[0].strip()
            if kind not in SEND_TYPES:
                raise ValueError(
                    f"{path}:{lineno}: unknown physical send type {kind!r} "
                    f"(expected one of {SEND_TYPES})"
                )
            try:
                nbytes, src, dst = (int(x) for x in fields[1:])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed physical trace line: "
                    f"{line!r} (size and PE fields must be integers)"
                ) from None
            for label, pe in (("source", src), ("destination", dst)):
                if pe < 0 or (n_pes is not None and pe >= n_pes):
                    bound = f"n_pes={n_pes}" if n_pes is not None else "a PE index"
                    raise ValueError(
                        f"{path}:{lineno}: {label} PE {pe} out of range "
                        f"for {bound}"
                    )
            rows.append((kind, nbytes, src, dst))
            max_pe = max(max_pe, src, dst)
    if n_pes is None:
        n_pes = max_pe + 1
    trace = PhysicalTrace(n_pes, spec=spec)
    for kind, nbytes, src, dst in rows:
        trace.record(kind, nbytes, src, dst, 0)
    return trace
