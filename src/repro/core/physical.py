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
from repro.core.rowstore import (
    RowStore, bincount, check_pe_pairs, check_text_pes, scatter_matrix)
from repro.machine.spec import MachineSpec

#: The ``physical`` section's columns; ``kind`` indexes :data:`SEND_TYPES`
#: and ``(kind, size, src, dst)`` is the key.
COLUMNS = ("kind", "size", "src", "dst", "count")

_CODE = {kind: code for code, kind in enumerate(SEND_TYPES)}
#: Code → position of its send-type name in alphabetical order, the row
#: order of ``physical.txt``.
_NAME_RANK = np.argsort(np.argsort(SEND_TYPES))


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
        self._rows = RowStore(COLUMNS, keys=4)

    # ------------------------------------------------------------------
    # TraceSink interface (called from inside Conveyors)
    # ------------------------------------------------------------------

    def record(self, send_type: str, nbytes: int, src_pe: int, dst_pe: int, time: int) -> None:
        """Record one instrumented Conveyors operation."""
        code = _CODE.get(send_type)
        if code is None:
            raise ValueError(f"unknown physical send type {send_type!r}")
        self._rows.add((code, nbytes, src_pe, dst_pe, 1))

    def clear(self) -> None:
        """Drop the aggregated rows (after a streaming spill)."""
        self._rows.clear()

    # ------------------------------------------------------------------
    # analysis accessors
    # ------------------------------------------------------------------

    def _select(self, send_type: str | None) -> np.ndarray:
        """The table, restricted to one send type when given."""
        table = self._rows.table()
        if send_type is None:
            return table
        return table[:, table[0] == _CODE.get(send_type, -1)]

    def matrix(self, send_type: str | None = None) -> np.ndarray:
        """(n_pes, n_pes) buffer-count matrix, optionally one send type."""
        _kind, _size, src, dst, count = self._select(send_type)
        return scatter_matrix(src, dst, count, (self.n_pes, self.n_pes))

    def bytes_matrix(self, send_type: str | None = None) -> np.ndarray:
        """(n_pes, n_pes) buffer-byte matrix, optionally one send type."""
        _kind, size, src, dst, count = self._select(send_type)
        return scatter_matrix(src, dst, count * size, (self.n_pes, self.n_pes))

    def counts_by_type(self) -> dict[str, int]:
        """Total operations per send type (the types present)."""
        kind, *_, count = self._rows.table()
        totals = bincount(kind, count, len(SEND_TYPES)).tolist()
        return {SEND_TYPES[code]: totals[code] for code in np.unique(kind).tolist()}

    def sends_per_pe(self, send_type: str | None = None) -> np.ndarray:
        *_, src, _dst, count = self._select(send_type)
        return bincount(src, count, self.n_pes)

    def recvs_per_pe(self, send_type: str | None = None) -> np.ndarray:
        *_, dst, count = self._select(send_type)
        return bincount(dst, count, self.n_pes)

    def total_operations(self) -> int:
        return int(self._rows.table()[4].sum())

    # ------------------------------------------------------------------
    # archive adapters (.aptrc columnar store)
    # ------------------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict]:
        """Columnar form for the ``.aptrc`` store: (columns, attrs).

        ``kind`` is stored as an index into the ``send_types`` attr so
        the column is pure integers.
        """
        attrs = {"n_pes": self.n_pes, "send_types": list(SEND_TYPES)}
        if self.spec is not None:
            attrs.update(self.spec.attrs())
        return self._rows.columns(), attrs

    @classmethod
    def from_columns(cls, columns: dict, attrs: dict) -> "PhysicalTrace":
        """Rebuild a trace from archive columns (inverse of to_columns).

        Duplicate keys from streamed partial aggregates merge by summing.
        """
        n_pes = int(attrs["n_pes"])
        send_types = [str(s) for s in attrs.get("send_types", SEND_TYPES)]
        has_spec = "pes_per_node" in attrs and "nodes" in attrs
        trace = cls(n_pes, spec=MachineSpec.from_attrs(attrs) if has_spec else None)
        code = np.asarray(columns["kind"], dtype=np.int64)
        bad_code = (code < 0) | (code >= len(send_types))
        check_pe_pairs("physical", columns, n_pes, bad=bad_code)
        if bad_code.any():
            raise ValueError(
                f"archived physical row has send-type code "
                f"{code[bad_code][0]} out of range for send_types={send_types}"
            )
        if not set(send_types) <= set(SEND_TYPES):
            raise ValueError(f"archived physical attr 'send_types' {send_types}"
                             f" names a send type not in {SEND_TYPES}")
        recode = np.array([_CODE[t] for t in send_types], dtype=np.int64)
        trace._rows.adopt({**columns, "kind": recode[code]})
        return trace

    # ------------------------------------------------------------------
    # file I/O (paper format)
    # ------------------------------------------------------------------

    def write(self, directory: str | Path) -> Path:
        """Write ``physical.txt``; returns its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "physical.txt"
        kind, size, src, dst, count = table = self._rows.table()
        order = np.lexsort((dst, src, size, _NAME_RANK[kind]))
        with path.open("w") as f:
            f.write("# send type, buffer size, source PE, destination PE\n")
            for code, nbytes, s, d, n in table[:, order].T.tolist():
                f.write(f"{SEND_TYPES[code]},{nbytes},{s},{d}\n" * n)
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
            check_text_pes(f"{path}:{lineno}", src, dst, n_pes)
            rows.append((kind, nbytes, src, dst))
            max_pe = max(max_pe, src, dst)
    if n_pes is None:
        n_pes = max_pe + 1
    trace = PhysicalTrace(n_pes, spec=spec)
    for kind, nbytes, src, dst in rows:
        trace.record(kind, nbytes, src, dst, 0)
    return trace
