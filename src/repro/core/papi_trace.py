"""PAPI region trace: hardware counters for MAIN and PROC segments.

Section III-A: ActorProf profiles the user's code regions (MAIN = message
construction + local computation, PROC = message handling) with up to four
PAPI events, excluding Conveyors/HClib internals by placing PAPI start and
stop calls at the region boundaries.  File format (one file per PE)::

    PEi_PAPI.csv:
      source node, source PE, dst node, dst PE, pkt size, MAILBOXID,
      NUM_SENDS, <event 0>, <event 1>, ...

Each row is a sampled send: NUM_SENDS is the cumulative send count of that
PE at sampling time, and the event columns are the cumulative user-region
(MAIN + PROC) counter values — so the final row of each file carries the
per-PE totals plotted in the paper's Figures 10–11.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.rowstore import RowStore, attr_array, check_pe_pairs, check_text_pes
from repro.machine.spec import MachineSpec

#: The ``papi`` section's leading columns; ``ev_0`` … follow, one per event.
COLUMNS = ("src", "dst", "pkt_size", "mailbox", "num_sends")


class PAPITrace:
    """Recorder + container for the PAPI region trace of one run."""

    def __init__(self, spec: MachineSpec, events: tuple[str, ...]) -> None:
        self.spec = spec
        self.events = tuple(events)
        ne = len(self.events)
        self._rows = RowStore(
            COLUMNS + tuple(f"ev_{i}" for i in range(ne)), grouped=True)
        self._region_totals: dict[str, np.ndarray] = {
            "MAIN": np.zeros((spec.n_pes, ne), dtype=np.int64),
            "PROC": np.zeros((spec.n_pes, ne), dtype=np.int64),
        }
        #: Per region, per PE: plain-int counter deltas the profiler adds
        #: in place at each region exit; :attr:`region_totals` folds them
        #: into its arrays (and zeroes them) whenever it is read.
        self.pending: dict[str, list[list[int]]] = {
            region: [[0] * ne for _ in range(spec.n_pes)]
            for region in self._region_totals
        }

    # ------------------------------------------------------------------

    def record(
        self,
        src: int,
        dst: int,
        pkt_size: int,
        mailbox: int,
        num_sends: int,
        values: list[int] | tuple[int, ...],
    ) -> None:
        """Record one sampled send row."""
        self._rows.add((src, dst, pkt_size, mailbox, num_sends, *values))

    def rows(self, pe: int) -> np.ndarray:
        """Sampled rows of ``pe`` in recording order: an
        ``(n, 7 + n_events)`` int64 array in ``PEi_PAPI.csv`` column
        order (src node, src PE, dst node, dst PE, pkt size, mailbox,
        num sends, event values)."""
        table = self._rows.table()
        lo, hi = np.searchsorted(table[0], (pe, pe + 1))
        src, dst, *rest = table[:, lo:hi]
        ppn = self.spec.pes_per_node
        return np.stack((src // ppn, src, dst // ppn, dst, *rest), axis=1)

    @property
    def region_totals(self) -> dict[str, np.ndarray]:
        """Final per-PE, per-region counter totals: ``(n_pes, n_events)``
        int64 arrays keyed ``"MAIN"``/``"PROC"``, pending deltas folded in."""
        for region, pending in self.pending.items():
            if any(any(row) for row in pending):
                self._region_totals[region] += np.asarray(pending, dtype=np.int64)
                for row in pending:
                    row[:] = [0] * len(row)
        return self._region_totals

    @property
    def n_pes(self) -> int:
        return self.spec.n_pes

    def totals_per_pe(self, event: str, regions: tuple[str, ...] = ("MAIN", "PROC")) -> np.ndarray:
        """Final user-region counter total per PE for one event.

        This is the quantity behind the paper's PAPI bar graphs
        (e.g. total PAPI_TOT_INS per PE, Figures 10–11).
        """
        if event not in self.events:
            raise KeyError(f"event {event!r} was not recorded; have {self.events}")
        col = self.events.index(event)
        out = np.zeros(self.n_pes, dtype=np.int64)
        for region in regions:
            out += self.region_totals[region][:, col]
        return out

    # ------------------------------------------------------------------
    # archive adapters (.aptrc columnar store)
    # ------------------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict]:
        """Columnar form for the ``.aptrc`` store: (columns, attrs).

        One row per sampled send, PE-major in recording order; the event
        values become one column each (``ev_0`` …).  The small per-PE
        region totals travel in the attrs.
        """
        attrs = {
            **self.spec.attrs(),
            "events": list(self.events),
            "main_totals": self.region_totals["MAIN"].tolist(),
            "proc_totals": self.region_totals["PROC"].tolist(),
        }
        return self._rows.columns(), attrs

    @classmethod
    def from_columns(cls, columns: dict, attrs: dict) -> "PAPITrace":
        """Rebuild a trace from archive columns (inverse of to_columns)."""
        spec = MachineSpec.from_attrs(attrs)
        events = tuple(str(e) for e in attrs["events"])
        trace = cls(spec, events)
        missing = [c for c in trace._rows.names if c not in columns]
        if missing:
            raise ValueError(
                f"archived papi section lacks column {missing[0]!r} for attr "
                f"'events' {list(events)}: expected columns ev_0.."
                f"ev_{len(events) - 1}")
        check_pe_pairs("PAPI", columns, spec.n_pes)
        trace._rows.adopt(columns)
        for region, key in (("MAIN", "main_totals"), ("PROC", "proc_totals")):
            if attrs.get(key) is not None:
                trace.region_totals[region] = attr_array(
                    attrs, "papi", key, (spec.n_pes, len(events)))
        return trace

    # ------------------------------------------------------------------

    def write(self, directory: str | Path) -> list[Path]:
        """Write ``PEi_PAPI.csv`` per PE; returns the paths written."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        header = (
            "# source node, source PE, dst node, dst PE, pkt size, "
            "MAILBOXID, NUM_SENDS, " + ", ".join(self.events) + "\n"
        )
        paths = []
        for pe in range(self.n_pes):
            path = directory / f"PE{pe}_PAPI.csv"
            with path.open("w") as f:
                f.write(header)
                for row in self.rows(pe).tolist():
                    fixed = ",".join(map(str, row[:7]))
                    f.write(f"{fixed},{','.join(map(str, row[7:]))}\n")
            paths.append(path)
        return paths


def parse_papi_dir(directory: str | Path, n_pes: int) -> PAPITrace:
    """Parse a directory of ``PEi_PAPI.csv`` files back into a trace.

    Region totals are not stored in the CSV; after parsing,
    ``totals_per_pe`` is reconstructed from each PE's final row.

    Malformed input — non-integer fields, rows whose column count does not
    match the event header (a mixed-schema file), PE indices outside
    ``[0, n_pes)``, or headers that disagree across PEs — raises
    :class:`ValueError` with a ``path:line`` prefix pointing at the first
    offending row.
    """
    if n_pes < 1:
        raise ValueError(f"n_pes must be >= 1, got {n_pes}")
    directory = Path(directory)
    events: tuple[str, ...] | None = None
    header_origin = ""
    all_rows: list[list[tuple]] = []
    max_node = 0
    for pe in range(n_pes):
        path = directory / f"PE{pe}_PAPI.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing PAPI trace file {path}")
        rows: list[tuple] = []
        with path.open() as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    cols = [c.strip() for c in line.lstrip("#").split(",")]
                    evs = tuple(c for c in cols if c.startswith("PAPI_"))
                    if events is None:
                        events = evs
                        header_origin = f"{path}:{lineno}"
                    elif events != evs:
                        raise ValueError(
                            f"{path}:{lineno}: PAPI event header {evs} "
                            f"disagrees with {events} from {header_origin}"
                        )
                    continue
                if events is None:
                    raise ValueError(
                        f"{path}:{lineno}: PAPI data row before any event "
                        f"header (expected a '# …' header line first)"
                    )
                try:
                    parts = [int(x) for x in line.split(",")]
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: malformed PAPI trace line: "
                        f"{line!r} (all fields must be integers)"
                    ) from None
                expected = 7 + len(events)
                if len(parts) != expected:
                    raise ValueError(
                        f"{path}:{lineno}: PAPI row has {len(parts)} fields "
                        f"but the header at {header_origin} implies "
                        f"{expected} (7 fixed + {len(events)} events) — "
                        f"mixed-schema file?"
                    )
                check_text_pes(f"{path}:{lineno}", parts[1], parts[3], n_pes)
                rows.append(tuple(parts))
                max_node = max(max_node, parts[0], parts[2])
        all_rows.append(rows)
    if events is None:
        raise ValueError(f"no PAPI event header found in any file under {directory}")
    nodes = max_node + 1
    ppn = n_pes // nodes if n_pes % nodes == 0 else n_pes
    spec = MachineSpec(n_pes // ppn, ppn)
    trace = PAPITrace(spec, events)
    for pe, rows in enumerate(all_rows):
        for parts in rows:
            (_sn, src, _dn, dst, pkt, mb, ns), vals = parts[:7], parts[7:]
            trace.record(src, dst, pkt, mb, ns, vals)
        if rows:
            # last row carries the cumulative totals; attribute to MAIN for
            # bar-graph reconstruction (region split is not in the CSV)
            trace.region_totals["MAIN"][pe, :] = rows[-1][7:]
    return trace
