"""The trace-invariant engine: what must hold in EVERY legal schedule.

Each check takes the :class:`~repro.check.workloads.RunArtifacts` of one
audited run and returns violations (empty = holds).  The invariants are
the paper's implicit correctness contract:

* **Send conservation** — every logical send lands in exactly one
  physical delivery: conveyor pushes == pulls per group, the logical
  matrix total equals total pushes, and (for instrumented workloads) the
  handler-counted ``(src, dst)`` receipt matrix equals the logical matrix
  per PE pair.
* **Region identity** — T_TOTAL = T_MAIN + T_COMM + T_PROC with
  T_COMM >= 0 (COMM is derived, so the check is that MAIN + PROC never
  exceed the measured total).
* **Monotone clocks** — no PE's profiled total exceeds its final
  simulated clock, and clocks never run backwards from zero.
* **Store equivalence** — the ``.aptrc`` archive and the paper-format CSV
  files round-trip to the same matrices the profiler holds in memory.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.check.workloads import RunArtifacts
from repro.core.logical import parse_logical_dir
from repro.core.overall import parse_overall_file
from repro.core.physical import parse_physical_file
from repro.core.store.archive import load_run


@dataclass(frozen=True)
class Violation:
    """One broken invariant in one audited run."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def check_send_conservation(art: RunArtifacts) -> list[Violation]:
    """Logical sends are conserved through the physical conveyor layer."""
    out: list[Violation] = []
    assert art.profiler.logical is not None
    matrix = art.profiler.logical.matrix()
    logical_total = int(matrix.sum())
    pushes = sum(g["pushes"] for g in art.group_stats)
    pulls = sum(g["pulls"] for g in art.group_stats)
    if logical_total != pushes:
        out.append(Violation(
            "send-conservation",
            f"logical trace records {logical_total} sends but conveyors "
            f"pushed {pushes} items",
        ))
    for i, g in enumerate(art.group_stats):
        if g["pushes"] != g["pulls"]:
            out.append(Violation(
                "send-conservation",
                f"conveyor group {i}: {g['pushes']} pushes != "
                f"{g['pulls']} pulls (messages lost or duplicated)",
            ))
    if art.receipts is not None:
        if not np.array_equal(art.receipts, matrix):
            delta = np.argwhere(art.receipts != matrix)
            src, dst = (int(x) for x in delta[0])
            out.append(Violation(
                "send-conservation",
                f"handler receipts disagree with the logical matrix at "
                f"{len(delta)} PE pair(s); first: {src}->{dst} received "
                f"{int(art.receipts[src, dst])}, logical says "
                f"{int(matrix[src, dst])}",
            ))
    if art.received_per_pe is not None:
        col_sums = [int(x) for x in matrix.sum(axis=0)]
        if art.received_per_pe != col_sums:
            out.append(Violation(
                "send-conservation",
                f"per-PE receive totals {art.received_per_pe} != logical "
                f"column sums {col_sums}",
            ))
    return out


def check_region_identity(art: RunArtifacts,
                          tolerance: float = 0.0) -> list[Violation]:
    """T_TOTAL = T_MAIN + T_COMM + T_PROC, with derived T_COMM >= 0."""
    out: list[Violation] = []
    overall = art.profiler.overall
    if overall is None:
        return out
    slack = tolerance * overall.t_total.astype(np.float64)
    for pe in range(len(overall.t_total)):
        tm, tp, tt = (int(overall.t_main[pe]), int(overall.t_proc[pe]),
                      int(overall.t_total[pe]))
        if tm < 0 or tp < 0 or tt < 0:
            out.append(Violation(
                "region-identity",
                f"PE {pe}: negative region time (MAIN={tm}, PROC={tp}, "
                f"TOTAL={tt})",
            ))
        elif tm + tp > tt + slack[pe]:
            out.append(Violation(
                "region-identity",
                f"PE {pe}: T_MAIN + T_PROC = {tm + tp} exceeds "
                f"T_TOTAL = {tt} (derived T_COMM would be negative)",
            ))
    return out


def check_monotone_clocks(art: RunArtifacts) -> list[Violation]:
    """Profiled totals fit inside each PE's final simulated clock."""
    out: list[Violation] = []
    for pe, clock in enumerate(art.clocks):
        if clock < 0:
            out.append(Violation(
                "monotone-clocks", f"PE {pe}: final clock ran backwards "
                f"to {clock}",
            ))
    overall = art.profiler.overall
    if overall is not None:
        for pe, clock in enumerate(art.clocks):
            tt = int(overall.t_total[pe])
            if tt > clock:
                out.append(Violation(
                    "monotone-clocks",
                    f"PE {pe}: profiled T_TOTAL = {tt} exceeds the final "
                    f"simulated clock {clock}",
                ))
    return out


def check_store_equivalence(art: RunArtifacts) -> list[Violation]:
    """The archive and the CSV files reproduce the in-memory traces."""
    out: list[Violation] = []
    prof = art.profiler
    loaded = load_run(art.archive_path)
    if prof.logical is not None:
        if (loaded.logical is None
                or not np.array_equal(loaded.logical.matrix(),
                                      prof.logical.matrix())):
            out.append(Violation(
                "store-equivalence",
                f"archive {art.archive_path.name}: logical matrix does not "
                f"round-trip",
            ))
    if prof.physical is not None:
        if (loaded.physical is None
                or not np.array_equal(loaded.physical.matrix(),
                                      prof.physical.matrix())
                or loaded.physical.counts_by_type()
                != prof.physical.counts_by_type()):
            out.append(Violation(
                "store-equivalence",
                f"archive {art.archive_path.name}: physical trace does not "
                f"round-trip",
            ))
    if prof.overall is not None:
        if (loaded.overall is None
                or not np.array_equal(loaded.overall.t_main, prof.overall.t_main)
                or not np.array_equal(loaded.overall.t_proc, prof.overall.t_proc)
                or not np.array_equal(loaded.overall.t_total,
                                      prof.overall.t_total)):
            out.append(Violation(
                "store-equivalence",
                f"archive {art.archive_path.name}: overall profile does not "
                f"round-trip",
            ))
    if prof.papi_trace is not None:
        want = len(prof.papi_trace.to_columns()[0]["src"])
        got = (len(loaded.papi.to_columns()[0]["src"])
               if loaded.papi is not None else -1)
        if got != want or (loaded.papi is not None
                           and loaded.papi.events != prof.papi_trace.events):
            out.append(Violation(
                "store-equivalence",
                f"archive {art.archive_path.name}: PAPI trace does not "
                f"round-trip ({got} rows vs {want} in memory)",
            ))
    # CSV round trip: the paper-format files must parse back to the same
    # matrices (archive/CSV equivalence).
    n_pes = art.n_pes
    with tempfile.TemporaryDirectory(prefix="actorcheck-csv-") as tmp:
        prof.write_traces(tmp)
        tmp_path = Path(tmp)
        if prof.logical is not None:
            parsed = parse_logical_dir(tmp_path, n_pes)
            if not np.array_equal(parsed.matrix(), prof.logical.matrix()):
                out.append(Violation(
                    "store-equivalence",
                    "CSV logical trace does not round-trip to the "
                    "in-memory matrix",
                ))
        if prof.physical is not None:
            parsed = parse_physical_file(tmp_path, n_pes)
            if not np.array_equal(parsed.matrix(), prof.physical.matrix()):
                out.append(Violation(
                    "store-equivalence",
                    "CSV physical trace does not round-trip to the "
                    "in-memory matrix",
                ))
        if prof.overall is not None:
            parsed = parse_overall_file(tmp_path)
            if not (np.array_equal(parsed.t_main, prof.overall.t_main)
                    and np.array_equal(parsed.t_proc, prof.overall.t_proc)
                    and np.array_equal(parsed.t_total, prof.overall.t_total)):
                out.append(Violation(
                    "store-equivalence",
                    "CSV overall profile does not round-trip to the "
                    "in-memory arrays",
                ))
    return out


def run_invariants(art: RunArtifacts,
                   store_equivalence: bool = True,
                   tolerance: float = 0.0) -> list[Violation]:
    """Run every invariant against one audited run."""
    out = check_send_conservation(art)
    out += check_region_identity(art, tolerance=tolerance)
    out += check_monotone_clocks(art)
    if store_equivalence:
        out += check_store_equivalence(art)
    return out
