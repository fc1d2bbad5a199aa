"""Comparing two profiled runs (the case-study workflow, productized).

The paper's analysis is intrinsically comparative — 1D Cyclic *versus*
1D Range, one node *versus* two.  This module turns that into tooling:
given two runs' traces, compute the per-PE and aggregate deltas and render
a side-by-side report.  The CLI exposes it as ``actorprof diff RUN_A
RUN_B``, where each run may be a paper-format trace directory, a
``.aptrc`` archive or a registered run id (:func:`repro.api.diff`).

Every comparison rides the columnar
:class:`~repro.core.store.frame.Frame` layer: send matrices are
scatter-summed straight from columns and byte totals come from footer
chunk sums where available.  An archive contributes its sections as
they are (no trace objects, no per-route Python dicts); a parsed trace
directory contributes in-memory sections over its traces' columns.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.analysis import imbalance_ratio
from repro.core.logical import LogicalTrace, parse_logical_dir
from repro.core.overall import OverallProfile, parse_overall_file
from repro.core.papi_trace import parse_papi_dir
from repro.core.physical import PhysicalTrace, parse_physical_file
from repro.core.query import query_trace
from repro.core.rowstore import scatter_matrix
from repro.core.store.archive import (
    Archive,
    Section,
    is_archive,
    load_overall,
)
from repro.core.store.frame import Frame, as_section
from repro.machine.spec import MachineSpec


def _ratio(a: float, b: float) -> float:
    return float(a / b) if b else float("inf")


@dataclass(frozen=True)
class LogicalDiff:
    """Logical-trace comparison of run A against run B."""

    total_sends_a: int
    total_sends_b: int
    max_sends_ratio: float          # A's hottest sender vs B's
    max_recvs_ratio: float
    send_imbalance_a: float
    send_imbalance_b: float
    moved_messages: int             # |A - B| matrix mass (same shape only)

    @classmethod
    def of(cls, a: LogicalTrace | Section,
           b: LogicalTrace | Section) -> "LogicalDiff":
        """Diff two logical traces, each a trace object or an archive
        section, by their per-PE send-count matrices."""
        ma, mb = _logical_matrix(a), _logical_matrix(b)
        moved = int(np.abs(ma - mb).sum()) if ma.shape == mb.shape else -1
        return cls(
            total_sends_a=int(ma.sum()),
            total_sends_b=int(mb.sum()),
            max_sends_ratio=_ratio(ma.sum(axis=1).max(), mb.sum(axis=1).max()),
            max_recvs_ratio=_ratio(ma.sum(axis=0).max(), mb.sum(axis=0).max()),
            send_imbalance_a=imbalance_ratio(ma.sum(axis=1)),
            send_imbalance_b=imbalance_ratio(mb.sum(axis=1)),
            moved_messages=moved,
        )


@dataclass(frozen=True)
class OverallDiff:
    """Overall-profile comparison of run A against run B."""

    total_ratio: float              # max T_TOTAL A / B (>1 ⇒ A slower)
    main_share_a: float
    main_share_b: float
    comm_share_a: float
    comm_share_b: float
    proc_share_a: float
    proc_share_b: float

    @classmethod
    def of(cls, a: OverallProfile, b: OverallProfile) -> "OverallDiff":
        fa, fb = a.fractions(), b.fractions()
        return cls(
            total_ratio=_ratio(int(a.t_total.max()), int(b.t_total.max())),
            main_share_a=float(fa[:, 0].mean()),
            main_share_b=float(fb[:, 0].mean()),
            comm_share_a=float(fa[:, 1].mean()),
            comm_share_b=float(fb[:, 1].mean()),
            proc_share_a=float(fa[:, 2].mean()),
            proc_share_b=float(fb[:, 2].mean()),
        )


@dataclass(frozen=True)
class PhysicalDiff:
    """Physical-trace comparison of run A against run B."""

    ops_a: dict[str, int]
    ops_b: dict[str, int]
    bytes_ratio: float

    @classmethod
    def of(cls, a: PhysicalTrace | Section,
           b: PhysicalTrace | Section) -> "PhysicalDiff":
        """Diff two physical traces, each a trace object or an archive
        section: per-kind operation counts and total wire bytes (footer
        sums when available) are two queries per side."""
        a, b = as_section(a), as_section(b)

        def ops(section: Section) -> dict[str, int]:
            return {str(kind): n for kind, n in
                    query_trace(section, "ops group by kind")}

        return cls(
            ops_a=ops(a),
            ops_b=ops(b),
            bytes_ratio=_ratio(query_trace(a, "bytes"),
                               query_trace(b, "bytes")),
        )


def _logical_matrix(trace: LogicalTrace | Section) -> np.ndarray:
    """Per-PE send-count matrix straight from logical columns.

    Streamed partial aggregates (duplicate src/dst keys across chunks)
    merge by summing in the scatter-add, exactly as trace loading would.
    """
    section = as_section(trace)
    n_pes = MachineSpec.from_attrs(section.attrs).n_pes
    return sum((scatter_matrix(src, dst, count, (n_pes, n_pes))
                for src, dst, count
                in Frame(section).groups("src", "dst", "count")),
               np.zeros((n_pes, n_pes), dtype=np.int64))


def compare_report(
    label_a: str,
    label_b: str,
    logical: LogicalDiff | None = None,
    overall: OverallDiff | None = None,
    physical: PhysicalDiff | None = None,
) -> str:
    """Render a text comparison of run A vs run B."""
    lines = [f"== comparing {label_a!r} (A) vs {label_b!r} (B) =="]
    if logical is not None:
        d = logical
        lines.append(
            f"logical: sends A={d.total_sends_a:,} B={d.total_sends_b:,}; "
            f"hottest-sender ratio {d.max_sends_ratio:.2f}x, "
            f"hottest-receiver ratio {d.max_recvs_ratio:.2f}x"
        )
        lines.append(
            f"logical: send imbalance A={d.send_imbalance_a:.2f} "
            f"B={d.send_imbalance_b:.2f}"
        )
        if d.moved_messages >= 0:
            lines.append(
                f"logical: |A−B| matrix mass = {d.moved_messages:,} messages"
            )
    if overall is not None:
        d = overall
        verdict = "A slower" if d.total_ratio > 1 else "A faster"
        lines.append(
            f"overall: total-time ratio A/B = {d.total_ratio:.2f} ({verdict})"
        )
        lines.append(
            f"overall: shares A MAIN/COMM/PROC = {d.main_share_a:.0%}/"
            f"{d.comm_share_a:.0%}/{d.proc_share_a:.0%}; "
            f"B = {d.main_share_b:.0%}/{d.comm_share_b:.0%}/{d.proc_share_b:.0%}"
        )
    if physical is not None:
        d = physical
        kinds = sorted(set(d.ops_a) | set(d.ops_b))
        parts = [
            f"{k}: {d.ops_a.get(k, 0):,} vs {d.ops_b.get(k, 0):,}"
            for k in kinds
        ]
        lines.append("physical ops (A vs B): " + "; ".join(parts))
        lines.append(f"physical wire bytes ratio A/B = {d.bytes_ratio:.2f}")
    if logical is None and overall is None and physical is None:
        lines.append("(no comparable traces found)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# whole-run comparison over directories or archives
# ----------------------------------------------------------------------

class _TraceDir:
    """Kind → trace of a paper-format trace directory.  A kind's files
    are parsed on first use and at most once, with the parser's own
    errors; ``kind in traces`` is False when the directory has no such
    files."""

    def __init__(self, path: Path, n_pes: int) -> None:
        self.path, self.n_pes = path, n_pes
        self._parsed: dict = {}

    def __getitem__(self, kind: str):
        if kind not in self._parsed:
            self._parsed[kind] = self._parse(kind)
        return self._parsed[kind]

    def __contains__(self, kind: str) -> bool:
        try:
            self[kind]
        except FileNotFoundError:
            return False
        return True

    def _parse(self, kind: str):
        if kind == "logical":
            return parse_logical_dir(self.path, self.n_pes)
        if kind == "papi":
            return parse_papi_dir(self.path, self.n_pes)
        if kind == "overall":
            return parse_overall_file(self.path)
        try:  # physical.txt carries no node layout: the logical trace's
            spec = self["logical"].spec
        except (FileNotFoundError, ValueError):
            spec = None
        return parse_physical_file(self.path, self.n_pes, spec=spec)


@contextmanager
def open_traces(path: str | Path, n_pes: int | None = None):
    """The traces stored at ``path``, indexable by kind.

    ``path`` is either a ``.aptrc`` archive (self-describing, ``n_pes``
    ignored), which yields its logical/physical sections as they are —
    only the small per-PE overall section is materialized — and stays
    open for the ``with`` body; or a paper-format trace directory
    (logical, physical, papi, overall), for which ``n_pes`` is required
    to parse the per-PE CSV files.
    """
    path = Path(path)
    if is_archive(path):
        with Archive(path) as archive:
            side = {kind: archive.section(kind)
                    for kind in ("logical", "physical")
                    if archive.has_section(kind)}
            if archive.has_section("overall"):
                side["overall"] = load_overall(archive)
            yield side
        return
    if not path.is_dir():
        raise FileNotFoundError(
            f"{path} is neither a trace directory nor a .aptrc archive"
        )
    if n_pes is None:
        raise ValueError(
            f"--num-pes is required to read the trace directory {path}"
        )
    yield _TraceDir(path, n_pes)


def _diff_runs(
    path_a: str | Path,
    path_b: str | Path,
    n_pes: int | None = None,
    label_a: str | None = None,
    label_b: str | None = None,
) -> str:
    """Compare two stored runs and render the side-by-side report.

    Each path may be a trace directory or a ``.aptrc`` archive; only the
    trace kinds present in *both* runs are compared.  The supported
    entry points are :func:`repro.api.diff` and
    :meth:`repro.api.Run.diff`.
    """
    with open_traces(path_a, n_pes) as a, open_traces(path_b, n_pes) as b:
        return compare_report(
            label_a if label_a is not None else str(path_a),
            label_b if label_b is not None else str(path_b), **{
                kind: cls.of(a[kind], b[kind])
                for kind, cls in (("logical", LogicalDiff),
                                  ("overall", OverallDiff),
                                  ("physical", PhysicalDiff))
                if kind in a and kind in b
            })
