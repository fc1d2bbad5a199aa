"""Overall profiling: the T_MAIN / T_COMM / T_PROC breakdown.

Section III-B: per PE, ActorProf measures with ``rdtsc``

* ``T_MAIN`` — cycles generating messages and appending them to mailboxes
  (the finish body minus send internals),
* ``T_PROC`` — cycles inside user message handlers,
* ``T_COMM`` — **derived** as ``T_TOTAL − T_MAIN − T_PROC``: everything
  Conveyors/OpenSHMEM does, including waiting.

File format (``overall.txt``), two lines per PE::

    Absolute [PE0] TCOMM_PROFILING (t_main, t_comm, t_proc)
    Relative [PE0] TCOMM_PROFILING (m_frac, c_frac, p_frac)
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np


class OverallProfile:
    """Per-PE cycle breakdown accumulated across finish scopes."""

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self.t_main = np.zeros(n_pes, dtype=np.int64)
        self.t_proc = np.zeros(n_pes, dtype=np.int64)
        self.t_total = np.zeros(n_pes, dtype=np.int64)

    # ------------------------------------------------------------------

    def add_main(self, pe: int, cycles: int) -> None:
        self.t_main[pe] += cycles

    def add_proc(self, pe: int, cycles: int) -> None:
        self.t_proc[pe] += cycles

    def add_total(self, pe: int, cycles: int) -> None:
        self.t_total[pe] += cycles

    # ------------------------------------------------------------------

    def t_comm(self) -> np.ndarray:
        """Derived communication cycles: total − main − proc."""
        return self.t_total - self.t_main - self.t_proc

    def absolute(self, pe: int) -> tuple[int, int, int]:
        """(T_MAIN, T_COMM, T_PROC) for one PE (T_COMM of this PE only:
        per-PE loops over a profile stay linear)."""
        main, proc = int(self.t_main[pe]), int(self.t_proc[pe])
        return (main, int(self.t_total[pe]) - main - proc, proc)

    def relative(self, pe: int) -> tuple[float, float, float]:
        """(T_MAIN, T_COMM, T_PROC) / T_TOTAL for one PE."""
        total = int(self.t_total[pe])
        if total == 0:
            return (0.0, 0.0, 0.0)
        m, c, p = self.absolute(pe)
        return (m / total, c / total, p / total)

    def fractions(self) -> np.ndarray:
        """(n_pes, 3) matrix of relative (MAIN, COMM, PROC) shares."""
        return np.array([self.relative(pe) for pe in range(self.n_pes)])

    # ------------------------------------------------------------------
    # archive adapters (.aptrc columnar store)
    # ------------------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict]:
        """Columnar form for the ``.aptrc`` store: (columns, attrs).

        One row per PE; ``t_comm`` stays derived (total − main − proc),
        so the stored columns are exactly the measured quantities.
        """
        columns = {
            "t_main": self.t_main.copy(),
            "t_proc": self.t_proc.copy(),
            "t_total": self.t_total.copy(),
        }
        return columns, {"n_pes": self.n_pes}

    @classmethod
    def from_columns(cls, columns: dict, attrs: dict) -> "OverallProfile":
        """Rebuild a profile from archive columns (inverse of to_columns)."""
        n_pes = int(attrs["n_pes"])
        prof = cls(n_pes)
        for name in ("t_main", "t_proc", "t_total"):
            col = np.asarray(columns[name], dtype=np.int64)
            if len(col) != n_pes:
                raise ValueError(
                    f"archived overall column {name!r} has {len(col)} "
                    f"entries for n_pes={n_pes}"
                )
            setattr(prof, name, col.copy())
        return prof

    # ------------------------------------------------------------------

    def write(self, directory: str | Path) -> Path:
        """Write ``overall.txt``; returns its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "overall.txt"
        with path.open("w") as f:
            for pe in range(self.n_pes):
                m, c, p = self.absolute(pe)
                f.write(f"Absolute [PE{pe}] TCOMM_PROFILING ({m}, {c}, {p})\n")
                rm, rc, rp = self.relative(pe)
                f.write(
                    f"Relative [PE{pe}] TCOMM_PROFILING "
                    f"({rm:.6f}, {rc:.6f}, {rp:.6f})\n"
                )
        return path


_ABS_RE = re.compile(
    r"Absolute \[PE(\d+)\] TCOMM_PROFILING \((-?\d+), (-?\d+), (-?\d+)\)"
)


def parse_overall_file(path: str | Path) -> OverallProfile:
    """Parse an ``overall.txt`` back into an :class:`OverallProfile`.

    Only absolute lines are needed; relative lines are re-derivable.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "overall.txt"
    rows: dict[int, tuple[int, int, int]] = {}
    with path.open() as f:
        for line in f:
            m = _ABS_RE.match(line.strip())
            if m:
                pe, tm, tc, tp = (int(g) for g in m.groups())
                rows[pe] = (tm, tc, tp)
    if not rows:
        raise ValueError(f"no absolute TCOMM_PROFILING lines found in {path}")
    n_pes = max(rows) + 1
    prof = OverallProfile(n_pes)
    for pe, (tm, tc, tp) in rows.items():
        prof.t_main[pe] = tm
        prof.t_proc[pe] = tp
        prof.t_total[pe] = tm + tc + tp
    return prof
