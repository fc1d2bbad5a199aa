"""Analysis helpers over collected traces.

These are the computations behind ActorProf's visualizations and the
paper's observations: heatmap matrices with send/recv totals in the last
row/column, quartile statistics for the violin plots, load-imbalance
ratios, and cyclic-vs-range comparison summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.physical import PhysicalTrace


def aggregate_to_nodes(matrix: np.ndarray, spec) -> np.ndarray:
    """Collapse a PE × PE matrix to node × node (paper §III-D:
    "hotspots of 'node' from the network sends").

    Cell (a, b) sums all traffic from PEs on node ``a`` to PEs on node
    ``b``; the diagonal is intra-node traffic.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (spec.n_pes, spec.n_pes):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match spec with "
            f"{spec.n_pes} PEs"
        )
    ppn = spec.pes_per_node
    return (
        matrix.reshape(spec.nodes, ppn, spec.nodes, ppn)
        .sum(axis=(1, 3))
        .astype(matrix.dtype)
    )


def heat_with_totals(matrix: np.ndarray) -> np.ndarray:
    """Append total-recv row and total-send column to a comm matrix.

    The paper's heatmaps carry "total outgoing send/recv for every PE,
    represented in the last row and the last column".  The corner cell is
    the grand total.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"communication matrix must be square, got {matrix.shape}")
    n = matrix.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=matrix.dtype)
    out[:n, :n] = matrix
    out[n, :n] = matrix.sum(axis=0)  # recvs per destination (last row)
    out[:n, n] = matrix.sum(axis=1)  # sends per source (last column)
    out[n, n] = matrix.sum()
    return out


@dataclass(frozen=True)
class QuartileStats:
    """Five-number summary + mean, as shown by the violin plots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @classmethod
    def of(cls, values: np.ndarray) -> "QuartileStats":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("cannot summarize an empty sample")
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        return cls(
            minimum=float(values.min()),
            q1=float(q1),
            median=float(med),
            q3=float(q3),
            maximum=float(values.max()),
            mean=float(values.mean()),
        )


def send_recv_stats(trace: LogicalTrace | PhysicalTrace) -> dict[str, QuartileStats]:
    """Quartile stats of per-PE send and recv totals (violin plot data)."""
    return {
        "sends": QuartileStats.of(trace.sends_per_pe()),
        "recvs": QuartileStats.of(trace.recvs_per_pe()),
    }


def imbalance_ratio(values: np.ndarray) -> float:
    """max/mean load-imbalance ratio (1.0 = perfectly balanced)."""
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    if mean == 0:
        return 1.0
    return float(values.max() / mean)


def is_lower_triangular_comm(matrix: np.ndarray, tolerance: float = 0.0) -> bool:
    """Check the paper's "(L) observation": communication only flows to
    PEs of equal or lower index (1D Range distribution).

    ``tolerance`` allows a fraction of total messages above the diagonal
    (default: strict).
    """
    matrix = np.asarray(matrix)
    total = matrix.sum()
    if total == 0:
        return True
    upper = np.triu(matrix, k=1).sum()
    return upper <= tolerance * total


@dataclass(frozen=True)
class OverallSummary:
    """Aggregate view of the T_MAIN/T_COMM/T_PROC breakdown."""

    mean_main_frac: float
    mean_comm_frac: float
    mean_proc_frac: float
    max_total_cycles: int
    mean_total_cycles: float

    @classmethod
    def of(cls, profile: OverallProfile) -> "OverallSummary":
        fr = profile.fractions()
        return cls(
            mean_main_frac=float(fr[:, 0].mean()),
            mean_comm_frac=float(fr[:, 1].mean()),
            mean_proc_frac=float(fr[:, 2].mean()),
            max_total_cycles=int(profile.t_total.max()),
            mean_total_cycles=float(profile.t_total.mean()),
        )


@dataclass(frozen=True)
class DistributionComparison:
    """Cyclic-vs-range style comparison of two runs' traces.

    ``*_ratio`` fields are (baseline / contender): values above 1 mean the
    baseline (e.g. 1D Cyclic) is worse, matching the paper's phrasing
    "1D Cyclic performs a maximum of ~6x sends and ~2x recvs".
    """

    max_sends_ratio: float
    max_recvs_ratio: float
    imbalance_sends_ratio: float
    imbalance_recvs_ratio: float

    @classmethod
    def of(
        cls,
        baseline: LogicalTrace | PhysicalTrace,
        contender: LogicalTrace | PhysicalTrace,
    ) -> "DistributionComparison":
        def safe_ratio(a: float, b: float) -> float:
            return float(a / b) if b else float("inf")

        bs, cs = baseline.sends_per_pe(), contender.sends_per_pe()
        br, cr = baseline.recvs_per_pe(), contender.recvs_per_pe()
        return cls(
            max_sends_ratio=safe_ratio(bs.max(), cs.max()),
            max_recvs_ratio=safe_ratio(br.max(), cr.max()),
            imbalance_sends_ratio=safe_ratio(imbalance_ratio(bs), imbalance_ratio(cs)),
            imbalance_recvs_ratio=safe_ratio(imbalance_ratio(br), imbalance_ratio(cr)),
        )
