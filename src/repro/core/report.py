"""Plain-text reports (terminal-friendly companions to the SVG charts)."""

from __future__ import annotations

import numpy as np

from repro.core.analysis import (
    OverallSummary,
    QuartileStats,
    imbalance_ratio,
    send_recv_stats,
)
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.viz.heatmap import ascii_heatmap


def ascii_bar(value: float, vmax: float, width: int = 40) -> str:
    """A proportional text bar of at most ``width`` characters."""
    if vmax <= 0:
        return ""
    n = int(round(width * value / vmax))
    return "█" * n


def _stats_line(name: str, st: QuartileStats) -> str:
    return (
        f"  {name:<6} min={st.minimum:,.0f} q1={st.q1:,.0f} "
        f"median={st.median:,.0f} q3={st.q3:,.0f} max={st.maximum:,.0f} "
        f"mean={st.mean:,.1f}"
    )


def mosaic_report(trace: LogicalTrace, title: str = "Logical trace") -> str:
    """CrayPat-mosaic-style text report of a logical trace."""
    m = trace.matrix()
    stats = send_recv_stats(trace)
    lines = [
        f"== {title} ==",
        f"total messages: {trace.total_sends():,}",
        f"send imbalance (max/mean): {imbalance_ratio(trace.sends_per_pe()):.2f}",
        f"recv imbalance (max/mean): {imbalance_ratio(trace.recvs_per_pe()):.2f}",
        _stats_line("sends", stats["sends"]),
        _stats_line("recvs", stats["recvs"]),
        "",
        "communication matrix (source rows × destination columns):",
        ascii_heatmap(m),
    ]
    return "\n".join(lines)


def physical_report(trace: PhysicalTrace, title: str = "Physical trace") -> str:
    """Per-send-type breakdown of the Conveyors-level trace."""
    lines = [f"== {title} ==", f"total operations: {trace.total_operations():,}"]
    by_type = trace.counts_by_type()
    for kind in ("local_send", "nonblock_send", "nonblock_progress"):
        n = by_type.get(kind, 0)
        nbytes = int(trace.bytes_matrix(kind).sum())
        lines.append(f"  {kind:<18} {n:>8,} ops  {nbytes:>12,} bytes")
    lines.append("")
    lines.append("buffer matrix (all send types):")
    lines.append(ascii_heatmap(trace.matrix()))
    return "\n".join(lines)


def overall_report(profile: OverallProfile, title: str = "Overall profiling") -> str:
    """Per-PE T_MAIN/T_COMM/T_PROC table with proportional bars."""
    summary = OverallSummary.of(profile)
    lines = [
        f"== {title} ==",
        f"mean fractions: MAIN={summary.mean_main_frac:.1%} "
        f"COMM={summary.mean_comm_frac:.1%} PROC={summary.mean_proc_frac:.1%}",
        f"max T_TOTAL: {summary.max_total_cycles:,} cycles",
        "",
        f"{'PE':>4} {'T_MAIN':>12} {'T_COMM':>12} {'T_PROC':>12} {'T_TOTAL':>12}  breakdown",
    ]
    vmax = float(profile.t_total.max()) or 1.0
    comm = profile.t_comm()
    for pe in range(profile.n_pes):
        m, c, p = profile.absolute(pe)
        total = int(profile.t_total[pe])
        width = int(round(40 * total / vmax)) or 1
        mm = int(round(width * m / total)) if total else 0
        pp = int(round(width * p / total)) if total else 0
        cc = max(0, width - mm - pp)
        bar = "M" * mm + "c" * cc + "P" * pp
        lines.append(
            f"{pe:>4} {m:>12,} {c:>12,} {p:>12,} {total:>12,}  {bar}"
        )
    _ = comm  # (kept for symmetry; c above comes from profile.absolute)
    return "\n".join(lines)


def whatif_report(report: dict, title: str = "What-if analysis") -> str:
    """Text rendering of a :func:`repro.api.whatif` report dict."""
    analysis = report["analysis"]
    baseline = report["baseline"]
    cp = analysis["critical_path"]
    lines = [
        f"== {title}: {report['workload_name']} ==",
        f"T_TOTAL {baseline['t_total']:,}  work {analysis['work']:,}  "
        f"span {analysis['span']:,}  "
        f"avg parallelism {analysis['avg_parallelism']:.2f}"
        + ("" if analysis["prediction_exact"] else "  (span approximate)"),
        "",
        "critical path by category:",
    ]
    vmax = max((r["cycles"] for r in cp["by_category"]), default=1) or 1
    for row in cp["by_category"]:
        lines.append(
            f"  {row['target']:<12} {row['cycles']:>12,} "
            f"({row['share_pct']:5.1f}%)  {ascii_bar(row['cycles'], vmax, 24)}"
        )
    if cp["by_mailbox"]:
        lines.append("critical-path PROC cycles by mailbox:")
        for row in cp["by_mailbox"]:
            lines.append(
                f"  mailbox:{row['mailbox']:<4} {row['cycles']:>12,}"
            )
    if cp["by_pe"]:
        lines.append("critical-path busy cycles by PE:")
        for row in cp["by_pe"]:
            lines.append(f"  pe:{row['pe']:<9} {row['cycles']:>12,}")
    if cp["top_edges"]:
        lines.append("hottest critical-path transfer edges:")
        for row in cp["top_edges"]:
            lines.append(
                f"  PE{row['src_pe']} -> PE{row['dst_pe']}: "
                f"{row['cycles']:,} cycles over {row['transfers']} transfers"
            )
    lines += [
        "",
        "predicted T_TOTAL if one target's cost were scaled (best first):",
    ]
    for row in report["predictions"]:
        target = f"{row['target']}={row['factor']:g}x"
        lines.append(
            f"  {target:<20} -> {row['predicted_t_total']:>12,} "
            f"({row['predicted_speedup']:.3f}x, "
            f"{row['predicted_delta_pct']:+.1f}%)"
        )
    if report["points"]:
        lines += ["", "replayed points:"]
        for row in report["points"]:
            scales = " ".join(
                f"{t}={f:g}x" for t, f in row["scales"].items()) or "1x"
            if "error" in row:
                lines.append(f"  {scales:<32} FAILED: {row['error']}")
                continue
            extra = ""
            if "prediction_error_pct" in row:
                extra = (f"  predicted {row['predicted_t_total']:,} "
                         f"(err {row['prediction_error_pct']:+.2f}%)")
            mark = "" if row["result_matches_baseline"] else "  RESULT DIVERGED"
            lines.append(
                f"  {scales:<32} T_TOTAL {row['totals']['t_total']:>12,} "
                f"({row['speedup']:.3f}x){extra}{mark}"
            )
    return "\n".join(lines)


def papi_report(trace: PAPITrace, event: str | None = None,
                title: str = "PAPI region profiling") -> str:
    """Per-PE counter totals as text bars (one chart per event)."""
    events = [event] if event else list(trace.events)
    lines = [f"== {title} =="]
    for ev in events:
        totals = trace.totals_per_pe(ev)
        vmax = float(totals.max()) or 1.0
        lines.append(f"\n{ev} (user regions MAIN+PROC):")
        for pe, v in enumerate(totals):
            lines.append(f"  PE{pe:<3} {int(v):>14,} {ascii_bar(v, vmax)}")
        lines.append(
            f"  imbalance (max/mean): {imbalance_ratio(totals):.2f}"
        )
    return "\n".join(lines)
