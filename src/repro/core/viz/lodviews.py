"""LOD-backed viewport renders (the `/runs/{id}/viz/*` views).

These render from :mod:`repro.core.lod` aggregates only — never from
raw event columns — so an SVG for a billion-send run costs the same as
one for a thousand-send run: O(viewport resolution).

* :func:`lod_gantt_svg` — per-PE lanes, each bucket a stacked
  MAIN/PROC/COMM segment proportional to occupancy.
* :func:`lod_timeline_svg` — machine-wide stacked occupancy bars over
  time (utilization profile).
* :func:`lod_heatmap_svg` — the communication matrix over the
  viewport, reusing :func:`~repro.core.viz.heatmap.heatmap_svg`.
* :func:`viz_html` — standalone HTML wrapping the three views, with
  pan/zoom controls that refetch from a running ``actorprof serve``.
"""

from __future__ import annotations

import html
import json

import numpy as np

from repro.core.lod import EdgeWindow, PeSeries
from repro.core.viz.heatmap import heatmap_svg
from repro.core.viz.palette import REGION_COLORS
from repro.core.viz.svg import Canvas

#: Names what these renderers draw for a given archive and viewport.
#: Cached renders are keyed by it (``repro.serve.artifacts.viz_key``),
#: so change it whenever any view's SVG bytes change: renders stored by
#: an older renderer — such as the unbinned heatmaps of archives over
#: 256 PEs — then stop being served.
RENDERER = "blocks-256"

_LANE_H = 18
_LANE_GAP = 4
_MARGIN_LEFT = 60
_MARGIN_TOP = 50
_WIDTH = 900

_REGIONS = ("MAIN", "PROC", "COMM")
_FILLS = np.array([REGION_COLORS[r] for r in _REGIONS], dtype=object)


def _axis(cv: Canvas, axis_y: float, plot_w: float, t0: int, t1: int) -> None:
    cv.line(_MARGIN_LEFT, axis_y, _MARGIN_LEFT + plot_w, axis_y,
            stroke="#404040")
    for frac in (0, 0.25, 0.5, 0.75, 1.0):
        x = _MARGIN_LEFT + plot_w * frac
        cv.line(x, axis_y, x, axis_y + 4, stroke="#404040")
        cv.text(x, axis_y + 16, f"{int(t0 + (t1 - t0) * frac):,}",
                size=8, anchor="middle")
    cv.text(_MARGIN_LEFT + plot_w / 2, axis_y + 32, "cycles (rdtsc)",
            size=10, anchor="middle")


def _legend(cv: Canvas, regions=_REGIONS, faded: str = "") -> None:
    for i, region in enumerate(regions):
        lx = _MARGIN_LEFT + 90 * i
        cv.rect(lx, 32, 10, 10, fill=REGION_COLORS[region],
                opacity=0.35 if region == faded else 1.0)
        cv.text(lx + 14, 41, region, size=9)


def _segments(occ: np.ndarray, tip):
    """The positive entries of a ``(..., 3)`` MAIN/PROC/COMM array: their
    index arrays in C order (cell-major, region-minor) and a tooltip for
    each, ``tip(*cell_index, main, proc, comm)`` shared by a cell's
    segments."""
    positive = occ > 0
    cells = positive.any(axis=-1)
    index = np.nonzero(cells)
    tips = [tip(*key, *values) for key, values in zip(
        zip(*(i.tolist() for i in index)), occ[cells].tolist())]
    per_cell = positive.sum(axis=-1)[cells]
    return np.nonzero(positive), np.repeat(np.array(tips, dtype=object), per_cell)


def lod_gantt_svg(series: PeSeries, title: str = "LOD gantt") -> str:
    """Per-PE lanes; each bucket cell splits into MAIN/PROC/COMM
    segments sized by their share of the bucket width."""
    vp = series.viewport
    n_pes, nb = series.occ.shape[0], vp.buckets
    height = _MARGIN_TOP + n_pes * (_LANE_H + _LANE_GAP) + 60
    cv = Canvas(_WIDTH, height)
    cv.text(_WIDTH / 2, 26,
            f"{title} [level {vp.level}, {vp.width:,} cycles/bucket]",
            size=15, anchor="middle", bold=True)
    _legend(cv)
    plot_w = _WIDTH - _MARGIN_LEFT - 30
    cell_w = plot_w / nb
    occ = series.occ
    # segments sit side by side from the bucket's left edge, in region order
    w = np.where(occ > 0, cell_w * np.minimum(occ / vp.width, 1.0), 0.0)
    x0 = np.broadcast_to(_MARGIN_LEFT + np.arange(nb) * cell_w, w.shape[:2])
    x1 = x0 + w[..., 0]
    x = np.stack([x0, x1, x1 + w[..., 1]], axis=-1)
    (pe_of, b, r), tips = _segments(occ, lambda pe, b, main, proc, comm: (
        f"PE{pe} bucket {vp.b0 + b}: "
        f"MAIN {main:,} / PROC {proc:,} / COMM {comm:,}"))
    x, w = x[pe_of, b, r].tolist(), np.maximum(w[pe_of, b, r], 0.4).tolist()
    fills, tips = _FILLS[r].tolist(), tips.tolist()
    ends = np.searchsorted(pe_of, np.arange(n_pes), side="right").tolist()
    start = 0
    for pe, end in enumerate(ends):
        y = _MARGIN_TOP + pe * (_LANE_H + _LANE_GAP)
        cv.rect(_MARGIN_LEFT, y, plot_w, _LANE_H, fill="#f0f0f0")
        cv.text(_MARGIN_LEFT - 6, y + _LANE_H - 5, f"PE{pe}", size=9,
                anchor="end")
        if end > start:
            cv.rects(x[start:end], y, w[start:end], _LANE_H,
                     fills[start:end], tips[start:end])
        start = end
    _axis(cv, _MARGIN_TOP + n_pes * (_LANE_H + _LANE_GAP) + 10,
          plot_w, vp.t0, vp.t1)
    return cv.to_string()


def lod_timeline_svg(series: PeSeries, title: str = "LOD timeline") -> str:
    """Machine-wide occupancy profile: one stacked bar per bucket, the
    full bar height meaning every PE busy for the whole bucket."""
    vp = series.viewport
    n_pes, nb = series.occ.shape[0], vp.buckets
    plot_h = 160
    height = _MARGIN_TOP + plot_h + 60
    cv = Canvas(_WIDTH, height)
    cv.text(_WIDTH / 2, 26,
            f"{title} [level {vp.level}, {vp.width:,} cycles/bucket]",
            size=15, anchor="middle", bold=True)
    _legend(cv)
    plot_w = _WIDTH - _MARGIN_LEFT - 30
    cell_w = plot_w / nb
    base_y = _MARGIN_TOP + plot_h
    capacity = max(n_pes * vp.width, 1)
    totals = series.occ.sum(axis=0)  # (nb, 3)
    cv.line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, base_y, stroke="#404040")
    for frac in (0.5, 1.0):
        y = base_y - plot_h * frac
        cv.line(_MARGIN_LEFT - 4, y, _MARGIN_LEFT, y, stroke="#404040")
        cv.text(_MARGIN_LEFT - 8, y + 3, f"{frac:.0%}", size=8, anchor="end")
    # segments stack upwards from the baseline, in region order
    h = np.where(totals > 0, plot_h * np.minimum(totals / capacity, 1.0), 0.0)
    y0 = base_y - h[:, 0]
    y1 = y0 - h[:, 1]
    y = np.stack([y0, y1, y1 - h[:, 2]], axis=-1)
    (b, r), tips = _segments(totals, lambda b, main, proc, comm: (
        f"bucket {vp.b0 + b}: MAIN {main:,} / PROC {proc:,} / "
        f"COMM {comm:,} of {capacity:,} PE-cycles"))
    cv.rects(_MARGIN_LEFT + b * cell_w, y[b, r], max(cell_w - 0.5, 0.4),
             h[b, r], _FILLS[r], tips)
    _axis(cv, base_y + 10, plot_w, vp.t0, vp.t1)
    return cv.to_string()


def lod_heatmap_svg(window: EdgeWindow, title: str = "LOD heatmap",
                    use_bytes: bool = False) -> str:
    """Communication matrix over the viewport (messages or bytes)."""
    vp = window.viewport
    matrix = window.bytes if use_bytes else window.count
    unit = "bytes" if use_bytes else "messages"
    return heatmap_svg(
        matrix,
        title=f"{title} [{vp.t0:,}..{vp.t1:,}) {unit}",
        xlabel="destination PE", ylabel="source PE")


def viz_html(views: dict[str, str], *, run_label: str,
             horizon: int, server: str | None = None,
             run_id: str | None = None, res: dict[str, int] | None = None) -> str:
    """Standalone HTML page embedding the rendered views.

    With ``server``/``run_id`` set, pan/zoom buttons refetch each view
    from the live ``/runs/{id}/viz/{view}`` endpoints; without a server
    the page is a static snapshot.
    """
    def inline(svg: str) -> str:
        # strip the XML declaration: invalid inside an HTML body
        if svg.startswith("<?xml"):
            svg = svg.split("?>", 1)[1].lstrip()
        return svg

    sections = "\n".join(
        f'<section><h2>{html.escape(name)}</h2>'
        f'<div class="view" id="view-{html.escape(name)}">{inline(svg)}</div>'
        f'</section>'
        for name, svg in views.items())
    controls = script = ""
    if server and run_id:
        config = json.dumps({
            "server": server.rstrip("/"),
            "run": run_id,
            "horizon": int(horizon),
            "views": list(views),
            "res": res or {},
        })
        controls = ('<nav><button data-op="out">zoom out</button>'
                    '<button data-op="in">zoom in</button>'
                    '<button data-op="left">&larr; pan</button>'
                    '<button data-op="right">pan &rarr;</button>'
                    '<button data-op="reset">reset</button>'
                    '<span id="window"></span></nav>')
        script = """
<script>
const cfg = %s;
let t0 = 0, t1 = cfg.horizon;
async function refresh() {
  document.getElementById('window').textContent =
    ` [${t0.toLocaleString()} .. ${t1.toLocaleString()})`;
  for (const view of cfg.views) {
    const res = cfg.res[view] ? `&res=${cfg.res[view]}` : '';
    const url = `${cfg.server}/runs/${cfg.run}/viz/${view}?t0=${t0}&t1=${t1}${res}`;
    const reply = await fetch(url);
    if (reply.ok) {
      document.getElementById(`view-${view}`).innerHTML = await reply.text();
    }
  }
}
document.querySelectorAll('nav button').forEach(btn =>
  btn.addEventListener('click', () => {
    const span = t1 - t0, quarter = Math.max(Math.floor(span / 4), 1);
    switch (btn.dataset.op) {
      case 'in': t0 += quarter; t1 -= quarter; break;
      case 'out': t0 -= span; t1 += span; break;
      case 'left': t0 -= quarter; t1 -= quarter; break;
      case 'right': t0 += quarter; t1 += quarter; break;
      case 'reset': t0 = 0; t1 = cfg.horizon; break;
    }
    t0 = Math.max(t0, 0); t1 = Math.min(t1, cfg.horizon);
    if (t1 - t0 < 1) { t0 = 0; t1 = cfg.horizon; }
    refresh();
  }));
</script>""" % config
    return f"""<!doctype html>
<html><head><meta charset="utf-8">
<title>actorprof viz — {html.escape(run_label)}</title>
<style>
body {{ font-family: sans-serif; margin: 1.5em; }}
nav {{ margin-bottom: 1em; }} nav button {{ margin-right: .4em; }}
section {{ margin-bottom: 2em; }} h2 {{ font-size: 1.05em; color: #333; }}
.view svg {{ border: 1px solid #ddd; max-width: 100%; }}
</style></head>
<body>
<h1>actorprof viz — {html.escape(run_label)}</h1>
{controls}
{sections}
{script}
</body></html>
"""
