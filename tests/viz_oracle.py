"""Reference oracles for the grid views: one Python call per cell.

These are the renderers :mod:`repro.core.viz` used before its grid
views were built from arrays — ``heatmap_svg``, ``lod_gantt_svg`` and
``lod_timeline_svg`` loop over cells and call a scalar ``rect`` with a
scalar ``sequential`` color, on a canvas whose ``rect``/``to_string`` are the scalar originals
too.  ``test_viz_oracle.py``
pins the array renderers to them byte for byte at ≤ 256 PEs (above that
the production heatmap bins, which these never did).  The only addition
is the heatmap's ``entity`` noun, threaded into the tooltips by the same
rule (``PE3``, ``node 3``).
"""

import html

import numpy as np

from repro.core.analysis import heat_with_totals
from repro.core.viz.lodviews import _axis, _legend
from repro.core.viz.palette import REGION_COLORS, normalize
from repro.core.viz.svg import Canvas, _fmt


class OracleCanvas(Canvas):
    """``Canvas`` with the scalar ``rect`` template and ``to_string``."""

    def rect(self, x, y, w, h, fill="#000000", stroke="none",
             stroke_width=1.0, opacity=1.0, title=None) -> None:
        attrs = (
            f'x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
        )
        if opacity != 1.0:
            attrs += f' opacity="{_fmt(opacity)}"'
        if title:
            self._body.append(
                f"<rect {attrs}><title>{html.escape(title)}</title></rect>"
            )
        else:
            self._body.append(f"<rect {attrs}/>")

    def to_string(self) -> str:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" viewBox="0 0 {_fmt(self.width)} '
            f'{_fmt(self.height)}">'
        )
        return header + "\n" + "\n".join(self._body) + "\n</svg>\n"


_SEQ_ANCHORS = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)


def lerp(a, b, t):
    return a + (b - a) * t


def sequential(t) -> str:
    """Scalar sequential colormap: clamp, lerp, round half to even."""
    t = min(1.0, max(0.0, float(t)))
    pos = t * (len(_SEQ_ANCHORS) - 1)
    i = min(int(pos), len(_SEQ_ANCHORS) - 2)
    frac = pos - i
    r = lerp(_SEQ_ANCHORS[i][0], _SEQ_ANCHORS[i + 1][0], frac)
    g = lerp(_SEQ_ANCHORS[i][1], _SEQ_ANCHORS[i + 1][1], frac)
    b = lerp(_SEQ_ANCHORS[i][2], _SEQ_ANCHORS[i + 1][2], frac)
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


_CELL = 22
_GAP = 2
_MARGIN_LEFT = 90
_MARGIN_TOP = 70
_MARGIN_RIGHT = 120
_MARGIN_BOTTOM = 40


def heatmap_svg(matrix, title="Communication heatmap", log_scale=True,
                show_totals=True, xlabel="destination PE",
                ylabel="source PE", entity="PE") -> str:
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"square matrix required, got shape {matrix.shape}")
    n = matrix.shape[0]
    noun = entity if entity.isupper() else f"{entity} "
    full = heat_with_totals(matrix) if show_totals else matrix
    cells = n + (1 if show_totals else 0)
    grid_w = cells * (_CELL + _GAP)
    width = _MARGIN_LEFT + grid_w + _MARGIN_RIGHT
    height = _MARGIN_TOP + grid_w + _MARGIN_BOTTOM
    cv = OracleCanvas(width, height)
    cv.text(width / 2, 28, title, size=15, anchor="middle", bold=True)
    cv.text(_MARGIN_LEFT + grid_w / 2, _MARGIN_TOP - 28, xlabel, size=11, anchor="middle")
    cv.text(18, _MARGIN_TOP + grid_w / 2, ylabel, size=11, anchor="middle", rotate=-90)

    body_norm = normalize(matrix, log=log_scale)
    totals_col = full[:n, n] if show_totals else None
    totals_row = full[n, :n] if show_totals else None
    col_norm = normalize(totals_col, log=log_scale) if show_totals else None
    row_norm = normalize(totals_row, log=log_scale) if show_totals else None

    def cell_xy(row, col):
        return (
            _MARGIN_LEFT + col * (_CELL + _GAP),
            _MARGIN_TOP + row * (_CELL + _GAP),
        )

    for row in range(n):
        for col in range(n):
            x, y = cell_xy(row, col)
            v = int(matrix[row, col])
            cv.rect(
                x, y, _CELL, _CELL,
                fill=sequential(body_norm[row, col]) if v else "#f2f2f2",
                title=f"{noun}{row} → {noun}{col}: {v} sends",
            )
    if show_totals:
        for row in range(n):
            x, y = cell_xy(row, n)
            cv.rect(
                x + 4, y, _CELL, _CELL,
                fill=sequential(col_norm[row]),
                title=f"{noun}{row} total sends: {int(totals_col[row])}",
            )
        for col in range(n):
            x, y = cell_xy(n, col)
            cv.rect(
                x, y + 4, _CELL, _CELL,
                fill=sequential(row_norm[col]),
                title=f"{noun}{col} total recvs: {int(totals_row[col])}",
            )
        xs, ys = cell_xy(n, n)
        cv.text(xs + 4, ys + _CELL - 4, "Σ", size=12)

    step = 1 if n <= 20 else max(1, n // 16)
    for i in range(0, n, step):
        x, y = cell_xy(0, i)
        cv.text(x + _CELL / 2, _MARGIN_TOP - 8, str(i), size=9, anchor="middle")
        x, y = cell_xy(i, 0)
        cv.text(_MARGIN_LEFT - 8, y + _CELL / 2 + 3, str(i), size=9, anchor="end")
    if show_totals:
        x, _ = cell_xy(0, n)
        cv.text(x + 4 + _CELL / 2, _MARGIN_TOP - 8, "send", size=9, anchor="middle")
        _, y = cell_xy(n, 0)
        cv.text(_MARGIN_LEFT - 8, y + 4 + _CELL / 2 + 3, "recv", size=9, anchor="end")

    lx = _MARGIN_LEFT + grid_w + 24
    for i in range(40):
        cv.rect(lx, _MARGIN_TOP + (39 - i) * 3, 14, 3, fill=sequential(i / 39))
    vmax = int(matrix.max())
    cv.text(lx + 20, _MARGIN_TOP + 8, f"{vmax}", size=9)
    cv.text(lx + 20, _MARGIN_TOP + 122, "0", size=9)
    scale_note = "log scale" if log_scale else "linear"
    cv.text(lx, _MARGIN_TOP + 140, scale_note, size=8)
    return cv.to_string()


_LANE_H = 18
_LANE_GAP = 4
_LOD_MARGIN_LEFT = 60
_LOD_MARGIN_TOP = 50
_WIDTH = 900


def lod_gantt_svg(series, title="LOD gantt") -> str:
    vp = series.viewport
    n_pes, nb = series.occ.shape[0], vp.buckets
    height = _LOD_MARGIN_TOP + n_pes * (_LANE_H + _LANE_GAP) + 60
    cv = OracleCanvas(_WIDTH, height)
    cv.text(_WIDTH / 2, 26,
            f"{title} [level {vp.level}, {vp.width:,} cycles/bucket]",
            size=15, anchor="middle", bold=True)
    _legend(cv)
    plot_w = _WIDTH - _LOD_MARGIN_LEFT - 30
    cell_w = plot_w / nb
    for pe in range(n_pes):
        y = _LOD_MARGIN_TOP + pe * (_LANE_H + _LANE_GAP)
        cv.rect(_LOD_MARGIN_LEFT, y, plot_w, _LANE_H, fill="#f0f0f0")
        cv.text(_LOD_MARGIN_LEFT - 6, y + _LANE_H - 5, f"PE{pe}", size=9,
                anchor="end")
        for b in range(nb):
            main, proc, comm = (int(v) for v in series.occ[pe, b])
            if not (main or proc or comm):
                continue
            x = _LOD_MARGIN_LEFT + b * cell_w
            tip = (f"PE{pe} bucket {vp.b0 + b}: "
                   f"MAIN {main:,} / PROC {proc:,} / COMM {comm:,}")
            for value, region in ((main, "MAIN"), (proc, "PROC"),
                                  (comm, "COMM")):
                if value <= 0:
                    continue
                w = cell_w * min(value / vp.width, 1.0)
                cv.rect(x, y, max(w, 0.4), _LANE_H,
                        fill=REGION_COLORS[region], title=tip)
                x += w
    _axis(cv, _LOD_MARGIN_TOP + n_pes * (_LANE_H + _LANE_GAP) + 10,
          plot_w, vp.t0, vp.t1)
    return cv.to_string()


def lod_timeline_svg(series, title="LOD timeline") -> str:
    vp = series.viewport
    n_pes, nb = series.occ.shape[0], vp.buckets
    plot_h = 160
    height = _LOD_MARGIN_TOP + plot_h + 60
    cv = OracleCanvas(_WIDTH, height)
    cv.text(_WIDTH / 2, 26,
            f"{title} [level {vp.level}, {vp.width:,} cycles/bucket]",
            size=15, anchor="middle", bold=True)
    _legend(cv)
    plot_w = _WIDTH - _LOD_MARGIN_LEFT - 30
    cell_w = plot_w / nb
    base_y = _LOD_MARGIN_TOP + plot_h
    capacity = max(n_pes * vp.width, 1)
    totals = series.occ.sum(axis=0)
    cv.line(_LOD_MARGIN_LEFT, _LOD_MARGIN_TOP, _LOD_MARGIN_LEFT, base_y,
            stroke="#404040")
    for frac in (0.5, 1.0):
        y = base_y - plot_h * frac
        cv.line(_LOD_MARGIN_LEFT - 4, y, _LOD_MARGIN_LEFT, y, stroke="#404040")
        cv.text(_LOD_MARGIN_LEFT - 8, y + 3, f"{frac:.0%}", size=8, anchor="end")
    for b in range(nb):
        main, proc, comm = (int(v) for v in totals[b])
        if not (main or proc or comm):
            continue
        x = _LOD_MARGIN_LEFT + b * cell_w
        y = base_y
        tip = (f"bucket {vp.b0 + b}: MAIN {main:,} / PROC {proc:,} / "
               f"COMM {comm:,} of {capacity:,} PE-cycles")
        for value, region in ((main, "MAIN"), (proc, "PROC"), (comm, "COMM")):
            if value <= 0:
                continue
            h = plot_h * min(value / capacity, 1.0)
            y -= h
            cv.rect(x, y, max(cell_w - 0.5, 0.4), h,
                    fill=REGION_COLORS[region], title=tip)
    _axis(cv, base_y + 10, plot_w, vp.t0, vp.t1)
    return cv.to_string()
