"""Execution timeline and utilization charts (Legion-Prof-style views).

Rendered from a :class:`~repro.core.timeline.TimelineTrace`:

* :func:`timeline_svg` — one lane per PE, MAIN/PROC spans as colored
  blocks over the COMM background, network events as ticks.
* :func:`utilization_svg` — per-PE occupancy (MAIN+PROC fraction) over
  time buckets, as a PE × time heat strip.
"""

from __future__ import annotations

import numpy as np

from repro.core.timeline import FINISH, REGIONS, TimelineTrace
from repro.core.viz.lodviews import (
    _LANE_GAP,
    _LANE_H,
    _MARGIN_LEFT,
    _MARGIN_TOP,
    _WIDTH,
    _axis,
    _legend,
)
from repro.core.viz.palette import REGION_COLORS, normalize, sequential
from repro.core.viz.svg import Canvas


def timeline_svg(timeline: TimelineTrace, title: str = "Execution timeline",
                 max_spans: int = 20_000) -> str:
    """Render per-PE region lanes.  Spans beyond ``max_spans`` are skipped
    uniformly to bound SVG size."""
    horizon = max(timeline.end_time(), 1)
    n = timeline.n_pes
    height = _MARGIN_TOP + n * (_LANE_H + _LANE_GAP) + 60
    cv = Canvas(_WIDTH, height)
    cv.text(_WIDTH / 2, 26, title, size=15, anchor="middle", bold=True)
    plot_w = _WIDTH - _MARGIN_LEFT - 30

    def x_of(t: int) -> float:
        return _MARGIN_LEFT + plot_w * t / horizon

    spans = timeline.span_columns()
    bounds = timeline.span_bounds().tolist()
    region, start, end = (spans[c].tolist() for c in ("region", "start", "end"))
    stride = max(1, timeline.span_count() // max_spans)
    for pe in range(n):
        y = _MARGIN_TOP + pe * (_LANE_H + _LANE_GAP)
        cv.rect(_MARGIN_LEFT, y, plot_w, _LANE_H, fill=REGION_COLORS["COMM"],
                opacity=0.35)
        cv.text(_MARGIN_LEFT - 6, y + _LANE_H - 5, f"PE{pe}", size=9, anchor="end")
        # every stride-th span of the lane; FINISH spans count, not drawn
        lane = [i for i in range(bounds[pe], bounds[pe + 1], stride)
                if region[i] != FINISH]
        if lane:
            x0 = [x_of(start[i]) for i in lane]
            cv.rects(x0, y, [max(x_of(end[i]) - x, 0.6) for i, x in zip(lane, x0)],
                     _LANE_H, [REGION_COLORS[REGIONS[region[i]]] for i in lane],
                     [f"PE{pe} {REGIONS[region[i]]}: [{start[i]}, {end[i]})"
                      for i in lane])
    # network event ticks under each source lane
    net = timeline.net_columns()
    for time, src in zip(net["time"].tolist(), net["src"].tolist()):
        y = _MARGIN_TOP + src * (_LANE_H + _LANE_GAP)
        cv.line(x_of(time), y + _LANE_H, x_of(time), y + _LANE_H + 3,
                stroke="#303030")
    _axis(cv, _MARGIN_TOP + n * (_LANE_H + _LANE_GAP) + 10, plot_w, 0, horizon)
    _legend(cv, ("MAIN", "COMM", "PROC"), faded="COMM")
    return cv.to_string()


def utilization_svg(timeline: TimelineTrace, buckets: int = 120,
                    title: str = "PE utilization over time") -> str:
    """Render a PE × time occupancy strip (MAIN+PROC fraction per bucket)."""
    if buckets < 1:
        raise ValueError("buckets must be positive")
    horizon = max(timeline.end_time(), 1)
    bucket_cycles = max(1, -(-horizon // buckets))
    n = timeline.n_pes
    rows = np.zeros((n, buckets))
    u = timeline.utilization(bucket_cycles)[:, :buckets]
    rows[:, :u.shape[1]] = u
    cell_w = max(4, (900 - _MARGIN_LEFT - 40) // buckets)
    height = _MARGIN_TOP + n * (_LANE_H + 2) + 50
    width = _MARGIN_LEFT + buckets * cell_w + 40
    cv = Canvas(width, height)
    cv.text(width / 2, 26, title, size=15, anchor="middle", bold=True)
    fills = sequential(normalize(rows))
    xs = _MARGIN_LEFT + np.arange(buckets) * cell_w
    for pe, busy in enumerate(rows.tolist()):
        y = _MARGIN_TOP + pe * (_LANE_H + 2)
        cv.text(_MARGIN_LEFT - 6, y + _LANE_H - 5, f"PE{pe}", size=9, anchor="end")
        cv.rects(xs, y, cell_w, _LANE_H, fills[pe],
                 [f"PE{pe} bucket {b}: {u:.0%} busy" for b, u in enumerate(busy)])
    cv.text(_MARGIN_LEFT, height - 14,
            f"bucket = {bucket_cycles:,} cycles; bright = busy (MAIN+PROC)",
            size=9, fill="#606060")
    return cv.to_string()
