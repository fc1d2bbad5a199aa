"""Communication heatmaps (logical and physical traces).

Mirrors the paper's mosaic-style heatmaps: a source-PE × destination-PE
grid colored by number of sends, with the last column showing each PE's
total sends and the last row each PE's total recvs.  Cell tooltips carry
the exact counts.

Past :data:`MAX_CELLS` PEs a side, square blocks of PEs are drawn: colored
by their sum, with a tooltip naming the PE ranges, the sum and the
block's hottest pair — the SVG costs display cells, not PE pairs.
"""

from __future__ import annotations

import html

import numpy as np

from repro.core.viz.palette import normalize, sequential
from repro.core.viz.svg import Canvas, _fmts

_CELL = 22
_GAP = 2
_MARGIN_LEFT = 90
_MARGIN_TOP = 70
_MARGIN_RIGHT = 120
_MARGIN_BOTTOM = 40

#: Most grid cells per axis; larger matrices are drawn as block sums.
MAX_CELLS = 256

_LEGEND_FILLS = sequential(np.arange(40) / 39).tolist()


def _blocks(a: np.ndarray, factor: int) -> np.ndarray:
    """``a`` zero-padded to whole ``factor``-wide blocks, each axis split
    into (block, offset in block)."""
    padded = np.pad(a, [(0, -s % factor) for s in a.shape])
    return padded.reshape([d for s in padded.shape for d in (s // factor, factor)])


def block_sum(a: np.ndarray, factor: int) -> np.ndarray:
    """Sum ``a`` over ``factor``-wide blocks along every axis."""
    if factor == 1:
        return a
    return _blocks(a, factor).sum(axis=tuple(range(1, 2 * a.ndim, 2)))


def _cell_tips(matrix, grid, factor, names, noun) -> list[str]:
    """Row-major tooltips of the grid; a block's also names its hottest
    pair (the first in row-major order on ties)."""
    tips = [f"{row} → {col}: {v} sends"
            for row, values in zip(names, grid.tolist())
            for col, v in zip(names, values)]
    if factor == 1:
        return tips
    k = grid.shape[0]
    members = _blocks(matrix, factor).transpose(0, 2, 1, 3).reshape(k * k, -1)
    at, block = members.argmax(axis=1), np.arange(k * k)
    rows = (block // k * factor + at // factor).tolist()
    cols = (block % k * factor + at % factor).tolist()
    return [f"{tip}; max {noun}{r} → {noun}{c}: {v}" if v else tip for tip, r, c, v
            in zip(tips, rows, cols, members[block, at].tolist())]


def heatmap_svg(
    matrix: np.ndarray,
    title: str = "Communication heatmap",
    log_scale: bool = True,
    show_totals: bool = True,
    xlabel: str = "destination PE",
    ylabel: str = "source PE",
    entity: str = "PE",
) -> str:
    """Render a communication matrix as a mosaic heatmap SVG.

    ``show_totals`` appends the total-send column / total-recv row (they
    are color-normalized separately so they don't wash out the grid).
    ``entity`` names a row/column in tooltips: an abbreviation is
    written against the number (``PE3``), a word apart from it
    (``node 3`` for a node-level matrix).
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"square matrix required, got shape {matrix.shape}")
    n = matrix.shape[0]
    factor = max(1, -(-n // MAX_CELLS))
    grid = block_sum(matrix, factor)
    k = grid.shape[0]
    cells = k + (1 if show_totals else 0)
    grid_w = cells * (_CELL + _GAP)
    width = _MARGIN_LEFT + grid_w + _MARGIN_RIGHT
    height = _MARGIN_TOP + grid_w + _MARGIN_BOTTOM
    cv = Canvas(width, height)
    cv.text(width / 2, 28, title, size=15, anchor="middle", bold=True)
    cv.text(_MARGIN_LEFT + grid_w / 2, _MARGIN_TOP - 28, xlabel, size=11, anchor="middle")
    cv.text(18, _MARGIN_TOP + grid_w / 2, ylabel, size=11, anchor="middle", rotate=-90)

    pos = np.arange(cells) * (_CELL + _GAP)
    xs, ys = _MARGIN_LEFT + pos, _MARGIN_TOP + pos
    # tooltips are built from the k names, escaped once here
    noun = html.escape(entity if entity.isupper() else f"{entity} ")
    names = []
    for lo in range(0, n, factor):
        hi = min(lo + factor, n) - 1
        names.append(f"{noun}{lo}" if hi == lo else f"{noun}{lo}–{hi}")

    fills = sequential(normalize(grid, log=log_scale))
    fills[grid == 0] = "#f2f2f2"
    row_x, row_y = _fmts(xs[:k]), _fmts(ys[:k])  # k distinct coordinates
    cv.rects(row_x * k, [y for y in row_y for _ in range(k)], _CELL, _CELL,
             fills.ravel().tolist(),
             _cell_tips(matrix, grid, factor, names, noun), escaped=True)
    if show_totals:
        sends = block_sum(matrix.sum(axis=1), factor).tolist()
        recvs = block_sum(matrix.sum(axis=0), factor).tolist()
        send_fills, recv_fills = sequential(np.stack(
            [normalize(sends, log=log_scale), normalize(recvs, log=log_scale)]))
        cv.rects(xs[k] + 4, row_y, _CELL, _CELL, send_fills.tolist(),
                 [f"{name} total sends: {v}" for name, v in zip(names, sends)],
                 escaped=True)
        cv.rects(row_x, ys[k] + 4, _CELL, _CELL, recv_fills.tolist(),
                 [f"{name} total recvs: {v}" for name, v in zip(names, recvs)],
                 escaped=True)
        cv.text(xs[k] + 4, ys[k] + _CELL - 4, "Σ", size=12)

    # axis tick labels (decimated if crowded)
    step = 1 if k <= 20 else max(1, k // 16)
    for i in range(0, k, step):
        label = str(i * factor)
        cv.text(xs[i] + _CELL / 2, _MARGIN_TOP - 8, label, size=9, anchor="middle")
        cv.text(_MARGIN_LEFT - 8, ys[i] + _CELL / 2 + 3, label, size=9, anchor="end")
    if show_totals:
        cv.text(xs[k] + 4 + _CELL / 2, _MARGIN_TOP - 8, "send", size=9, anchor="middle")
        cv.text(_MARGIN_LEFT - 8, ys[k] + 4 + _CELL / 2 + 3, "recv", size=9, anchor="end")

    # color scale legend
    lx = _MARGIN_LEFT + grid_w + 24
    steps = np.arange(40)
    cv.rects(lx, _MARGIN_TOP + (39 - steps) * 3, 14, 3, _LEGEND_FILLS)
    cv.text(lx + 20, _MARGIN_TOP + 8, f"{int(grid.max())}", size=9)
    cv.text(lx + 20, _MARGIN_TOP + 122, "0", size=9)
    scale_note = "log scale" if log_scale else "linear"
    cv.text(lx, _MARGIN_TOP + 140, scale_note, size=8)
    if factor > 1:
        cv.text(lx, _MARGIN_TOP + 154, f"{factor}×{factor} {entity} blocks", size=8)
    return cv.to_string()


_ASCII_RAMP = " .:-=+*#%@"


def ascii_heatmap(matrix: np.ndarray, log_scale: bool = True, max_width: int = 64) -> str:
    """Terminal rendering of a communication matrix.

    Each cell is one character from a 10-step density ramp; matrices wider
    than ``max_width`` are decimated by summing blocks.
    """
    matrix = np.asarray(matrix, dtype=float)
    matrix = block_sum(matrix, max(1, -(-matrix.shape[0] // max_width)))
    n = matrix.shape[0]
    ramp = len(_ASCII_RAMP) - 1
    steps = np.minimum((normalize(matrix, log=log_scale) * ramp + 0.5).astype(int), ramp)
    lines = ["    " + "".join(str(j % 10) for j in range(n))]
    lines += [f"{i:>3} " + "".join(_ASCII_RAMP[s] for s in row)
              for i, row in enumerate(steps.tolist())]
    return "\n".join(lines)
