"""A minimal SVG document builder.

Only what the ActorProf charts need: rectangles, lines, text, polygons and
grouping, emitted as standalone SVG 1.1 with a white background.  All
coordinates are user units (pixels).  Grid views emit their cells through
:meth:`Canvas.rects`, which formats each distinct coordinate once.
"""

from __future__ import annotations

import html
from itertools import repeat
from pathlib import Path

import numpy as np


def _fmt(v: float) -> str:
    """Compact numeric formatting for attribute values."""
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _fmts(values) -> str | list[str]:
    """``_fmt`` of a scalar, or of every element of a sequence (each distinct
    value is formatted once); a list of str is already formatted."""
    if isinstance(values, (int, float, np.number)):
        return _fmt(values)
    if isinstance(values, list) and values and isinstance(values[0], str):
        return values
    values = np.asarray(values, dtype=np.float64).ravel().tolist()
    text = {v: _fmt(v) for v in set(values)}
    return [text[v] for v in values]


def _escape_all(texts) -> list[str]:
    """``html.escape`` of every text (None → ""); one pass over the joined
    texts finds the usual case, where nothing needs escaping."""
    texts = [t or "" for t in texts]
    joined = "".join(texts)
    if len(html.escape(joined)) == len(joined):  # escaping only lengthens
        return texts
    return [html.escape(t) for t in texts]


class Canvas:
    """An append-only SVG canvas."""

    def __init__(self, width: float, height: float, background: str = "#ffffff") -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"canvas must have positive size, got {width}x{height}")
        self.width = width
        self.height = height
        self._body: list[str] = []
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    # ------------------------------------------------------------------

    def rect(self, x: float, y: float, w: float, h: float, fill: str = "#000000",
             stroke: str = "none", stroke_width: float = 1.0, opacity: float = 1.0,
             title: str | None = None) -> None:
        """Axis-aligned rectangle; ``title`` adds a hover tooltip."""
        self.rects(x, y, w, h, fill, title, stroke=stroke,
                   stroke_width=stroke_width, opacity=opacity)

    def rects(self, x, y, w, h, fill="#000000", title=None, *,
              stroke: str = "none", stroke_width: float = 1.0,
              opacity: float = 1.0, escaped: bool = False) -> None:
        """Many rectangles in one call, emitted in sequence order.

        ``x``/``y``/``w``/``h`` are numbers or equal-length sequences,
        ``fill`` a colour or a sequence of colours, ``title`` None, a
        tooltip or a sequence of tooltips (empty ones are omitted); a
        scalar applies to every rectangle.  A list of str for a
        coordinate is taken as already formatted, and ``escaped`` says a
        sequence of tooltips is already escaped markup.  Element ``i`` is
        exactly the markup ``rect()`` emits for the ``i``-th values.
        """
        if title is None or isinstance(title, str):
            title = html.escape(title) if title else ""
        elif not escaped:
            title = _escape_all(title)
        tail = f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
        if opacity != 1.0:
            tail += f' opacity="{_fmt(opacity)}"'
        cols = (_fmts(x), _fmts(y), _fmts(w), _fmts(h), fill, title)
        n = {len(c) for c in cols if not isinstance(c, str)} or {1}
        if len(n) > 1:
            raise ValueError(f"rects: sequences of unequal lengths {sorted(n)}")
        n = n.pop()
        # the one <rect> template, inline: a call per rect costs more than its text
        self._body.extend([
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{f}" '
            f'{tail}><title>{t}</title></rect>' if t else
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{f}" {tail}/>'
            for x, y, w, h, f, t in zip(*(
                repeat(c, n) if isinstance(c, str) else c for c in cols))])

    def line(self, x1: float, y1: float, x2: float, y2: float,
             stroke: str = "#000000", stroke_width: float = 1.0,
             dash: str | None = None) -> None:
        attrs = (
            f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
        )
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        self._body.append(f"<line {attrs}/>")

    def text(self, x: float, y: float, content: str, size: float = 12,
             anchor: str = "start", fill: str = "#202020",
             rotate: float | None = None, bold: bool = False) -> None:
        """Text anchored at (x, y); ``anchor`` in start/middle/end."""
        attrs = (
            f'x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'text-anchor="{anchor}" fill="{fill}" '
            f'font-family="Helvetica, Arial, sans-serif"'
        )
        if bold:
            attrs += ' font-weight="bold"'
        if rotate is not None:
            attrs += f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
        self._body.append(f"<text {attrs}>{html.escape(content)}</text>")

    def polygon(self, points: list[tuple[float, float]], fill: str = "#000000",
                stroke: str = "none", stroke_width: float = 1.0,
                opacity: float = 1.0) -> None:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        attrs = (
            f'points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(stroke_width)}"'
        )
        if opacity != 1.0:
            attrs += f' opacity="{_fmt(opacity)}"'
        self._body.append(f"<polygon {attrs}/>")

    def circle(self, cx: float, cy: float, r: float, fill: str = "#000000",
               stroke: str = "none", stroke_width: float = 1.0) -> None:
        self._body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    # ------------------------------------------------------------------

    def to_string(self) -> str:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" viewBox="0 0 {_fmt(self.width)} '
            f'{_fmt(self.height)}">'
        )
        # one join: concatenating a multi-MB body copies it again
        return "\n".join([header, *(self._body or [""]), "</svg>\n"])

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_string())
        return path
