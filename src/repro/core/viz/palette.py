"""Color utilities: sequential colormap + categorical palette.

The sequential map interpolates viridis-like anchor colors (dark purple →
teal → yellow), perceptually ordered so heatmap magnitudes read correctly.
"""

from __future__ import annotations

import numpy as np

#: Viridis-like anchors (RGB rows), dark → bright.
_SEQ_ANCHORS = np.array([
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
], dtype=np.int64)

#: Categorical series colors (stacked bars, violins, multi-series bars).
CATEGORICAL = (
    "#4c78a8",  # blue
    "#f58518",  # orange
    "#54a24b",  # green
    "#e45756",  # red
    "#72b7b2",  # teal
    "#b279a2",  # purple
    "#ff9da6",  # pink
    "#9d755d",  # brown
)

#: Region colors used throughout the overall-breakdown charts, chosen to
#: echo the paper's Figure 1 (MAIN = blue, PROC = red).
REGION_COLORS = {"MAIN": "#4c78a8", "COMM": "#bab0ac", "PROC": "#e45756"}


def sequential(t):
    """Map t ∈ [0, 1] to a hex color along the sequential map.

    ``t`` is a number (→ one color string) or an array (→ an object
    array of color strings, same shape).  Values below 0, NaN and -inf
    map to the dark end, values above 1 and +inf to the bright end.
    Each distinct value is interpolated once: a float64 lerp between
    adjacent anchors, rounded half to even.
    """
    if np.ndim(t) == 0:
        return sequential(np.array([t], dtype=np.float64))[0]
    t = np.asarray(t, dtype=np.float64)
    distinct, inverse = np.unique(
        np.where(t > 0.0, np.minimum(t, 1.0), 0.0).ravel(), return_inverse=True)
    pos = distinct * (len(_SEQ_ANCHORS) - 1)
    i = np.minimum(pos.astype(np.int64), len(_SEQ_ANCHORS) - 2)
    frac = (pos - i)[:, None]
    lo, hi = _SEQ_ANCHORS[i], _SEQ_ANCHORS[i + 1]
    rgb = np.rint(lo + (hi - lo) * frac).astype(np.int64).tolist()
    hexes = np.array([f"#{r:02x}{g:02x}{b:02x}" for r, g, b in rgb], dtype=object)
    return hexes[inverse].reshape(t.shape)


def normalize(values: np.ndarray, log: bool = False) -> np.ndarray:
    """Scale values to [0, 1] for color mapping (optionally log1p)."""
    values = np.asarray(values, dtype=float)
    if log:
        values = np.log1p(np.maximum(values, 0.0))
    vmax = values.max() if values.size else 0.0
    if vmax <= 0:
        return np.zeros_like(values)
    return values / vmax


def categorical(i: int) -> str:
    """The i-th categorical series color (cycled)."""
    return CATEGORICAL[i % len(CATEGORICAL)]
