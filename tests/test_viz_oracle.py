"""The array-built grid views against the per-cell oracle, and binning.

``tests/viz_oracle.py`` keeps the renderers that looped over cells; the
properties below pin ``heatmap_svg`` (≤ 256 PEs), ``lod_gantt_svg``,
``lod_timeline_svg`` and the array ``sequential`` to them byte for byte.
Past 256 PEs the heatmap draws block sums; the binning tests check what
a block says against the matrix.
"""

import re
from xml.parsers import expat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lod import PeSeries, Viewport
from repro.core.viz.heatmap import MAX_CELLS, block_sum, heatmap_svg
from repro.core.viz.lodviews import lod_gantt_svg, lod_timeline_svg
from repro.core.viz.palette import sequential
from repro.core.viz.svg import Canvas
from tests import viz_oracle as oracle

SETTINGS = settings(max_examples=25, deadline=None)


def _matrix(n: int, kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n), dtype=np.int64)
    if kind == "hot":
        m[rng.integers(n), rng.integers(n)] = int(rng.integers(1, 1 << 20))
    elif kind == "sparse":
        m = rng.integers(0, 50, (n, n)) * (rng.random((n, n)) < 0.3)
    elif kind == "wide":
        m = rng.integers(0, 1 << 40, (n, n), dtype=np.int64)
    return m


# ------------------------------------------------------ byte identity


@SETTINGS
@given(n=st.one_of(st.integers(1, 40), st.integers(41, MAX_CELLS)),
       kind=st.sampled_from(["zero", "hot", "sparse", "wide"]),
       seed=st.integers(0, 2**16), log_scale=st.booleans(),
       show_totals=st.booleans(),
       title=st.sampled_from(["T", "<&\"'> heatmap", "a & b"]),
       entity=st.sampled_from(["PE", "node", "<P&E>", "r&d \"'"]))
@example(n=MAX_CELLS, kind="sparse", seed=1, log_scale=True,
         show_totals=True, title="Fig", entity="PE")
@example(n=21, kind="zero", seed=0, log_scale=False, show_totals=False,
         title="<&\"'>", entity="PE")
@example(n=3, kind="sparse", seed=2, log_scale=True, show_totals=True,
         title="T", entity="<P&E>")
def test_heatmap_matches_per_cell_oracle(n, kind, seed, log_scale,
                                         show_totals, title, entity):
    m = _matrix(n, kind, seed)
    kw = dict(title=title, log_scale=log_scale, show_totals=show_totals,
              xlabel="dst <x>", ylabel="src & y", entity=entity)
    assert heatmap_svg(m, **kw) == oracle.heatmap_svg(m, **kw)


@st.composite
def pe_series(draw):
    n_pes = draw(st.integers(1, 12))
    nb = draw(st.integers(1, 200))
    width = draw(st.integers(1, 10_000))
    b0 = draw(st.integers(0, 1_000))  # a viewport away from the origin
    seed = draw(st.integers(0, 2**16))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    # up to 2x the bucket width: occupancy past the width is clipped
    occ = rng.integers(0, 2 * width + 1, (n_pes, nb, 3), dtype=np.int64)
    occ *= rng.random((n_pes, nb, 3)) < density
    vp = Viewport(level=draw(st.integers(0, 4)), width=width, b0=b0,
                  b1=b0 + nb, t0=b0 * width, t1=(b0 + nb) * width)
    return PeSeries(viewport=vp, occ=occ)


@SETTINGS
@given(series=pe_series())
def test_lod_views_match_per_cell_oracle(series):
    assert lod_gantt_svg(series, title="g<&>") \
        == oracle.lod_gantt_svg(series, title="g<&>")
    assert lod_timeline_svg(series) == oracle.lod_timeline_svg(series)


_EDGES = [0.0, -0.0, 1.0, -1e-300, 1e-300, -5.0, 5.0, float("nan"),
          float("inf"), float("-inf")]
# anchor boundaries and their float neighbours
_EDGES += [v for a in (0.25, 0.5, 0.75, 1.0)
           for v in (np.nextafter(a, 0.0), a, np.nextafter(a, 2.0))]
# dyadic t: many channels land exactly on .5
_EDGES += [m / 64 for m in range(65)]


def test_sequential_array_matches_scalar_oracle_at_the_edges():
    values = np.array(_EDGES, dtype=np.float64)
    want = [oracle.sequential(t) for t in values]
    assert sequential(values).tolist() == want
    assert [sequential(t) for t in values] == want
    assert sequential(values.reshape(-1, 1)).shape == (len(values), 1)
    # red lerps to exactly 52.5 here: half to even gives 0x34, not 0x35
    assert sequential(0.3125) == oracle.sequential(0.3125) == "#34628b"


@SETTINGS
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60))
def test_sequential_array_matches_scalar_oracle(values):
    values = np.array(values, dtype=np.float64)
    assert sequential(values).tolist() == [oracle.sequential(t) for t in values]


def test_rects_is_rect_per_element():
    xs, ys = [0, 1.005, 2.5, 1e6], [3, 3, 3.333, -1]
    fills = ["#000000", "#111111", "#222222", "#333333"]
    tips = ["a", "", None, "x\ny <&>"]
    batch, one = Canvas(5, 5), oracle.OracleCanvas(5, 5)
    batch.rects(xs, ys, 2, [1, 2, 3, 4], fills, tips, opacity=0.5)
    for x, y, h, f, t in zip(xs, ys, [1, 2, 3, 4], fills, tips):
        one.rect(x, y, 2, h, fill=f, title=t, opacity=0.5)
    assert batch.to_string() == one.to_string()
    with pytest.raises(ValueError, match="unequal lengths"):
        batch.rects([0, 1], [0, 1, 2], 1, 1)


# ------------------------------------------------------------- binning


_BODY = re.compile(r"<title>\S+ → \S+: (\d+) sends")


def _titles(svg: str) -> list[str]:
    return re.findall(r"<title>([^<]*)</title>", svg)


def test_256_pes_render_unbinned_and_257_bin():
    flat = heatmap_svg(_matrix(MAX_CELLS, "sparse", 3))
    assert "blocks" not in flat
    assert len(_BODY.findall(flat)) == MAX_CELLS ** 2
    assert "<title>PE255 → PE255: " in flat
    binned = heatmap_svg(_matrix(MAX_CELLS + 1, "sparse", 3))
    assert "2×2 PE blocks" in binned
    assert len(_BODY.findall(binned)) == 129 ** 2
    assert "<title>PE0–1 → PE2–3: " in binned
    assert "<title>PE256 → PE256: " in binned  # the ragged last block


@pytest.mark.parametrize("n", [257, 300, 513])
def test_binned_body_and_totals_are_block_sums(n):
    m = _matrix(n, "sparse", n)
    factor = -(-n // MAX_CELLS)
    blocks = block_sum(m, factor)
    svg = heatmap_svg(m)
    body = np.array([int(v) for v in _BODY.findall(svg)])
    assert body.sum() == m.sum()
    assert (body.reshape(blocks.shape) == blocks).all()
    sends = [int(v) for v in re.findall(r"total sends: (\d+)", svg)]
    recvs = [int(v) for v in re.findall(r"total recvs: (\d+)", svg)]
    assert sends == blocks.sum(axis=1).tolist() \
        == block_sum(m.sum(axis=1), factor).tolist()
    assert recvs == blocks.sum(axis=0).tolist()


def test_single_hot_pair_is_named_once():
    m = np.zeros((600, 600), dtype=np.int64)
    m[417, 5] = 99
    tips = [t for t in _titles(heatmap_svg(m)) if "max" in t]
    assert tips == ["PE417–419 → PE3–5: 99 sends; max PE417 → PE5: 99"]


def test_binned_node_tooltips_use_the_noun():
    svg = heatmap_svg(np.ones((300, 300), dtype=np.int64), entity="node")
    assert "<title>node 0–1 → node 2–3: 4 sends; max node 0 → node 2: 1" \
        in svg
    assert "2×2 node blocks" in svg
    escaped = heatmap_svg(np.ones((300, 300), dtype=np.int64), entity="a&b")
    assert "<title>a&amp;b 0–1 → a&amp;b 2–3: 4 sends; max a&amp;b 0 → " \
        "a&amp;b 2: 1</title>" in escaped
    assert "2×2 a&amp;b blocks" in escaped


def test_1024_pe_heatmap_is_small_and_parses():
    rng = np.random.default_rng(7)
    data = heatmap_svg(rng.integers(0, 1 << 20, (1024, 1024))).encode("utf-8")
    assert len(data) < 15e6
    parser, rects = expat.ParserCreate(), []
    parser.StartElementHandler = lambda name, attrs: (
        rects.append(1) if name == "rect" else None)
    parser.Parse(data, True)
    # background + 256 x 256 blocks + 2 x 256 totals + 40 legend steps
    assert len(rects) == 1 + 256 * 256 + 2 * 256 + 40


def test_block_sum_pads_the_ragged_edge():
    a = np.arange(25).reshape(5, 5)
    assert block_sum(a, 2).tolist() == [[12, 20, 13], [52, 60, 33],
                                        [41, 45, 24]]
    assert block_sum(np.arange(5), 2).tolist() == [1, 5, 4]
    assert block_sum(a, 1) is a
