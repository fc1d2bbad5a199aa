"""Tests for R-MAT generation, lower-triangular matrices and distributions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import matrix as matrix_module
from repro.graphs import (
    BlockDistribution,
    CyclicDistribution,
    LowerTriangular,
    RangeDistribution,
    erdos_renyi_edges,
    graph500_input,
    make_distribution,
    rmat_edges,
)


# ---------------------------------------------------------------- R-MAT


def test_rmat_edge_count_and_range():
    scale = 8
    edges = rmat_edges(scale, edge_factor=4, seed=1)
    assert edges.shape == (4 * 2**scale, 2)
    assert edges.min() >= 0
    assert edges.max() < 2**scale


def test_rmat_reproducible():
    a = rmat_edges(6, seed=42)
    b = rmat_edges(6, seed=42)
    assert np.array_equal(a, b)
    c = rmat_edges(6, seed=43)
    assert not np.array_equal(a, c)


def test_rmat_invalid_params():
    with pytest.raises(ValueError):
        rmat_edges(0)
    with pytest.raises(ValueError):
        rmat_edges(4, edge_factor=0)
    with pytest.raises(ValueError):
        rmat_edges(4, a=0.9, b=0.9, c=0.9)


def test_rmat_power_law_skew():
    """graph500 parameters concentrate edges on low vertex ids — the
    skew behind every imbalance in the paper's figures."""
    edges = rmat_edges(10, edge_factor=16, seed=0)
    n = 2**10
    counts = np.bincount(edges.ravel(), minlength=n)
    low = counts[: n // 8].sum()
    assert low > counts.sum() / 8 * 2  # ≥2× over-representation


def test_graph500_input_is_strictly_lower_triangular_and_unique():
    edges = graph500_input(8, seed=3)
    assert (edges[:, 0] > edges[:, 1]).all()
    assert len(np.unique(edges, axis=0)) == len(edges)


def test_erdos_renyi_exact_count_and_uniqueness():
    edges = erdos_renyi_edges(50, 300, seed=0)
    assert edges.shape == (300, 2)
    assert (edges[:, 0] > edges[:, 1]).all()
    assert len(np.unique(edges, axis=0)) == 300


def test_erdos_renyi_bounds():
    with pytest.raises(ValueError):
        erdos_renyi_edges(1, 0)
    with pytest.raises(ValueError):
        erdos_renyi_edges(4, 10)  # K_4 has 6 edges
    edges = erdos_renyi_edges(4, 6, seed=0)  # the complete graph
    assert len(edges) == 6


# ---------------------------------------------------- LowerTriangular


def tri_graph():
    # triangle 0-1-2 plus pendant edge 3-0
    return LowerTriangular.from_edges(np.array([[1, 0], [2, 0], [2, 1], [3, 0]]))


def test_matrix_basic_accessors():
    L = tri_graph()
    assert L.n_vertices == 4
    assert L.nnz == 4
    assert L.neighbors(2).tolist() == [0, 1]
    assert L.row_degrees().tolist() == [0, 1, 2, 1]


def test_has_edge_scalar_and_vector():
    L = tri_graph()
    assert L.has_edge(2, 1)
    assert not L.has_edge(3, 1)
    got = L.has_edges(np.array([2, 2, 3, 1]), np.array([0, 1, 1, 0]))
    assert got.tolist() == [True, True, False, True]


def test_has_edges_empty_queries_and_matrix():
    L = tri_graph()
    assert L.has_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0
    empty = LowerTriangular.from_edges(np.empty((0, 2)), n_vertices=5)
    assert not empty.has_edges(np.array([3]), np.array([1]))[0]


@st.composite
def graphs_and_queries(draw):
    """A lower-triangular graph (possibly empty or one edge) and queries
    that include keys before its first edge and past its last one."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(1, n - 1), st.integers(0, n - 2)).filter(
        lambda p: p[0] > p[1])
    edges = draw(st.one_of(st.just([]), st.lists(pairs, min_size=1, max_size=1),
                           st.lists(pairs, max_size=30, unique=True)))
    key = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    queries = draw(st.lists(key, max_size=20))
    # extremes of the key order: row 0 sorts before every stored edge and
    # (n - 1, n - 1) after every one
    queries += [(0, 0), (n - 1, n - 1), (n - 1, n - 2)]
    if edges:
        queries += [max(edges), min(edges)]
    return n, edges, queries


@given(graphs_and_queries())
@settings(max_examples=200, deadline=None)
def test_has_edges_matches_scalar_and_edge_set(case):
    n, edges, queries = case
    L = LowerTriangular.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2),
                                   n_vertices=n)
    rows = np.array([q[0] for q in queries], dtype=np.int64)
    cols = np.array([q[1] for q in queries], dtype=np.int64)
    got = L.has_edges(rows, cols).tolist()
    edge_set = set(edges)
    assert got == [q in edge_set for q in queries]
    assert got == [L.has_edge(r, c) for r, c in queries]


def test_not_lower_triangular_rejected():
    with pytest.raises(ValueError):
        LowerTriangular.from_edges(np.array([[0, 1]]))
    with pytest.raises(ValueError):
        LowerTriangular.from_edges(np.array([[1, 1]]))


def test_triangle_count_reference_known_graphs():
    assert tri_graph().triangle_count_reference() == 1
    # K4 has 4 triangles
    k4 = LowerTriangular.from_edges(
        np.array([[1, 0], [2, 0], [2, 1], [3, 0], [3, 1], [3, 2]])
    )
    assert k4.triangle_count_reference() == 4
    # path graph has none
    path = LowerTriangular.from_edges(np.array([[1, 0], [2, 1], [3, 2]]))
    assert path.triangle_count_reference() == 0


def _scipy_triangles(L):
    """``((Lᵀ L) ∘ L).sum()`` through scipy.sparse: the formula the
    bitset reference computes by other arithmetic."""
    from scipy import sparse

    M = sparse.csr_matrix((np.ones(L.nnz, dtype=np.int64), (L.rows, L.cols)),
                          shape=(L.n_vertices, L.n_vertices))
    return int((M.T @ M).multiply(M).sum())


def _with_reference_blocks(span, edges, fn):
    """Run ``fn`` with the reference's bitset span / edge block patched."""
    saved = matrix_module.REFERENCE_SPAN, matrix_module.REFERENCE_EDGES
    matrix_module.REFERENCE_SPAN, matrix_module.REFERENCE_EDGES = span, edges
    try:
        return fn()
    finally:
        matrix_module.REFERENCE_SPAN, matrix_module.REFERENCE_EDGES = saved


@given(st.integers(2, 200),
       st.lists(st.tuples(st.integers(0, 199), st.integers(0, 199)),
                max_size=600))
def test_triangle_reference_equals_scipy_formula(n, pairs):
    edges = sorted({(max(a % n, b % n), min(a % n, b % n)) for a, b in pairs
                    if a % n != b % n})
    L = LowerTriangular.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2),
                                   n_vertices=n)
    want = _scipy_triangles(L)
    # default blocks, then spans and edge blocks far smaller than the graph
    for span, block in ((matrix_module.REFERENCE_SPAN,
                         matrix_module.REFERENCE_EDGES), (64, 7), (3, 1)):
        assert _with_reference_blocks(
            span, block, L.triangle_count_reference) == want, (span, block)


@pytest.mark.parametrize("scale", [6, 7, 8, 9, 10])
def test_triangle_reference_equals_scipy_on_graph500(scale):
    L = LowerTriangular.from_edges(graph500_input(scale, 12, seed=scale))
    assert L.triangle_count_reference() == _scipy_triangles(L)


def test_case_study_imports_load_no_scipy():
    code = ("import sys, repro.api, repro.apps; "
            "sys.exit('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_triangle_count_matches_networkx():
    nx = pytest.importorskip("networkx")
    edges = graph500_input(7, edge_factor=8, seed=5)
    L = LowerTriangular.from_edges(edges)
    g = nx.Graph()
    g.add_nodes_from(range(L.n_vertices))
    g.add_edges_from(edges.tolist())
    expected = sum(nx.triangles(g).values()) // 3
    assert L.triangle_count_reference() == expected


# ------------------------------------------------------ distributions


def test_cyclic_ownership():
    d = CyclicDistribution(10, 4)
    assert d.owner(0) == 0 and d.owner(5) == 1 and d.owner(7) == 3
    assert d.local_rows(1).tolist() == [1, 5, 9]
    d.check()


def test_block_ownership():
    d = BlockDistribution(10, 3)
    d.check()
    sizes = [len(d.local_rows(p)) for p in range(3)]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_range_balances_nnz():
    edges = graph500_input(8, seed=2)
    L = LowerTriangular.from_edges(edges)
    d = RangeDistribution.from_graph(L, 8)
    d.check()
    deg = L.row_degrees()
    per_pe = np.array([deg[d.local_rows(p)].sum() for p in range(8)])
    # each PE within 50% of the ideal share (power-law rows are chunky)
    ideal = L.nnz / 8
    assert per_pe.sum() == L.nnz
    assert per_pe.max() <= 2.0 * ideal


def test_range_is_contiguous_and_ordered():
    edges = graph500_input(7, seed=1)
    L = LowerTriangular.from_edges(edges)
    d = RangeDistribution.from_graph(L, 4)
    prev_end = 0
    for pe in range(4):
        rows = d.local_rows(pe)
        if len(rows):
            assert rows[0] == prev_end
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
            prev_end = rows[-1] + 1
    assert prev_end == L.n_vertices


def test_range_owner_monotone_nondecreasing():
    """Range ownership is monotone in row index — the property behind the
    paper's (L) observation."""
    edges = graph500_input(7, seed=9)
    L = LowerTriangular.from_edges(edges)
    d = RangeDistribution.from_graph(L, 8)
    owners = d.owner_array(np.arange(L.n_vertices))
    assert (np.diff(owners) >= 0).all()


def test_make_distribution():
    L = tri_graph()
    assert make_distribution("cyclic", L, 2).name == "cyclic"
    assert make_distribution("range", L, 2).name == "range"
    assert make_distribution("block", L, 2).name == "block"
    with pytest.raises(ValueError):
        make_distribution("hash", L, 2)


def test_distribution_validation():
    with pytest.raises(ValueError):
        CyclicDistribution(10, 0)
    with pytest.raises(ValueError):
        CyclicDistribution(-1, 2)


@settings(max_examples=30)
@given(st.integers(2, 200), st.integers(1, 16))
def test_cyclic_and_block_partition_property(n_rows, n_pes):
    block = BlockDistribution(n_rows, n_pes)
    for dist in (CyclicDistribution(n_rows, n_pes), block):
        owners = dist.owner_array(np.arange(n_rows))
        assert owners.min() >= 0 and owners.max() < n_pes
        counts = np.bincount(owners, minlength=n_pes)
        assert counts.max() - counts.min() <= 1  # both are balanced by rows
        assert [dist.owner(r) for r in range(n_rows)] == owners.tolist()
        dist.check()
    for row in (-1, n_rows):
        with pytest.raises(ValueError, match="out of range"):
            block.owner(row)


@settings(max_examples=20)
@given(st.integers(4, 9), st.integers(1, 16), st.integers(0, 5))
def test_range_partition_property(scale, n_pes, seed):
    edges = graph500_input(scale, edge_factor=4, seed=seed)
    L = LowerTriangular.from_edges(edges)
    d = RangeDistribution.from_graph(L, n_pes)
    d.check()
    owners = d.owner_array(np.arange(L.n_vertices))
    assert (np.diff(owners) >= 0).all()
    assert [d.owner(r) for r in range(L.n_vertices)] == owners.tolist()
    for row in (-1, L.n_vertices):
        with pytest.raises(ValueError, match="out of range"):
            d.owner(row)
