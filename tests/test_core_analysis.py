"""Tests for trace analysis helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.analysis import (
    DistributionComparison,
    OverallSummary,
    QuartileStats,
    heat_with_totals,
    imbalance_ratio,
    is_lower_triangular_comm,
    send_recv_stats,
)
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.machine import MachineSpec


def test_heat_with_totals():
    m = np.array([[1, 2], [3, 4]])
    full = heat_with_totals(m)
    assert full.shape == (3, 3)
    assert full[0, 2] == 3  # PE0 sends
    assert full[1, 2] == 7  # PE1 sends
    assert full[2, 0] == 4  # PE0 recvs
    assert full[2, 1] == 6  # PE1 recvs
    assert full[2, 2] == 10


def test_heat_with_totals_requires_square():
    with pytest.raises(ValueError):
        heat_with_totals(np.zeros((2, 3)))


def test_quartile_stats():
    st_ = QuartileStats.of(np.array([1, 2, 3, 4, 100]))
    assert st_.minimum == 1
    assert st_.median == 3
    assert st_.maximum == 100
    with pytest.raises(ValueError):
        QuartileStats.of(np.array([]))


def test_send_recv_stats():
    trace = LogicalTrace(MachineSpec(1, 2))
    trace.record(0, 1, 8)
    trace.record(0, 1, 8)
    trace.record(1, 0, 8)
    stats = send_recv_stats(trace)
    assert stats["sends"].maximum == 2
    assert stats["recvs"].maximum == 2


def test_imbalance_ratio():
    assert imbalance_ratio(np.array([1, 1, 1, 1])) == 1.0
    assert imbalance_ratio(np.array([0, 0, 0, 4])) == 4.0
    assert imbalance_ratio(np.array([0, 0])) == 1.0


def test_is_lower_triangular_comm():
    assert is_lower_triangular_comm(np.tril(np.ones((4, 4))))
    upper = np.zeros((4, 4))
    upper[0, 3] = 5
    assert not is_lower_triangular_comm(upper)
    assert is_lower_triangular_comm(np.zeros((3, 3)))
    # tolerance admits a small spill above the diagonal
    mixed = np.tril(np.full((4, 4), 10))
    mixed[0, 1] = 1
    assert is_lower_triangular_comm(mixed, tolerance=0.05)


def test_overall_summary():
    p = OverallProfile(2)
    p.add_main(0, 10)
    p.add_proc(0, 10)
    p.add_total(0, 100)
    p.add_main(1, 20)
    p.add_proc(1, 20)
    p.add_total(1, 200)
    s = OverallSummary.of(p)
    assert s.mean_main_frac == pytest.approx(0.1)
    assert s.mean_comm_frac == pytest.approx(0.8)
    assert s.max_total_cycles == 200


def test_distribution_comparison():
    spec = MachineSpec(1, 2)
    worse = LogicalTrace(spec)
    better = LogicalTrace(spec)
    for _ in range(6):
        worse.record(0, 1, 8)
    for _ in range(2):
        better.record(0, 1, 8)
    better.record(1, 0, 8)
    cmp_ = DistributionComparison.of(worse, better)
    assert cmp_.max_sends_ratio == 3.0
    assert cmp_.max_recvs_ratio == 3.0


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
def test_quartile_stats_ordering_property(values):
    s = QuartileStats.of(np.array(values))
    assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
    assert s.minimum <= s.mean <= s.maximum


@given(st.integers(2, 12), st.data())
def test_heat_totals_conservation_property(n, data):
    flat = data.draw(
        st.lists(st.integers(0, 50), min_size=n * n, max_size=n * n)
    )
    m = np.array(flat).reshape(n, n)
    full = heat_with_totals(m)
    # total sends == total recvs == grand total
    assert full[:n, n].sum() == full[n, :n].sum() == full[n, n] == m.sum()


def test_aggregate_to_nodes():
    from repro.core.analysis import aggregate_to_nodes

    spec = MachineSpec(2, 2)
    m = np.arange(16).reshape(4, 4)
    nodes = aggregate_to_nodes(m, spec)
    assert nodes.shape == (2, 2)
    # node 0 = PEs {0,1}, node 1 = PEs {2,3}
    assert nodes[0, 0] == m[:2, :2].sum()
    assert nodes[0, 1] == m[:2, 2:].sum()
    assert nodes[1, 0] == m[2:, :2].sum()
    assert nodes.sum() == m.sum()


def test_aggregate_to_nodes_shape_mismatch():
    from repro.core.analysis import aggregate_to_nodes

    with pytest.raises(ValueError):
        aggregate_to_nodes(np.zeros((3, 3)), MachineSpec(2, 2))


def test_aggregate_to_nodes_respects_locality():
    """Intra-node physical traffic lands on the node-matrix diagonal."""
    from repro.core.analysis import aggregate_to_nodes
    from repro.core.physical import PhysicalTrace

    spec = MachineSpec(2, 2)
    t = PhysicalTrace(4)
    t.record("local_send", 100, 0, 1, 0)   # node 0 internal
    t.record("nonblock_send", 100, 1, 3, 0)  # node 0 → node 1
    nodes = aggregate_to_nodes(t.matrix(), spec)
    assert nodes[0, 0] == 1 and nodes[0, 1] == 1
    assert nodes[1, 0] == 0 and nodes[1, 1] == 0
