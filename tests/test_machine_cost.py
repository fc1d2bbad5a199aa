"""Unit tests for the cost model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.machine import CostModel
from repro.machine.perf import PerfCore
from repro.sim.clock import CycleClock


def test_ins_cycles_scales_with_cpi():
    core = PerfCore(CycleClock(), CostModel(cpi=2.0))
    core.work(ins=100)
    assert core.clock.now == 200


def test_memcpy_has_base_plus_per_byte():
    cm = CostModel(memcpy_base_cycles=100, memcpy_cycles_per_byte=0.5)
    assert cm.memcpy_cycles(0) == 100
    assert cm.memcpy_cycles(200) == 200


def test_net_transfer_latency_dominates_small_messages():
    cm = CostModel()
    small = cm.net_transfer_cycles(8)
    big = cm.net_transfer_cycles(8192)
    assert small >= cm.net_latency_cycles
    assert big > small


def test_network_much_more_expensive_than_memcpy():
    """The relative ordering the figures depend on: net >> memcpy."""
    cm = CostModel()
    nbytes = 1024
    assert cm.net_transfer_cycles(nbytes) > 4 * cm.memcpy_cycles(nbytes)


def test_collective_cycles_scale_with_pes():
    cm = CostModel()
    assert cm.collective_cycles(32) > cm.collective_cycles(2)


def test_scaled_overrides_fields():
    cm = CostModel().scaled(net_latency_cycles=1)
    assert cm.net_latency_cycles == 1
    # untouched fields keep defaults
    assert cm.cpi == CostModel().cpi


def test_frozen():
    import dataclasses

    import pytest

    cm = CostModel()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cm.cpi = 3.0  # type: ignore[misc]


@given(st.integers(0, 10**7))
def test_costs_monotone_in_bytes(nbytes):
    cm = CostModel()
    assert cm.memcpy_cycles(nbytes + 64) >= cm.memcpy_cycles(nbytes)
    assert cm.net_transfer_cycles(nbytes + 64) >= cm.net_transfer_cycles(nbytes)
