"""Unit tests for the machine/cluster specification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine import MachineSpec


def test_basic_shape():
    spec = MachineSpec(2, 16)
    assert spec.n_pes == 32
    assert spec.nodes == 2
    assert spec.pes_per_node == 16


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        MachineSpec(0, 4)
    with pytest.raises(ValueError):
        MachineSpec(2, 0)


def test_node_of_is_node_major():
    spec = MachineSpec(2, 16)
    assert spec.node_of(0) == 0
    assert spec.node_of(15) == 0
    assert spec.node_of(16) == 1
    assert spec.node_of(31) == 1


def test_local_index():
    spec = MachineSpec(2, 16)
    assert spec.local_index(0) == 0
    assert spec.local_index(17) == 1


def test_pe_at_inverts_node_of_local_index():
    spec = MachineSpec(3, 5)
    for pe in range(spec.n_pes):
        assert spec.pe_at(spec.node_of(pe), spec.local_index(pe)) == pe


def test_same_node():
    spec = MachineSpec(2, 4)
    assert spec.same_node(0, 3)
    assert not spec.same_node(3, 4)


def test_node_pes():
    spec = MachineSpec(2, 4)
    assert list(spec.node_pes(1)) == [4, 5, 6, 7]


def test_out_of_range_checks():
    spec = MachineSpec(2, 4)
    with pytest.raises(ValueError):
        spec.node_of(8)
    with pytest.raises(ValueError):
        spec.node_of(-1)
    with pytest.raises(ValueError):
        spec.pe_at(2, 0)
    with pytest.raises(ValueError):
        spec.pe_at(0, 4)
    with pytest.raises(ValueError):
        spec.node_pes(2)


def test_attrs_roundtrip_and_key_order():
    spec = MachineSpec(2, 4, name="perlmutter-like")
    assert MachineSpec.from_attrs(spec.attrs()) == spec
    # archive footers are not key-sorted: the order is part of the bytes
    assert list(spec.attrs()) == ["nodes", "pes_per_node", "machine_name"]
    assert MachineSpec.from_attrs({"nodes": "2", "pes_per_node": 4}) \
        == MachineSpec(2, 4)
    with pytest.raises(KeyError, match="pes_per_node"):
        MachineSpec.from_attrs({"nodes": 2})


def test_perlmutter_like_defaults():
    spec = MachineSpec.perlmutter_like()
    assert (spec.nodes, spec.pes_per_node) == (1, 16)
    spec2 = MachineSpec.perlmutter_like(2)
    assert spec2.n_pes == 32


@given(st.integers(1, 8), st.integers(1, 32))
def test_mapping_partitions_all_pes(nodes, ppn):
    spec = MachineSpec(nodes, ppn)
    seen = set()
    for node in range(nodes):
        for pe in spec.node_pes(node):
            assert spec.node_of(pe) == node
            seen.add(pe)
    assert seen == set(range(spec.n_pes))
