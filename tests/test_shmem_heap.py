"""Unit tests for the symmetric heap."""

import numpy as np
import pytest

from repro.shmem import SymmetricHeap
from repro.sim.errors import SimulationError


def test_same_allocation_index_shares_handle():
    heap = SymmetricHeap(4)
    handles = [heap.alloc(r, 10, np.int64) for r in range(4)]
    assert all(h is handles[0] for h in handles)


def test_local_backing_is_per_pe_and_zeroed():
    heap = SymmetricHeap(2)
    arr = heap.alloc(0, 5, np.int64)
    heap.alloc(1, 5, np.int64)
    arr.local(0)[:] = 7
    assert arr.local(1).tolist() == [0, 0, 0, 0, 0]
    assert arr.local(0).tolist() == [7] * 5


def test_divergent_shapes_rejected():
    heap = SymmetricHeap(2)
    heap.alloc(0, 10, np.int64)
    with pytest.raises(SimulationError):
        heap.alloc(1, 11, np.int64)


def test_divergent_dtypes_rejected():
    heap = SymmetricHeap(2)
    heap.alloc(0, 10, np.int64)
    with pytest.raises(SimulationError):
        heap.alloc(1, 10, np.float64)


def test_multiple_allocations_tracked_in_order():
    heap = SymmetricHeap(2)
    a0 = heap.alloc(0, 10, np.int64)
    b0 = heap.alloc(0, (3, 3), np.float64)
    a1 = heap.alloc(1, 10, np.int64)
    b1 = heap.alloc(1, (3, 3), np.float64)
    assert a0 is a1 and b0 is b1


def test_int_shape_normalized_to_tuple():
    heap = SymmetricHeap(1)
    arr = heap.alloc(0, 4, np.int32)
    assert arr.shape == (4,)
    assert arr.nbytes == 16
    assert arr.itemsize == 4


def test_negative_shape_rejected():
    heap = SymmetricHeap(1)
    with pytest.raises(ValueError):
        heap.alloc(0, -1, np.int64)


def test_2d_allocation():
    heap = SymmetricHeap(1)
    arr = heap.alloc(0, (2, 8), np.int64)
    assert arr.local(0).shape == (2, 8)
