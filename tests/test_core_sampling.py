"""Tests for logical-trace sampling (Section VI trace-size management)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ActorProf, ProfileFlags
from repro.core.logical import LogicalTrace
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


def observed(trace: LogicalTrace) -> int:
    """Sends the recorder saw, sampled or not: the archived ``ticks``."""
    return sum(trace.to_columns()[1]["ticks"])


def test_interval_one_records_everything():
    t = LogicalTrace(MachineSpec(1, 2))
    for _ in range(10):
        t.record(0, 1, 8)
    assert t.total_sends() == 10
    assert observed(t) == 10
    assert int(t.estimated_matrix().sum()) == 10


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        LogicalTrace(MachineSpec(1, 2), sample_interval=0)
    with pytest.raises(ValueError):
        ProfileFlags(logical_sample_interval=0)


def test_sampling_keeps_every_kth():
    t = LogicalTrace(MachineSpec(1, 2), sample_interval=4)
    for _ in range(16):
        t.record(0, 1, 8)
    assert t.total_sends() == 4
    assert observed(t) == 16
    assert int(t.estimated_matrix().sum()) == 16


def test_sampling_rounds_up_partial_intervals():
    t = LogicalTrace(MachineSpec(1, 2), sample_interval=4)
    for _ in range(5):
        t.record(0, 1, 8)  # ticks 0..4: keeps ticks 0 and 4
    assert t.total_sends() == 2
    assert observed(t) == 5


def test_batch_sampling_matches_scalar():
    spec = MachineSpec(1, 8)
    dsts = np.arange(100) % 8
    a = LogicalTrace(spec, sample_interval=7)
    for d in dsts:
        a.record(0, int(d), 8)
    b = LogicalTrace(spec, sample_interval=7)
    b.record_batch(0, dsts, 8)
    assert np.array_equal(a.matrix(), b.matrix())
    assert observed(a) == observed(b) == 100


def test_batch_sampling_across_multiple_batches():
    spec = MachineSpec(1, 4)
    a = LogicalTrace(spec, sample_interval=3)
    b = LogicalTrace(spec, sample_interval=3)
    chunks = [np.array([0, 1, 2, 3]), np.array([1, 1]), np.array([2, 3, 0, 1, 2])]
    for c in chunks:
        b.record_batch(0, c, 8)
    for d in np.concatenate(chunks):
        a.record(0, int(d), 8)
    assert np.array_equal(a.matrix(), b.matrix())


@settings(max_examples=25)
@given(
    st.integers(1, 9),
    st.lists(st.lists(st.integers(0, 3), max_size=20), max_size=8),
)
def test_batch_scalar_sampling_equivalence_property(k, chunk_lists):
    spec = MachineSpec(1, 4)
    scalar = LogicalTrace(spec, sample_interval=k)
    batch = LogicalTrace(spec, sample_interval=k)
    for chunk in chunk_lists:
        arr = np.array(chunk, dtype=np.int64)
        batch.record_batch(0, arr, 8)
        for d in chunk:
            scalar.record(0, d, 8)
    assert np.array_equal(scalar.matrix(), batch.matrix())
    assert observed(scalar) == observed(batch)


def test_estimate_accuracy_on_real_run():
    """Sampled estimates track the full trace on a live workload."""

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx)
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    def make_program():
        async def program(ctx):
            arr = np.zeros(8, dtype=np.int64)
            a = A(ctx, arr)
            dsts = ctx.rng.integers(0, ctx.n_pes, 400)
            async with ctx.finish():
                a.start()
                a.send_batch(dsts, dsts % 8)
                a.done()
            return int(arr.sum())
        return program

    full = ActorProf(ProfileFlags(enable_trace=True))
    run_spmd(make_program(), machine=MachineSpec(1, 8), profiler=full, seed=6)
    sampled = ActorProf(ProfileFlags(enable_trace=True, logical_sample_interval=8))
    run_spmd(make_program(), machine=MachineSpec(1, 8), profiler=sampled, seed=6)

    assert observed(sampled.logical) == full.logical.total_sends()
    # memory footprint shrinks ~8x
    assert sampled.logical.total_sends() <= full.logical.total_sends() // 7
    est = int(sampled.logical.estimated_matrix().sum())
    assert est == pytest.approx(full.logical.total_sends(), rel=0.05)
    # per-PE send estimates stay close
    est_sends = sampled.logical.estimated_matrix().sum(axis=1)
    real_sends = full.logical.matrix().sum(axis=1)
    assert np.abs(est_sends - real_sends).max() <= 8
