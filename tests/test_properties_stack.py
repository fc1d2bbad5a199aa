"""Property-based tests across the whole FA-BSP stack.

Hypothesis drives random machine shapes, topologies, buffer sizes and
message multisets through the histogram workload, checking the invariants
the trace products rely on: conservation (every send is processed exactly
once), trace/result consistency, and determinism.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conveyors import ConveyorConfig
from repro.core import ActorProf, ProfileFlags
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


class CountingActor(Actor):
    def __init__(self, ctx, arr, cfg):
        super().__init__(ctx, conveyor_config=cfg)
        self.arr = arr

    def process(self, idx, sender):
        self.arr[idx] += 1


def run_histogram(nodes, ppn, topology, buffer_items, n_msgs, seed,
                  flags=None, self_send_bypass=False):
    spec = MachineSpec(nodes, ppn)
    cfg = ConveyorConfig(buffer_items=buffer_items, topology=topology,
                         self_send_bypass=self_send_bypass)
    ap = ActorProf(flags) if flags else None

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = CountingActor(ctx, arr, cfg)
        dsts = ctx.rng.integers(0, ctx.n_pes, n_msgs)
        idxs = ctx.rng.integers(0, 8, n_msgs)
        async with ctx.finish():
            a.start()
            for d, i in zip(dsts, idxs):
                a.send(int(i), int(d))
            a.done()
        return int(arr.sum())

    res = run_spmd(program, machine=spec, seed=seed, profiler=ap,
                   conveyor_config=cfg)
    return spec, res, ap


machines = st.tuples(st.integers(1, 3), st.integers(1, 6))
topologies = st.sampled_from(["auto", "linear", "mesh"])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    machines,
    topologies,
    st.integers(1, 32),
    st.integers(0, 40),
    st.integers(0, 10_000),
)
def test_conservation_across_shapes(machine, topology, buffer_items, n_msgs, seed):
    """Every message sent is processed exactly once, whatever the shape."""
    nodes, ppn = machine
    spec, res, _ = run_histogram(nodes, ppn, topology, buffer_items, n_msgs, seed)
    assert sum(res.results) == n_msgs * spec.n_pes


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(machines, st.integers(1, 16), st.integers(1, 30), st.integers(0, 1000))
def test_traces_consistent_with_results(machine, buffer_items, n_msgs, seed):
    """Logical totals == processed messages; physical payload bytes cover
    at least the logical payload bytes routed off-PE."""
    nodes, ppn = machine
    flags = ProfileFlags.all()
    spec, res, ap = run_histogram(nodes, ppn, "auto", buffer_items, n_msgs,
                                  seed, flags=flags)
    total = n_msgs * spec.n_pes
    assert ap.logical.total_sends() == total
    assert int(ap.logical.recvs_per_pe().sum()) == total
    assert sum(res.results) == total
    # every physical op is one of the three instrumented kinds
    assert set(ap.physical.counts_by_type()) <= {
        "local_send", "nonblock_send", "nonblock_progress"}
    # physical wire bytes >= logical payload bytes (headers + envelopes)
    if total:
        phys_payload = int(
            ap.physical.bytes_matrix("local_send").sum()
            + ap.physical.bytes_matrix("nonblock_send").sum()
        )
        assert phys_payload >= int(ap.logical.bytes_matrix().sum())


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(machines, st.integers(1, 8), st.integers(1, 25), st.integers(0, 100))
def test_determinism_property(machine, buffer_items, n_msgs, seed):
    nodes, ppn = machine
    _, res1, _ = run_histogram(nodes, ppn, "auto", buffer_items, n_msgs, seed)
    _, res2, _ = run_histogram(nodes, ppn, "auto", buffer_items, n_msgs, seed)
    assert res1.results == res2.results
    assert res1.clocks == res2.clocks


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(machines, st.integers(1, 25), st.integers(0, 50))
def test_self_send_bypass_preserves_answers(machine, n_msgs, seed):
    nodes, ppn = machine
    _, res_a, _ = run_histogram(nodes, ppn, "auto", 8, n_msgs, seed,
                                self_send_bypass=False)
    _, res_b, _ = run_histogram(nodes, ppn, "auto", 8, n_msgs, seed,
                                self_send_bypass=True)
    assert res_a.results == res_b.results


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(machines, st.integers(0, 30), st.integers(0, 50))
def test_clock_identity_overall(machine, n_msgs, seed):
    """T_MAIN + T_COMM + T_PROC == T_TOTAL on arbitrary runs."""
    nodes, ppn = machine
    _, _, ap = run_histogram(nodes, ppn, "auto", 8, n_msgs, seed,
                             flags=ProfileFlags(enable_tcomm_profiling=True))
    ov = ap.overall
    assert np.array_equal(ov.t_main + ov.t_comm() + ov.t_proc, ov.t_total)
    assert (ov.t_comm() >= 0).all()
