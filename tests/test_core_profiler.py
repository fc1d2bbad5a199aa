"""Integration tests: ActorProf attached to real FA-BSP runs."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec
from repro.sim.errors import SimulationError


class CountingActor(Actor):
    def __init__(self, ctx, larray):
        super().__init__(ctx, payload_words=1)
        self.larray = larray

    def process(self, idx, sender):
        self.ctx.compute(ins=20, loads=3, stores=1)
        self.larray[idx] += 1


def run_profiled(machine=MachineSpec(2, 4), n_sends=40, flags=None, seed=2,
                 batch=False):
    ap = ActorProf(flags or ProfileFlags.all())

    async def program(ctx):
        larray = np.zeros(16, dtype=np.int64)
        a = CountingActor(ctx, larray)
        dsts = ctx.rng.integers(0, ctx.n_pes, n_sends)
        idxs = ctx.rng.integers(0, 16, n_sends)
        async with ctx.finish():
            a.start()
            if batch:
                a.send_batch(dsts, idxs)
            else:
                for d, i in zip(dsts, idxs):
                    a.send(int(i), int(d))
            a.done()
        return int(larray.sum())

    res = run_spmd(program, machine=machine, profiler=ap, seed=seed)
    return ap, res


def test_logical_trace_counts_every_send():
    ap, res = run_profiled(n_sends=40)
    assert ap.logical.total_sends() == 40 * 8
    assert ap.logical.sends_per_pe().tolist() == [40] * 8
    # conservation: all sent messages were received and processed
    assert sum(res.results) == 40 * 8
    assert ap.logical.recvs_per_pe().sum() == 40 * 8


def test_logical_batch_equals_scalar():
    ap_s, _ = run_profiled(n_sends=30, batch=False)
    ap_b, _ = run_profiled(n_sends=30, batch=True)
    assert np.array_equal(ap_s.logical.matrix(), ap_b.logical.matrix())


def test_overall_identity_holds():
    """T_MAIN + T_COMM + T_PROC == T_TOTAL (by construction) and all
    parts are non-negative — the derivation sanity the paper relies on."""
    ap, _ = run_profiled()
    ov = ap.overall
    total = ov.t_main + ov.t_comm() + ov.t_proc
    assert np.array_equal(total, ov.t_total)
    assert (ov.t_main > 0).all()
    assert (ov.t_proc >= 0).all()
    assert (ov.t_comm() >= 0).all()


def test_comm_dominates_this_workload():
    """Random remote increments are communication-bound — COMM should be
    the top region, like every configuration in the paper's Figs. 12-13."""
    ap, _ = run_profiled(n_sends=60)
    fr = ap.overall.fractions()
    assert (fr[:, 1] > fr[:, 0]).all()  # COMM > MAIN
    assert (fr[:, 1] > fr[:, 2]).all()  # COMM > PROC


def test_papi_rows_per_send_and_monotone():
    ap, _ = run_profiled(n_sends=25, batch=False)
    rows = ap.papi_trace.rows(0)
    # 25 send rows + 1 finish-end summary row
    assert len(rows) == 26
    # CSV column order: ..., mailbox, num_sends, event values
    assert rows[:-1, 6].tolist() == list(range(1, 26))
    assert (np.diff(rows[:, 7]) >= 0).all()
    assert rows[-1, 5] == -1  # summary row


def test_papi_sampling_interval():
    flags = ProfileFlags.all(papi_sample_interval=5)
    ap, _ = run_profiled(n_sends=25, flags=flags, batch=False)
    rows = ap.papi_trace.rows(0)
    assert len(rows) == 5 + 1  # every 5th send + summary
    assert rows[:-1, 6].tolist() == [5, 10, 15, 20, 25]


def test_papi_region_totals_consistent_with_counters():
    """User-region instruction totals must not exceed the PE's total
    retired instructions, and PROC totals must reflect handler work."""
    ap, res = run_profiled(n_sends=40)
    world = ap.world
    for pe in range(8):
        grand = world.shmem.perf[pe].counters.read("PAPI_TOT_INS")
        user = ap.papi_trace.totals_per_pe("PAPI_TOT_INS")[pe]
        assert 0 < user < grand
    proc = ap.papi_trace.totals_per_pe("PAPI_TOT_INS", regions=("PROC",))
    assert proc.sum() > 0


def test_physical_trace_populated_and_typed():
    ap, _ = run_profiled()
    by_type = ap.physical.counts_by_type()
    assert by_type.get("local_send", 0) > 0
    assert by_type.get("nonblock_send", 0) > 0  # 2 nodes → column traffic


def test_physical_local_sends_are_intra_node():
    """local_send records must connect PEs on the same node and
    nonblock_send records must cross nodes (2D mesh invariant)."""
    ap, _ = run_profiled()
    spec = ap.world.spec
    local = ap.physical.matrix("local_send")
    nb = ap.physical.matrix("nonblock_send")
    for src in range(spec.n_pes):
        for dst in range(spec.n_pes):
            if local[src, dst]:
                assert spec.same_node(src, dst)
            if nb[src, dst]:
                assert not spec.same_node(src, dst)
                assert spec.local_index(src) == spec.local_index(dst)


def test_selective_flags():
    ap, _ = run_profiled(flags=ProfileFlags(enable_trace=True))
    assert ap.logical is not None
    assert ap.overall is None
    assert ap.physical is None

    ap, _ = run_profiled(flags=ProfileFlags(enable_tcomm_profiling=True))
    assert ap.logical is None
    assert ap.overall is not None

    ap, _ = run_profiled(flags=ProfileFlags(enable_trace_physical=True))
    assert ap.physical is not None
    assert ap.overall is None


def test_profiler_single_use():
    ap, _ = run_profiled()
    with pytest.raises(SimulationError):
        run_profiled.__wrapped__ if False else ap.attach(ap.world)


def test_write_traces_emits_enabled_files(tmp_path):
    ap, _ = run_profiled()
    written = ap.write_traces(tmp_path)
    assert set(written) == {"logical", "papi", "overall", "physical"}
    assert (tmp_path / "overall.txt").exists()
    assert (tmp_path / "physical.txt").exists()
    assert (tmp_path / "PE7_send.csv").exists()
    assert (tmp_path / "PE7_PAPI.csv").exists()


def test_profiling_does_not_change_results():
    """Heisenberg check: attaching ActorProf must not alter the
    application's answer."""
    _, res_profiled = run_profiled(n_sends=35)
    ap = None

    async def program(ctx):
        larray = np.zeros(16, dtype=np.int64)
        a = CountingActor(ctx, larray)
        dsts = ctx.rng.integers(0, ctx.n_pes, 35)
        idxs = ctx.rng.integers(0, 16, 35)
        async with ctx.finish():
            a.start()
            for d, i in zip(dsts, idxs):
                a.send(int(i), int(d))
            a.done()
        return int(larray.sum())

    res_bare = run_spmd(program, machine=MachineSpec(2, 4), seed=2)
    assert res_bare.results == res_profiled.results
