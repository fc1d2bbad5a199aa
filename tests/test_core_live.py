"""Tests for the live (in-flight) monitor."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.core.live import LiveMonitor
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


class A(Actor):
    def __init__(self, ctx, arr):
        super().__init__(ctx)
        self.arr = arr

    def process(self, idx, sender):
        self.arr[idx] += 1


def run_with_monitor(monitor, n_sends=50, machine=MachineSpec(2, 4), seed=2):
    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        dsts = ctx.rng.integers(0, ctx.n_pes, n_sends)
        async with ctx.finish():
            a.start()
            for d in dsts:
                a.send(int(d) % 8, int(d))
            a.done()
        return int(arr.sum())

    return run_spmd(program, machine=machine, profiler=monitor, seed=seed)


def test_validation():
    with pytest.raises(ValueError):
        LiveMonitor(snapshot_every=0)
    with pytest.raises(RuntimeError):
        LiveMonitor().current()


def test_standalone_monitor_counts_everything():
    live = LiveMonitor(snapshot_every=100)
    res = run_with_monitor(live, n_sends=50)
    cur = live.current()
    assert cur.total_sends == 50 * 8
    assert cur.sends_per_pe == (50,) * 8
    assert sum(cur.handled_per_pe) == 50 * 8
    assert cur.open_finishes == 0
    assert sum(res.results) == 50 * 8


def test_snapshots_emitted_at_interval():
    live = LiveMonitor(snapshot_every=100)
    run_with_monitor(live, n_sends=50)  # 400 sends total
    snaps = live.snapshots
    assert len(snaps) == 4
    totals = [s.total_sends for s in snaps]
    assert totals == sorted(totals)
    assert all(t >= 100 * (i + 1) for i, t in enumerate(totals))
    # a snapshot taken mid-run has open finish scopes
    assert snaps[0].open_finishes > 0


def test_wrapping_actorprof_preserves_full_traces():
    ap = ActorProf(ProfileFlags.all())
    live = LiveMonitor(ap, snapshot_every=50)
    run_with_monitor(live, n_sends=40)
    # inner profiler saw every event through the forwarder
    assert ap.logical.total_sends() == 40 * 8
    assert (ap.overall.t_total > 0).all()
    assert ap.physical.total_operations() > 0
    # and the live view agrees with the final trace
    assert live.current().total_sends == ap.logical.total_sends()
    assert live.current().sends_per_pe == tuple(ap.logical.sends_per_pe())


def test_wrapped_and_bare_runs_agree():
    ap_bare = ActorProf(ProfileFlags.all())
    res_bare = run_with_monitor(ap_bare, n_sends=30)
    ap_wrapped = ActorProf(ProfileFlags.all())
    res_wrapped = run_with_monitor(LiveMonitor(ap_wrapped), n_sends=30)
    assert res_bare.results == res_wrapped.results
    assert np.array_equal(ap_bare.logical.matrix(), ap_wrapped.logical.matrix())
    assert np.array_equal(ap_bare.overall.t_total, ap_wrapped.overall.t_total)


def test_batch_sends_counted():
    live = LiveMonitor(snapshot_every=10)

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        dsts = ctx.rng.integers(0, ctx.n_pes, 25)
        async with ctx.finish():
            a.start()
            a.send_batch(dsts, dsts % 8)
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(1, 4), profiler=live, seed=1)
    assert live.current().total_sends == 25 * 4
    assert len(live.snapshots) >= 1


def test_large_batch_emits_one_snapshot_per_boundary():
    # Regression: a single send_batch crossing several snapshot_every
    # boundaries used to append only ONE snapshot, silently skipping the
    # intermediate views.  One batch of 120 sends per PE with
    # snapshot_every=10 must land 48 snapshots (480 sends / 10), not 4.
    live = LiveMonitor(snapshot_every=10)

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        dsts = ctx.rng.integers(0, ctx.n_pes, 120)  # batch >> snapshot_every
        async with ctx.finish():
            a.start()
            a.send_batch(dsts, dsts % 8)
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(1, 4), profiler=live, seed=3)
    total = live.current().total_sends
    assert total == 120 * 4
    snaps = live.snapshots
    assert len(snaps) == total // 10
    totals = [s.total_sends for s in snaps]
    assert totals == sorted(totals)
    # every crossed boundary got exactly one snapshot
    assert [s.seq for s in snaps] == list(range(len(snaps)))


def test_unmatched_finish_end_raises_naming_pe():
    # Regression: an unmatched finish_end used to drive open_finishes
    # negative silently; now it must fail loudly and name the PE.
    live = LiveMonitor(snapshot_every=10)

    class _World:
        spec = MachineSpec(1, 4)

    live.attach(_World())
    live.finish_start(2)
    live.finish_end(2)
    with pytest.raises(RuntimeError, match="PE 2"):
        live.finish_end(2)
    # per-PE tracking: a scope open on PE 1 does not mask PE 3's underflow
    live.finish_start(1)
    with pytest.raises(RuntimeError, match="PE 3"):
        live.finish_end(3)
    assert live.current().open_finishes == 1
