"""Integration tests for the 3D cube topology end to end."""

import numpy as np
import pytest

from repro.conveyors import ConveyorConfig, CubeTopology
from repro.machine import MachineSpec
from repro.hclib import Actor, run_spmd


@pytest.mark.parametrize("spec", [MachineSpec(2, 4), MachineSpec(4, 4)])
def test_cube_delivers_all_messages(spec):
    """Histogram over the cube topology conserves every update."""

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx, conveyor_config=ConveyorConfig(topology="cube"))
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    async def program(ctx):
        arr = np.zeros(16, dtype=np.int64)
        a = A(ctx, arr)
        dsts = ctx.rng.integers(0, ctx.n_pes, 60)
        idxs = ctx.rng.integers(0, 16, 60)
        async with ctx.finish():
            a.start()
            for d, i in zip(dsts, idxs):
                a.send(int(i), int(d))
            a.done()
        return int(arr.sum())

    res = run_spmd(program, machine=spec, seed=8,
                   conveyor_config=ConveyorConfig(topology="cube"))
    assert sum(res.results) == 60 * spec.n_pes


def test_cube_matches_linear_results():
    spec = MachineSpec(2, 8)

    def make_program(topology):
        cfg = ConveyorConfig(topology=topology)

        class A(Actor):
            def __init__(self, ctx, arr):
                super().__init__(ctx, conveyor_config=cfg)
                self.arr = arr

            def process(self, idx, sender):
                self.arr[idx] += 1

        async def program(ctx):
            arr = np.zeros(8, dtype=np.int64)
            a = A(ctx, arr)
            dsts = ctx.rng.integers(0, ctx.n_pes, 50)
            async with ctx.finish():
                a.start()
                for d in dsts:
                    a.send(int(d) % 8, int(d))
                a.done()
            return int(arr.sum())

        return program

    res_cube = run_spmd(make_program("cube"), machine=spec, seed=5)
    res_linear = run_spmd(make_program("linear"), machine=spec, seed=5)
    assert res_cube.results == res_linear.results


def test_cube_local_hops_precede_remote(monkeypatch):
    """Physical structure: all cube traffic respects the hop ordering
    (intra-node a/b hops first, inter-node node hop last) — verified via
    the physical trace kinds per pair."""
    from repro.core import ActorProf, ProfileFlags

    spec = MachineSpec(2, 4)
    cfg = ConveyorConfig(topology="cube")
    ap = ActorProf(ProfileFlags(enable_trace_physical=True))

    class A(Actor):
        def __init__(self, ctx):
            super().__init__(ctx, conveyor_config=cfg)
            self.seen = 0

        def process(self, payload, sender):
            self.seen += 1

    async def program(ctx):
        a = A(ctx)
        async with ctx.finish():
            a.start()
            for dst in range(ctx.n_pes):
                a.send(1, dst)
            a.done()
        return a.seen

    res = run_spmd(program, machine=spec, seed=0, profiler=ap,
                   conveyor_config=cfg)
    assert sum(res.results) == spec.n_pes * spec.n_pes
    topo = CubeTopology(spec)
    local = ap.physical.matrix("local_send")
    nb = ap.physical.matrix("nonblock_send")
    for src in range(spec.n_pes):
        for dst in range(spec.n_pes):
            if local[src, dst]:
                assert spec.same_node(src, dst)
            if nb[src, dst]:
                assert not spec.same_node(src, dst)
                # node hops never change the local index in cube routing
                assert spec.local_index(src) == spec.local_index(dst)
