"""Final coverage round: small behaviours not exercised elsewhere."""

import numpy as np
import pytest

from repro import Actor, ActorProf, ConveyorConfig, MachineSpec, ProfileFlags, run_spmd
from repro.core.viz.bars import bar_graph
from repro.core.viz.heatmap import heatmap_svg
from repro.machine import CostModel


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert repro.__version__ == "1.0.0"


def test_run_result_clocks_match_world():
    async def program(ctx):
        ctx.compute(ins=100 * (ctx.my_pe + 1))
        return ctx.perf.clock.now

    res = run_spmd(program, machine=MachineSpec(1, 3))
    assert res.clocks == res.results


def test_yield_and_barrier_helpers():
    async def program(ctx):
        await ctx.yield_pe()
        await ctx.barrier()
        await ctx.yield_pe()
        return ctx.perf.clock.now

    res = run_spmd(program, machine=MachineSpec(1, 4))
    assert len(set(res.results)) == 1  # barrier aligned the clocks


def test_cost_model_override_flows_to_run():
    slow = CostModel().scaled(cpi=10.0)

    async def program(ctx):
        ctx.compute(ins=100)
        return ctx.perf.clock.now

    fast_res = run_spmd(program, machine=MachineSpec(1, 1))
    slow_res = run_spmd(program, machine=MachineSpec(1, 1), cost=slow)
    assert slow_res.results[0] > 5 * fast_res.results[0]


def test_heatmap_linear_scale_and_no_totals():
    m = np.arange(9).reshape(3, 3)
    s = heatmap_svg(m, log_scale=False, show_totals=False)
    assert "linear" in s
    assert "total sends" not in s


def test_bar_graph_no_highlight_and_single_bar():
    s = bar_graph(np.array([5.0]), highlight_max=True)
    # a single bar is never highlighted (nothing to contrast)
    assert "#e45756" not in s
    s2 = bar_graph(np.array([1.0, 9.0]), highlight_max=False)
    assert "#e45756" not in s2


def test_profiler_with_no_papi_events():
    """enable_trace with an empty event tuple: logical only, no PAPI rows."""
    ap = ActorProf(ProfileFlags(enable_trace=True, papi_events=()))

    class A(Actor):
        def process(self, p, s):
            pass

    async def program(ctx):
        a = A(ctx)
        async with ctx.finish():
            a.start()
            a.send(1, (ctx.my_pe + 1) % ctx.n_pes)
            a.done()
        return True

    run_spmd(program, machine=MachineSpec(1, 2), profiler=ap)
    assert ap.logical.total_sends() == 2
    # PAPI trace exists but carries only the summary rows (no event data)
    assert ap.papi_trace.events == ()


def test_conveyor_config_defaults_propagate_from_run_spmd():
    cfg = ConveyorConfig(buffer_items=3)
    seen = {}

    class A(Actor):
        def __init__(self, ctx):
            super().__init__(ctx)  # no per-selector config: world default

        def process(self, p, s):
            pass

    async def program(ctx):
        a = A(ctx)
        seen[ctx.my_pe] = a.mb[0].conveyor.group.config.buffer_items
        async with ctx.finish():
            a.start()
            a.done()
        return True

    run_spmd(program, machine=MachineSpec(1, 2), conveyor_config=cfg)
    assert set(seen.values()) == {3}


def test_sequential_profiled_finishes_accumulate():
    ap = ActorProf(ProfileFlags(enable_tcomm_profiling=True))

    class A(Actor):
        def process(self, p, s):
            pass

    async def program(ctx):
        for _ in range(3):
            a = A(ctx)
            async with ctx.finish():
                a.start()
                a.send(1, (ctx.my_pe + 1) % ctx.n_pes)
                a.done()
        return True

    run_spmd(program, machine=MachineSpec(1, 2), profiler=ap)
    ov = ap.overall
    # three finish spans accumulated into one total per PE
    assert (ov.t_total > 0).all()
    assert np.array_equal(ov.t_main + ov.t_comm() + ov.t_proc, ov.t_total)


def test_machine_spec_name_is_cosmetic():
    a = MachineSpec(1, 4, name="alpha")
    b = MachineSpec(1, 4, name="beta")
    assert a.n_pes == b.n_pes
    assert a != b  # dataclass equality includes the name, by design
