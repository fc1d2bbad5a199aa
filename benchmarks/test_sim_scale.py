"""Benchmark: scheduler weak scaling, 64 -> 256 -> 1024 PEs.

The scheduler's candidate index (key-vector selection, channel-gated
predicate re-evaluation, batched event drains) exists so that the paper's
kernels stay usable at three-digit PE counts, where an O(n_pes) scan per
scheduling decision does not.  This benchmark records how it scales:

* **Weak-scaling sweep** — the Listing 1-2 histogram at a fine-grained
  operating point (2 single-word remote updates per PE, the regime where
  scheduler overhead dominates data movement) on 64, 256 and 1024 PEs.
* **Triangle point** — the paper's other kernel at 256 PEs.

There is no relative gate: the linear-scan oracle the index was once
measured against lives in ``tests/sched_oracle.py`` (correctness only),
and throughput PR over PR is tracked by the end-to-end benchmark's
per-layer ``sim_handoffs_per_s`` (``benchmarks/e2e``).  The asserts here
are conservation checks on what was simulated.

Metrics per point: wall seconds, handoffs and handoffs/sec, events fired
and events/sec, selections, predicate evaluations, event batches, and
the process peak RSS.  Numbers land in
``benchmarks/output/BENCH_sim_scale.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_sim_scale.py -v -s
"""

import json
import resource
import time

from repro.apps.histogram import histogram
from repro.apps.triangle import count_triangles
from repro.graphs.matrix import LowerTriangular
from repro.graphs.rmat import erdos_renyi_edges
from repro.machine.spec import MachineSpec

#: Updates per PE: 2 keeps every run latency-bound (scheduler-dominated),
#: which is the regime the candidate index targets.
UPDATES_PER_PE = 2
TABLE_SIZE = 64
PE_COUNTS = (64, 256, 1024)
TRIANGLE_PES = 256
#: Best-of-N timing absorbs scheduler/OS noise without inflating totals.
REPS = 3


def _machine(n_pes: int) -> MachineSpec:
    """Weak-scaling family: 4 PEs per node, nodes grow with the sweep."""
    return MachineSpec(n_pes // 4, 4)


def _scheduler_of(result):
    run = getattr(result, "run", result)
    return run.world.scheduler


def _run_once(fn):
    """One run of ``fn``: ``(sim_wall, full_wall, result)``.

    ``sim_wall`` is the scheduler's own ``stats.wall_s`` (the simulation
    phase: first resumption through completion, excluding world construction
    and result collection) — the denominator of handoff/event throughput.
    """
    t0 = time.perf_counter()
    result = fn()
    full = time.perf_counter() - t0
    return _scheduler_of(result).stats.wall_s, full, result


def _best_of(fn):
    return min((_run_once(fn) for _ in range(REPS)), key=lambda s: s[0])


def _point(sample) -> dict:
    sim_wall, full_wall, result = sample
    stats = _scheduler_of(result).stats
    return {
        "sim_wall_s": round(sim_wall, 4),
        "full_wall_s": round(full_wall, 4),
        "handoffs": stats.handoffs,
        "handoffs_per_s": round(stats.handoffs / sim_wall, 1),
        "events_fired": stats.events_fired,
        "events_per_s": round(stats.events_fired / sim_wall, 1),
        "event_batches": stats.event_batches,
        "selections": stats.selections,
        "pred_evals": stats.pred_evals,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _triangle_graph():
    return LowerTriangular.from_edges(erdos_renyi_edges(400, 1600, seed=1))


def test_sim_scale_weak_scaling(outdir):
    bench = {
        "scenario": {
            "kernel": "histogram",
            "updates_per_pe": UPDATES_PER_PE,
            "table_size": TABLE_SIZE,
            "pes_per_node": 4,
            "reps": REPS,
            "timing": "best-of-reps; throughput uses the scheduler's "
                      "simulation-phase wall (stats.wall_s)",
        },
        "histogram": {},
        "triangle": {},
    }

    # Untimed warmup: first simulation in a process pays one-off costs
    # (imports, allocator growth, cpufreq ramp) that are not scheduler
    # throughput.
    _run_once(lambda: histogram(UPDATES_PER_PE, TABLE_SIZE, _machine(256)))

    for n_pes in PE_COUNTS:
        best = _best_of(
            lambda n=n_pes: histogram(UPDATES_PER_PE, TABLE_SIZE, _machine(n)))
        assert sum(best[2].per_pe_received) == UPDATES_PER_PE * n_pes, (
            "histogram lost or duplicated updates")
        bench["histogram"][str(n_pes)] = _point(best)

    graph = _triangle_graph()
    best = _best_of(
        lambda: count_triangles(graph, _machine(TRIANGLE_PES), "cyclic"))
    assert best[2].triangles == graph.triangle_count_reference(), (
        "distributed triangle count disagrees with the serial count")
    bench["triangle"][str(TRIANGLE_PES)] = {
        **_point(best), "triangles": best[2].triangles}

    out = outdir / "BENCH_sim_scale.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")

    print("\nscheduler weak scaling (histogram, 2 updates/PE):")
    for n_pes in PE_COUNTS:
        e = bench["histogram"][str(n_pes)]
        print(f"  {n_pes:5d} PEs: {e['sim_wall_s']:7.3f}s "
              f"({e['handoffs_per_s']:>9.1f} handoffs/s)")
    t = bench["triangle"][str(TRIANGLE_PES)]
    print(f"  triangle {TRIANGLE_PES} PEs: {t['sim_wall_s']:.3f}s "
          f"({t['handoffs_per_s']:.1f} handoffs/s)")
