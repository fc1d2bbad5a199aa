"""Benchmark: what-if sweep throughput and replay-cache effectiveness.

A what-if study is only usable interactively if a sweep over a handful
of scale points finishes in seconds and *repeating* it (the normal
iterate-on-a-hypothesis loop) is nearly free.  This measures both:

* cold sweep throughput in replay points per second (``--jobs 1``),
* the warm re-run against the same cache — hit rate must be 100% and
  the report byte-identical to the cold one.

Numbers land in ``benchmarks/output/BENCH_whatif.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_whatif_sweep.py -v -s
"""

import json
import time

from repro.api import whatif
from repro.check import HistogramWorkload
from repro.exec import ResultCache
from repro.machine.spec import MachineSpec

#: 2 x 3 cartesian sweep = 6 replay points per run.
SWEEPS = [("proc", [0.5, 2.0]), ("net.latency", [0.5, 1.0, 2.0])]


def workload():
    return HistogramWorkload(updates=800, table_size=64,
                             machine=MachineSpec(2, 2), seed=0)


def test_whatif_sweep_throughput_and_cache(tmp_path, outdir):
    n_points = 1
    for _, factors in SWEEPS:
        n_points *= len(factors)
    cache = ResultCache(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = whatif(workload(), sweeps=SWEEPS, cache=cache)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = whatif(workload(), sweeps=SWEEPS, cache=cache)
    t_warm = time.perf_counter() - t0

    assert cold == warm, "cache hits changed the what-if report"
    stats = cache.stats.to_dict()
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    assert stats["hits"] >= n_points, (
        f"warm sweep should hit the cache for all {n_points} points: {stats}"
    )
    speedup = t_cold / t_warm if t_warm else float("inf")

    bench = {
        "workload": cold["workload"],
        "sweep_points": n_points,
        "cold": {
            "seconds": round(t_cold, 3),
            "points_per_s": round(n_points / t_cold, 2),
        },
        "warm": {
            "seconds": round(t_warm, 3),
            "points_per_s": round(n_points / t_warm, 2) if t_warm else None,
            "speedup_vs_cold": round(speedup, 2),
        },
        "cache": {**stats, "hit_rate": round(hit_rate, 4)},
        "baseline_t_total": cold["baseline"]["t_total"],
        "prediction_exact": cold["analysis"]["prediction_exact"],
    }
    out = outdir / "BENCH_whatif.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"\n{n_points} points: cold {t_cold:.2f}s "
          f"({n_points / t_cold:.1f} pts/s), warm {t_warm:.2f}s "
          f"({speedup:.1f}x), cache hit rate {hit_rate:.0%} -> {out}")
