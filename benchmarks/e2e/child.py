"""One run of one workload in a fresh interpreter (spawned by run.py).

Prints one JSON object as its last stdout line.  Set-up is timed from
the first statement of this file — imports, input generation, and for
serve_mix the archive build and first server start — so work moved into
set-up shows up in ``setup_s``.

``--heatmap PATH`` is the second-child mode hist_wide uses to render the
1024-PE heatmap outside the simulator's address space.
"""

from __future__ import annotations

import os
import sys
import time


def pin_and_warm_cpu() -> None:
    """Keep this process on one CPU and bring that CPU up to speed.

    Pinning: the simulator runs one PE thread at a time (cooperative
    scheduler, GIL), but left alone the kernel spreads the PE threads
    over both vCPUs and every baton hand-off becomes a cross-CPU
    wake-up — the same 1024-PE run then takes 0.9 s or 1.9 s depending
    on where the threads landed.  One CPU makes the fast placement the
    only one.

    Warming: after a few idle seconds this sandbox's vCPUs run ~1.4x
    slower for the first 3-5 busy seconds.  ``--prewarm S`` spins for S
    seconds first, so neither set-up nor the first iterations are timed
    on the ramp.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if "--prewarm" in sys.argv:
        until = time.perf_counter() + float(
            sys.argv[sys.argv.index("--prewarm") + 1])
        while time.perf_counter() < until:
            sum(i * i for i in range(10_000))


pin_and_warm_cpu()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def build_workload(name: str):
    """Workload objects by name; sizes are fixed constants, see README."""
    if name in ("tri_batch", "tri_fine"):
        from wl_sim import Triangle

        if name == "tri_batch":
            return Triangle(batch=True, scale=10, nodes=2)
        return Triangle(batch=False, scale=8, nodes=1)
    if name == "hist_wide":
        from wl_sim import HistWide

        return HistWide()
    if name == "store_scan":
        from wl_store import StoreScan

        return StoreScan()
    if name == "serve_mix":
        from wl_serve import ServeMix

        return ServeMix()
    raise SystemExit(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--heatmap")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prewarm", type=float, default=0.0)
    parser.add_argument("--outdir", type=Path, default=HERE / "output")
    args = parser.parse_args()

    if args.heatmap:
        from wl_sim import render_heatmap_child

        print(json.dumps(render_heatmap_child(args.heatmap)))
        return 0

    from harness import Ctx, run_loop, stat

    args.outdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-",
                                    dir=args.outdir))
    workload = build_workload(args.workload)
    ctx = Ctx(seed=args.seed, smoke=args.smoke, workdir=workdir,
              trace_run=bool(args.trace))
    try:
        workload.setup(ctx)
        workload.setup_spans = dict(ctx.sample)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        gc.collect()
        min_rounds = 1 if args.smoke else (2 if args.trace else 3)
        plain, traced = run_loop(workload, ctx, args.seconds,
                                 bool(args.trace), min_rounds)
        if not plain.rows or (args.trace and not traced.rows):
            print("every iteration failed", file=sys.stderr)
            return 1
        ctx.tracing = bool(args.trace)
        ctx.iteration = len(plain.rows)
        workload.finish(ctx)
        ctx.tracing = False
        e2e = {"peak_rss_mb": stat([ctx.peak_rss_mb])}
        e2e.update(workload.e2e(plain))
        layer = {}
        if args.trace:
            layer = workload.layers(plain, traced)
            untraced = workload.pipeline_wall(plain).value
            layer["bench.trace_overhead_frac"] = stat([
                (workload.pipeline_wall(traced).value - untraced) / untraced])
            ctx.write_chrome_trace(
                args.outdir / f"trace_{args.workload}.json", args.workload)
        result = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "k": len(plain.rows), "setup_s": setup_s,
            "attempted": ctx.attempted, "failed": ctx.failed,
            "failures": ctx.failures,
            "e2e": {k: v.as_dict() for k, v in e2e.items()},
            "layer": {k: v.as_dict() for k, v in layer.items()},
            "self_time_s": ctx.self_times(),
            "checks": workload.checks(),
        }
        print(json.dumps(result))
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
