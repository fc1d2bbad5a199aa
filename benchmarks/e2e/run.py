#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end to end and per layer
(three named in ``BENCHMARK.json`` and gated, two more for analysis).

    python3 benchmarks/e2e/run.py                      # all workloads, once
    python3 benchmarks/e2e/run.py --runs 3 --trace     # + per-layer pass
    python3 benchmarks/e2e/run.py --workload tri_fine --seed 7 \\
            --seconds 10 --trace 0                     # one run, JSON line
    python3 benchmarks/e2e/run.py --smoke --check      # tiny sizes, < 20 s
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every run of a workload is a fresh child interpreter (``child.py``), so
``peak_rss_mb`` is that workload's alone; ``setup_s`` is the fastest of
that child and two set-up-only children.  Names, units, directions and
regression bounds come from ``BENCHMARK.json`` at the repo root; see
README.md beside this file for what each metric means and which layer
metric is expected to move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from harness import Stat, stat  # noqa: E402

#: Counts that must repeat bit-for-bit for a fixed seed (the A/A canary).
EXACT = frozenset({
    "first_view_svg_mb", "archive_bytes",
    "sim.handoffs", "sim.selections", "sim.pred_evals", "sim.yield_fast",
    "sim.events_fired", "sim.event_batches", "hclib.proc_batches",
    "conveyors.buffer_ops", "conveyors.msgs_per_buffer",
    "shmem.ops.local_send", "shmem.ops.nonblock_send",
    "shmem.ops.nonblock_progress", "machine.sim_cycles_max",
    "core.profiler.spans", "core.profiler.papi_rows",
    "core.profiler.logical_rows",
    "core.store.codec.bytes.src", "core.store.codec.bytes.dst",
    "core.store.codec.bytes.size", "core.store.codec.bytes.count",
    "core.store.frame.chunks_kept_frac.selective",
    "core.store.frame.chunks_kept_frac.unprunable",
    "core.viz.svg_bytes.gantt", "core.viz.svg_bytes.heatmap",
    "core.viz.svg_bytes.timeline",
})
#: Workloads this runner knows that ``BENCHMARK.json`` does not name, so
#: no later change is gated on them: the contract's time cap pays for
#: three workloads of 30 s runs, not five of 14 s, and 14 s runs did not
#: repeat within the bounds on the machine that checks them (README,
#: "Steadiness").  They run by default and in the traced pass like the
#: others; their numbers are for analysis, not for regression bounds.
EXTRA_WORKLOADS = {
    "tri_fine": "Same kernel, one Python call per message and one PAPI row "
                "per send: profiler recording and the per-message "
                "hclib/conveyors path dominate; scheduler handoffs are "
                "under 5 percent",
    "hist_wide": "Histogram on 1024 PEs with almost no application work: "
                 "scheduler and thread-per-PE bound; its first view is the "
                 "O(n_pes^2) heatmap",
}
#: Set-up-only children run after the measuring child (fastest of 3).
EXTRA_SETUPS = 2
#: Seconds each child spins before it starts timing (see child.py).
PREWARM_S, SETUP_PREWARM_S = 1.0, 0.5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(args: list[str], timeout: float = 170.0) -> dict:
    """Run ``child.py`` to completion; its last stdout line is JSON."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # child.py adds src/ itself
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def one_run(workload: str, *, seed: int, seconds: float, trace: bool,
            smoke: bool, outdir: Path) -> dict:
    """One measured run plus its set-up-only siblings."""
    base = ["--workload", workload, "--seed", str(seed),
            "--outdir", str(outdir)] + (["--smoke"] if smoke else [])
    result = run_child(base + ["--seconds", str(seconds),
                               "--trace", str(int(trace))]
                       + ([] if smoke else ["--prewarm", str(PREWARM_S)]))
    # the measuring child leaves its CPU warm for the set-up siblings
    setups = [run_child(base + ["--setup-only", "--prewarm",
                                str(SETUP_PREWARM_S)])["setup_s"]
              for _ in range(0 if smoke else EXTRA_SETUPS)]
    # fastest of the three, like every other timing (README, "Which
    # iteration is reported"); the quartiles are kept beside it
    result["e2e"]["setup_s"] = stat(setups + [result["setup_s"]], pick=min,
                                    method="inclusive").as_dict()
    if trace:
        result["layer"]["fail_frac"] = stat(
            [result["failed"] / result["attempted"]]).as_dict()
    return result


def driver_line(spec: dict, result: dict, trace: bool) -> str:
    """The one-line result the builder's contract asks for: every
    ``end_to_end`` metric (``--trace 0``) or every ``per_layer`` metric
    (``--trace 1``; a layer the workload does not run reports 0)."""
    if trace:
        metrics = {m["name"]: {"value": result["layer"].get(
            m["name"], {"value": 0.0})["value"], "unit": m["unit"]}
            for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["e2e"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def environment(seed: int, runs: int, seconds: float) -> dict:
    def git_sha() -> str:
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc / 2:
        print(f"WARNING: 1-min load average {load:.2f} > nproc/2 "
              f"({nproc / 2:g}): timings will be noisy", file=sys.stderr)
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "nproc": nproc,
            "cpu_model": cpu, "loadavg_1min": load, "seed": seed,
            "runs": runs, "seconds": seconds}


def rows_for(spec: dict, workload: str, results: list[dict],
             kind: str) -> list[dict]:
    """One tidy row per (metric, workload): the median over the runs
    with their quartiles — or, for a single run, over its iterations."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    key = "e2e" if kind == "e2e" else "layer"
    rows = []
    for name in results[0][key]:
        per_run = [r[key][name] for r in results if name in r[key]]
        s = (stat(v["value"] for v in per_run) if len(per_run) > 1
             else Stat(**per_run[0]))
        rows.append({"workload": workload, "kind": kind, "name": name,
                     "unit": units[name], "value": s.value, "n": s.n,
                     "q1": s.q1, "q3": s.q3, "exact": name in EXACT})
    return rows


def print_rows(rows: list[dict]) -> None:
    for r in rows:
        mark = " exact" if r["exact"] else ""
        print(f"  {r['kind']:5s} {r['name']:46s} {r['value']:>14.6g} "
              f"{r['unit']:9s} n={r['n']} [{r['q1']:.5g} .. {r['q3']:.5g}]"
              f"{mark}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--runs", type=int, default=1, metavar="R")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also do the traced, "
                        "per-layer pass (alone when one run of one "
                        "workload is asked for)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one iteration; < 20 s in all")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any operation failed")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--outdir", type=Path, default=HERE / "output")
    args = parser.parse_args()

    if args.compare:
        from compare import compare

        return compare(load_spec(), *args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"{ROOT / 'src' / 'repro'} not found: this benchmark drives "
              "the repository's own package and cannot run without it",
              file=sys.stderr)
        return 2

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    workloads = args.workload or names
    for w in workloads:
        if w not in names:
            parser.error(f"unknown workload {w!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else float(spec["run_seconds"]))
    single = len(workloads) == 1 and args.runs == 1
    trace, args.outdir = bool(args.trace), args.outdir.resolve()
    env = environment(args.seed, args.runs, seconds)
    common = dict(seed=args.seed, seconds=seconds, smoke=args.smoke,
                  outdir=args.outdir)

    rows, checks, iterations, self_times = [], {}, {}, {}
    attempted = failed = 0
    last = None
    for workload in workloads:
        print(f"== {workload}", flush=True)
        untraced = [] if single and trace else [
            one_run(workload, trace=False, **common)
            for _ in range(args.runs)]
        traced = [one_run(workload, trace=True, **common)] if trace else []
        for result in untraced + traced:
            attempted += result["attempted"]
            failed += result["failed"]
            for message in result["failures"]:
                print(f"  FAILED {message}")
        last = (untraced + traced)[-1]
        checks[workload] = last["checks"]
        iterations[workload] = last["k"]
        if untraced:
            rows += rows_for(spec, workload, untraced, "e2e")
        if traced:
            rows += rows_for(spec, workload, traced, "layer")
            self_times[workload] = traced[0]["self_time_s"]
        print_rows([r for r in rows if r["workload"] == workload])
        for name, self_s in sorted(self_times.get(workload, {}).items(),
                                   key=lambda kv: -kv[1])[:8]:
            print(f"  self  {name:46s} {self_s:>14.6g} s")
        print(f"  operations attempted {last['attempted']} "
              f"failed {last['failed']}")

    env["iterations"] = iterations
    args.outdir.mkdir(parents=True, exist_ok=True)
    out = args.outdir / ("results_smoke.json" if args.smoke
                         else "results.json")
    out.write_text(json.dumps({
        "environment": env, "rows": rows, "checks": checks,
        "self_time_s": self_times,
        "operations": {"attempted": attempted, "failed": failed,
                       "fail_frac": failed / attempted},
    }, indent=1) + "\n")
    bad = [r for r in rows if not math.isfinite(r["value"])]
    print(f"fail_frac {failed / attempted:g} ({failed} of {attempted} "
          f"operations); results in {out}")
    if single:
        print(driver_line(spec, last, trace))
    return 1 if bad or (args.check and failed) else 0


if __name__ == "__main__":
    sys.exit(main())
