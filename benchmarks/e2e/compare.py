"""``run.py --compare A.json B.json``: B against A, metric by metric.

For every (end-to-end metric, workload) pair the change from A to B is
set against that metric's regression bound from ``BENCHMARK.json``:

``ok``              B is no worse than A by more than the bound
``regressed``       B is worse than A by more than the bound
``improved``        B is better than A by more than the bound
``unresolved``      either side's own quartile spread exceeds the bound,
                    so the runs cannot tell (unless the quartile ranges
                    do not even overlap)
``exact-mismatch``  a count marked *exact* differs (any kind of row);
                    only meaningful when both files used the same seed

This is the tool for the A/A check (two sets of runs of one commit must
come out all ``ok`` with no ``exact-mismatch``) and for reviewing a
later change.  Exit status 1 on any ``regressed`` or ``exact-mismatch``.
"""

from __future__ import annotations

import json


def _rows(path: str) -> tuple[dict, dict]:
    data = json.loads(open(path).read())
    return data["environment"], {
        (r["workload"], r["kind"], r["name"]): r for r in data["rows"]}


def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / abs(row["value"]) if row["value"] else 0.0


def compare(spec: dict, path_a: str, path_b: str) -> int:
    env_a, a = _rows(path_a)
    env_b, b = _rows(path_b)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    same_seed = env_a["seed"] == env_b["seed"]
    if not same_seed:
        print(f"seeds differ ({env_a['seed']} vs {env_b['seed']}): "
              "exact counts are not compared")
    print(f"A {env_a['git_sha'][:12]} runs={env_a['runs']}   "
          f"B {env_b['git_sha'][:12]} runs={env_b['runs']}")
    tally: dict[str, int] = {}
    for key in sorted(a.keys() & b.keys()):
        workload, kind, name = key
        ra, rb = a[key], b[key]
        status = None
        if ra["exact"] and same_seed and ra["value"] != rb["value"]:
            status = "exact-mismatch"
        elif kind == "e2e":
            m = metrics[name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (rb["value"] - ra["value"]) / abs(ra["value"])
            apart = (rb["q1"] > ra["q3"] or rb["q3"] < ra["q1"])
            if max(_spread(ra), _spread(rb)) > m["bound"] and not apart:
                status = "unresolved"
            elif worse > m["bound"]:
                status = "regressed"
            elif worse < -m["bound"]:
                status = "improved"
            else:
                status = "ok"
        if status is None:
            continue
        tally[status] = tally.get(status, 0) + 1
        if kind == "e2e" or status == "exact-mismatch":
            delta = ((rb["value"] - ra["value"]) / abs(ra["value"]) * 100
                     if ra["value"] else float("nan"))
            bound = (f"bound {metrics[name]['bound'] * 100:g}%"
                     if kind == "e2e" else "")
            print(f"  {workload:11s} {name:40s} {ra['value']:>12.6g} -> "
                  f"{rb['value']:>12.6g} {ra['unit']:8s} {delta:+7.2f}%  "
                  f"spread A {_spread(ra) * 100:.1f}% B "
                  f"{_spread(rb) * 100:.1f}%  {bound:10s} {status}")
    for key in sorted(k for k in a.keys() ^ b.keys() if k[1] == "e2e"):
        print(f"  only in {'A' if key in a else 'B'}: {key}")
    print("  ".join(f"{k}: {v}" for k, v in sorted(tally.items())))
    return 1 if tally.get("regressed") or tally.get("exact-mismatch") else 0
