#!/usr/bin/env python3
"""Gate for CI: the smoke benchmark still produces what BENCHMARK.json
promises.

    python3 benchmarks/e2e/selftest.py

Runs ``run.py --smoke --trace --check`` (every workload at tiny sizes,
< 20 s in all) and asserts that every workload ``run.py`` knows and
every metric named in ``BENCHMARK.json`` appears in the output with its
unit, that names use only letters, digits, ``_``, ``.`` and ``-``, that
no value is NaN or infinite, that no oracle failed, that the traced pass
left a loadable Chrome trace per workload, and that README.md mentions
every name.
Deliberately not a pytest module: tier-1 does not collect it.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXTRA_WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def main() -> int:
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    readme = (HERE / "README.md").read_text()
    (HERE / "output").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "output",
                                     prefix="selftest-") as tmp:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                        "--trace", "--check", "--outdir", tmp], check=True)
        results = json.loads((Path(tmp) / "results_smoke.json").read_text())
        for name in workloads:
            trace = json.loads(
                (Path(tmp) / f"trace_{name}.json").read_text())
            assert trace["traceEvents"], f"empty trace for {name}"
    rows = results["rows"]
    units = {}
    for r in rows:
        assert NAME.match(r["name"]), f"bad metric name {r['name']!r}"
        assert math.isfinite(r["value"]), f"{r['name']} is {r['value']}"
        assert r["unit"], f"{r['name']} has no unit"
        units.setdefault((r["kind"], r["name"]), r["unit"])
    seen_workloads = {r["workload"] for r in rows}
    for name in workloads:
        assert NAME.match(name), f"bad workload name {name!r}"
        assert name in seen_workloads, f"no rows for {name}"
        assert f"`{name}`" in readme, f"README lacks {name}"
        for m in spec["end_to_end"]:  # every workload reports all of them
            assert any(r["workload"] == name and r["kind"] == "e2e"
                       and r["name"] == m["name"] for r in rows), \
                f"{name} lacks {m['name']}"
    for kind, metrics in (("e2e", spec["end_to_end"]),
                          ("layer", spec["per_layer"])):
        for m in metrics:
            assert units.get((kind, m["name"])) == m["unit"], \
                f"{m['name']}: {units.get((kind, m['name']))!r} in the " \
                f"output, {m['unit']!r} in BENCHMARK.json"
            assert f"`{m['name']}`" in readme, f"README lacks {m['name']}"
    extra = {name for _, name in units} - {
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert not extra, f"output has metrics BENCHMARK.json lacks: {extra}"
    assert results["operations"]["failed"] == 0, results["operations"]
    print(f"selftest ok: {len(workloads)} workloads, "
          f"{len(units)} metrics, {results['operations']['attempted']} "
          "operations checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
