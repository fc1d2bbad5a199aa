"""The what-if engine: baseline → DAG analysis → replayed speedup points.

:func:`_run_whatif` runs the workload once in-process with the DAG
recorder attached, builds the happens-before DAG, extracts the critical
path and a ranked set of *predicted* virtual speedups (each plausible
target sped up by ``candidate_factor``), then fans any requested replay
points out through :func:`repro.exec.execute` and diffs their measured
T_* totals against the baseline.

The report dict is deliberately free of wall-clock times, job counts and
scratch paths: its JSON serialization must be byte-identical whether the
sweep ran serially or on N workers, and across repeated runs.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from repro.check.workloads import Workload
from repro.exec import ResultCache, execute, scratch
from repro.machine.cost import CostModel
from repro.sim.faults import FaultPlan
from repro.whatif.dag import DagRecorder, EventDag, build_dag
from repro.whatif.perturb import Scales, parse_scale
from repro.whatif.replay import (
    execute_point,
    reject_crash_plans,
    run_totals,
    run_whatif_point,
)

#: How many critical-path transfer edges the report ranks.
TOP_EDGES = 5


def parse_sweep(text: str) -> tuple[str, list[float]]:
    """Parse one ``--sweep TARGET=F1,F2,...`` spec into its factor axis."""
    target, sep, values = text.partition("=")
    if not sep or not values.strip():
        raise ValueError(
            f"bad sweep {text!r}: expected TARGET=FACTOR1,FACTOR2,..."
        )
    factors = []
    for item in values.split(","):
        _, factor = parse_scale(f"{target}={item}")
        factors.append(factor)
    return target.strip().lower(), factors


def _pct(new: float, old: float) -> float:
    return round(100.0 * (new - old) / old, 2) if old else 0.0


def _analyze(dag: EventDag, baseline_total: int,
             candidate_factor: float) -> tuple[dict, dict[str, Scales]]:
    """Critical-path summary + ranked predicted candidates."""
    path = dag.critical_path()
    by_category: dict[str, int] = {}
    by_mailbox: dict[int, int] = {}
    by_pe: dict[int, int] = {}
    edge_weights: dict[tuple[int, int], dict[str, int]] = {}
    for edge in path:
        if edge.kind == "net":
            key = (edge.src_pe, edge.pe)
            agg = edge_weights.setdefault(key, {"cycles": 0, "count": 0})
            agg["cycles"] += edge.weight
            agg["count"] += 1
            by_category["net"] = by_category.get("net", 0) + edge.weight
        elif edge.kind == "coll":
            by_category["collective"] = (
                by_category.get("collective", 0) + edge.weight
            )
        else:
            by_category[edge.category] = (
                by_category.get(edge.category, 0) + edge.weight
            )
            if edge.category == "PROC" and edge.mailbox >= 0:
                by_mailbox[edge.mailbox] = (
                    by_mailbox.get(edge.mailbox, 0) + edge.weight
                )
            if edge.pe >= 0 and edge.category != "WAIT":
                by_pe[edge.pe] = by_pe.get(edge.pe, 0) + edge.weight

    def ranked(d: dict) -> list[dict]:
        return [
            {"target": str(k), "cycles": v,
             "share_pct": _share(v, baseline_total)}
            for k, v in sorted(d.items(), key=lambda kv: (-kv[1], str(kv[0])))
        ]

    top_edges = [
        {"src_pe": src, "dst_pe": dst, "cycles": agg["cycles"],
         "transfers": agg["count"]}
        for (src, dst), agg in sorted(
            edge_weights.items(), key=lambda kv: (-kv[1]["cycles"], kv[0])
        )[:TOP_EDGES]
    ]

    work = dag.work()
    cpu_work = dag.cpu_work()
    span = sum(e.weight for e in path)
    analysis = {
        "t_total": baseline_total,
        "work": work,
        "cpu_work": cpu_work,
        "span": span,
        "avg_parallelism": round(work / span, 4) if span else 0.0,
        "prediction_exact": round(dag.predict_total()) == baseline_total,
        "region_totals": dag.region_totals(),
        "mailbox_totals": {
            str(mb): c for mb, c in dag.mailbox_totals().items()
        },
        "parallelism_profile": dag.parallelism_profile(),
        "critical_path": {
            "by_category": ranked(by_category),
            "by_mailbox": [
                {"mailbox": mb, "cycles": c}
                for mb, c in sorted(by_mailbox.items(),
                                    key=lambda kv: (-kv[1], kv[0]))
            ],
            "by_pe": [
                {"pe": pe, "cycles": c}
                for pe, c in sorted(by_pe.items(),
                                    key=lambda kv: (-kv[1], kv[0]))
            ],
            "top_edges": top_edges,
        },
    }
    candidates = _candidate_scales(dag, candidate_factor)
    return analysis, candidates


def _share(cycles: int, total: int) -> float:
    return round(100.0 * cycles / total, 2) if total else 0.0


def _candidate_scales(dag: EventDag,
                      factor: float) -> dict[str, Scales]:
    """The default prediction set: every plausible single-target scale."""
    targets = ["main", "proc", "comm", "net.latency", "net.bytes"]
    if dag.collectives:
        targets.append("collective")
    targets.extend(f"mailbox:{mb}" for mb in dag.mailbox_totals())
    return {t: Scales({t: factor}) for t in targets}


def _predictions(dag: EventDag, baseline_total: int,
                 candidates: dict[str, Scales]) -> list[dict]:
    rows = []
    for target, scales in candidates.items():
        predicted = dag.predict_total(scales)
        rows.append({
            "target": target,
            # usually candidate_factor, but fault-plan slow-PE candidates
            # carry 1/multiplier — report what was actually predicted
            "factor": scales.factor(target),
            "predicted_t_total": int(round(predicted)),
            "predicted_speedup": round(
                baseline_total / predicted, 4) if predicted else 0.0,
            "predicted_delta_pct": _pct(predicted, baseline_total),
        })
    rows.sort(key=lambda r: (r["predicted_t_total"], r["target"]))
    return rows


def _run_whatif(workload: Workload, *,
                scale_sets: list[Scales] | None = None,
                sweeps: list[tuple[str, list[float]]] | None = None,
                jobs: int = 1,
                cache: ResultCache | str | Path | None = None,
                out_dir: str | Path | None = None,
                fault_plan: FaultPlan | None = None,
                candidate_factor: float = 0.5,
                dag_out: list | None = None) -> dict:
    """Full what-if analysis of one workload; returns the report dict.

    ``scale_sets`` are explicit replay points (one per ``--scale``
    group); ``sweeps`` contribute the cartesian product of their factor
    axes as additional points.  ``dag_out``, when given, receives the
    built :class:`EventDag` (for tests and programmatic callers).

    The supported entry points are :func:`repro.api.whatif` and
    :meth:`repro.api.Run.whatif`.
    """
    reject_crash_plans(fault_plan)
    with scratch(out_dir, "actorprof-whatif-") as out_dir:
        # -- baseline, in-process, with the DAG recorder attached -------
        recorder = DagRecorder()
        baseline_art = execute_point(
            workload, Scales(), archive_path=out_dir / "baseline.aptrc",
            fault_plan=fault_plan, recorder=recorder,
        )
        baseline = run_totals(baseline_art)
        dag = build_dag(
            n_pes=workload.machine.n_pes,
            clocks=baseline_art.clocks,
            timeline=baseline_art.profiler.timeline,
            recorder=recorder,
            cost=CostModel(),
        )
        if dag_out is not None:
            dag_out.append(dag)

        analysis, candidates = _analyze(
            dag, baseline["t_total"], candidate_factor
        )
        # Fault-plan slow PEs are natural what-if targets: "what if the
        # slow PE ran at full speed?"
        if fault_plan is not None:
            for slow in getattr(fault_plan, "slow_pes", ()):
                if slow.multiplier > 0:
                    target = f"pe:{slow.pe}"
                    candidates[target] = Scales(
                        {target: 1.0 / slow.multiplier}
                    )
        predictions = _predictions(dag, baseline["t_total"], candidates)

        # -- replay points ----------------------------------------------
        points = list(scale_sets or [])
        for combo in itertools.product(
            *[[(t, f) for f in fs] for t, fs in (sweeps or [])]
        ):
            if combo:
                points.append(Scales(dict(combo)))
        descriptor = workload.descriptor()
        plan_dict = fault_plan.to_dict() if fault_plan is not None else None
        runs = []
        for i, sc in enumerate(points):
            tag = "p" + "-".join(
                f"{t.replace(':', '_').replace('.', '_')}{f:g}"
                for t, f in sc.to_dict().items()
            ) if not sc.neutral else f"p{i}-neutral"
            kwargs = {"workload": descriptor, "scales": sc.to_dict(),
                      "tag": f"{i}-{tag}"}
            if plan_dict is not None:
                kwargs["fault_plan"] = plan_dict
            runs.append((tag, kwargs))
        records = execute(run_whatif_point, runs, jobs=jobs,
                          scratch_dir=out_dir, cache=cache)

        point_rows = []
        failures = 0
        for rec, sc in zip(records, points):
            row: dict = {"tag": rec.tag, "scales": sc.to_dict()}
            if not rec.ok:
                failures += 1
                row["error"] = rec.error
                point_rows.append(row)
                continue
            totals = rec.value["totals"]
            # Sorted keys: cache restores round-trip through JSON, which
            # may reorder dicts — the report must not depend on that.
            row["totals"] = {k: totals[k] for k in sorted(totals)}
            row["delta"] = {
                k: {
                    "cycles": totals[k] - baseline[k],
                    "pct": _pct(totals[k], baseline[k]),
                }
                for k in ("t_total", "t_main", "t_proc", "t_comm")
            }
            row["speedup"] = round(
                baseline["t_total"] / totals["t_total"], 4
            ) if totals["t_total"] else 0.0
            row["result_matches_baseline"] = (
                rec.value["result_fingerprint"]
                == baseline_art.result_fingerprint
            )
            if not sc.replay_only:
                predicted = dag.predict_total(sc)
                row["predicted_t_total"] = int(round(predicted))
                row["prediction_error_pct"] = _pct(
                    predicted, totals["t_total"]
                )
            point_rows.append(row)

        return {
            "workload_name": workload.name,
            "workload": descriptor,
            "fault_plan": plan_dict,
            "candidate_factor": candidate_factor,
            "baseline": baseline,
            "analysis": analysis,
            "predictions": predictions,
            "points": point_rows,
            "exit_code": 6 if failures else 0,
        }
