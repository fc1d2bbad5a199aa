"""Execute one workload under perturbed costs and summarize its totals.

:func:`run_whatif_point` is the what-if engine's :mod:`repro.exec`
worker: one replay point from JSON-serializable kwargs.  The scale
factors are *in* the kwargs, so two points that differ only in
``--scale`` hash to different result-cache keys.
"""

from __future__ import annotations

from copy import copy
from dataclasses import replace
from pathlib import Path

from repro.check.policies import make_schedules
from repro.check.workloads import (
    RunArtifacts,
    Workload,
    workload_from_descriptor,
)
from repro.sim.faults import FaultPlan
from repro.whatif.dag import DagRecorder
from repro.whatif.perturb import Scales, WhatifProfiler

#: Mirrors the ActorCheck auditor: a what-if comparison needs complete
#: runs on both sides, so crash plans are rejected eagerly.
CRASH_PLAN_ERROR = (
    "what-if analysis needs complete runs; fault plans with PE crashes "
    "cannot be replayed (drop/delay/duplicate/slow are fine)"
)


def reject_crash_plans(plan: FaultPlan | None) -> None:
    if plan is not None and getattr(plan, "crashes", ()):
        raise ValueError(CRASH_PLAN_ERROR)


def execute_point(workload: Workload, scales: Scales, *,
                  archive_path: Path,
                  fault_plan: FaultPlan | None = None,
                  recorder: DagRecorder | None = None) -> RunArtifacts:
    """Run ``workload`` once under ``scales`` on its default schedule.

    Compute scales ride on a :class:`WhatifProfiler`; network/collective
    scales become a perturbed :class:`~repro.machine.cost.CostModel`;
    buffer scales resize the conveyor config before the run.  A neutral
    ``scales`` takes the exact same code path as a plain profiled run and
    produces a byte-identical archive (any other names its factors there).
    """
    reject_crash_plans(fault_plan)
    schedule = make_schedules(workload.seed, 1)[0]
    buffer_items = scales.buffer_items(workload.base_config.buffer_items)
    if buffer_items != workload.base_config.buffer_items:
        workload = copy(workload)  # the caller's workload keeps its size
        workload.base_config = replace(
            workload.base_config, buffer_items=buffer_items
        )
    profiler = WhatifProfiler(scales=scales, recorder=recorder)
    return workload.run(schedule, archive_path, profiler=profiler,
                        cost=scales.scaled_cost(), fault_plan=fault_plan,
                        scales=None if scales.neutral else scales.to_dict())


def run_totals(art: RunArtifacts) -> dict[str, int]:
    """The T_* summary the what-if report diffs across points.

    ``t_total`` is the run's virtual makespan (max final PE clock) — the
    quantity the DAG analyzer predicts; ``finish_max`` is the slowest
    PE's outermost finish span; the region sums come straight from the
    TCOMM profile (``t_comm`` derived, as always).
    """
    overall = art.profiler.overall
    assert overall is not None
    return {
        "t_total": int(max(art.clocks, default=0)),
        "finish_max": int(overall.t_total.max()),
        "t_main": int(overall.t_main.sum()),
        "t_proc": int(overall.t_proc.sum()),
        "t_comm": int(overall.t_comm().sum()),
    }


def run_whatif_point(out_dir: Path, *, workload: dict, scales: dict,
                     fault_plan: dict | None = None,
                     tag: str = "point") -> dict:
    """Replay one workload under one scale bundle; return its totals.

    ``workload`` is a :meth:`~repro.check.workloads.Workload.descriptor`
    dict, ``scales`` a ``{target: factor}`` mapping, ``fault_plan`` an
    optional :meth:`FaultPlan.to_dict` payload.  The traces land in
    ``out_dir/<tag>.aptrc``.
    """
    sc = Scales(scales)
    archive = f"{tag}.aptrc"
    art = execute_point(
        workload_from_descriptor(workload), sc,
        archive_path=Path(out_dir) / archive,
        fault_plan=FaultPlan.from_dict(fault_plan) if fault_plan else None)
    return {
        "scales": sc.to_dict(),
        "totals": run_totals(art),
        "result_fingerprint": art.result_fingerprint,
        "archive_sha256": art.archive_sha256,
        "artifacts": [archive],
    }
