"""One case-study run as plain data: the ActorCheck recorder and the
``actorprof run`` worker.

:func:`run_audit_schedule` rebuilds a workload from its descriptor,
executes one ``(workload, schedule)`` pair, runs the invariant engine,
and flattens everything the auditor needs into a JSON-serializable dict.
Every audited run goes through it, inline at ``jobs=1`` and in a worker
otherwise, which is what makes ``actorprof check --jobs N``
byte-identical to ``--jobs 1``: the per-run values are computed by one
function, and the auditor merges them in schedule order.

:func:`run_app_point` is the body of ``actorprof run``: a plain run calls
it once in process and ``--sweep`` fans one call per point through
:mod:`repro.exec`, so both write the same archive for the same arguments.
"""

from __future__ import annotations

from pathlib import Path

from repro.check.invariants import run_invariants
from repro.check.policies import make_schedules
from repro.check.workloads import workload_from_descriptor
from repro.core.flags import ProfileFlags
from repro.core.profiler import ActorProf
from repro.core.store.registry import file_sha256
from repro.sim.errors import SimulationError
from repro.sim.faults import FaultPlan


def run_audit_schedule(
    out_dir: Path,
    *,
    workload: dict,
    schedule_index: int,
    schedules: int,
    tag: str,
    store_equivalence: bool = True,
    fault_plan: dict | None = None,
) -> dict:
    """:mod:`repro.exec` worker: one audited run from pure data.

    ``workload`` is a :meth:`~repro.check.workloads.Workload.descriptor`
    dict and ``fault_plan`` a :meth:`FaultPlan.to_dict` payload (or
    None); the schedule is ``make_schedules(seed, K)[index]``, as the
    auditor derives it.  The archive lands at ``out_dir/<tag>.aptrc``
    and is listed under ``"artifacts"`` so the result cache can carry it.
    """
    wl = workload_from_descriptor(workload)
    if not 0 <= schedule_index < schedules:
        raise ValueError(f"schedule index {schedule_index} outside "
                         f"[0, {schedules})")
    schedule = make_schedules(wl.seed, schedules)[schedule_index]
    plan = FaultPlan.from_dict(fault_plan) if fault_plan else None
    art = wl.run(schedule, Path(out_dir) / f"{tag}.aptrc", fault_plan=plan)
    violations = run_invariants(art, store_equivalence=store_equivalence)
    return {
        "schedule": schedule.index,
        "tag": tag,
        "description": schedule.describe(),
        "result_fingerprint": art.result_fingerprint,
        "logical_fingerprint": art.logical_fingerprint,
        "archive_sha256": art.archive_sha256,
        "violations": [{"invariant": v.invariant, "detail": v.detail}
                       for v in violations],
        "artifacts": [f"{tag}.aptrc"],
    }


def run_app_point(
    out_dir: Path,
    *,
    workload: dict,
    fault_plan: dict | None = None,
    archive_name: str | None = None,
) -> dict:
    """:mod:`repro.exec` worker: one profiled ``actorprof run``.

    ``workload`` is a histogram or triangle descriptor.  A run that dies
    under the fault plan is *salvaged* into a degraded archive when an
    archive name was given (exit code 3), otherwise it is a plain
    failure (exit code 1).  Returns a JSON-serializable outcome.
    """
    wl = workload_from_descriptor(workload)
    plan = (FaultPlan.from_dict(fault_plan).validate(wl.machine.n_pes)
            if fault_plan else None)
    schedule = make_schedules(wl.seed, 1)[0]
    outcome = {
        "app": wl.name,
        "params": {"nodes": wl.machine.nodes,
                   "pes_per_node": wl.machine.pes_per_node, "seed": wl.seed},
        "summary": "",
        "exit_code": 0,
        "error": None,
        "archive": None,
        "archive_sha256": None,
        "artifacts": [],
    }
    # the timeline is the LOD pyramid's source (`actorprof viz` zooms
    # what it recorded) and nothing else reads it, so it is recorded
    # exactly when an archive will be written
    profiler = ActorProf(ProfileFlags.all(
        enable_timeline=archive_name is not None))
    path = Path(out_dir) / archive_name if archive_name is not None else None
    try:
        art = wl.run(schedule, path, profiler=profiler, fault_plan=plan,
                     lod=True)
    except SimulationError as exc:
        # a failed point's params carry no problem size (the sweep
        # report digest pins them); its salvaged archive has the meta a
        # healthy run's has
        outcome["error"] = f"{type(exc).__name__}: {str(exc).splitlines()[0]}"
        outcome["exit_code"] = 1
        if path is None:
            return outcome
        try:
            path = profiler.salvage_archive(
                path, failure=exc, meta=wl.archive_meta(schedule, plan),
                lod=True)
        except (ValueError, OSError) as salvage_exc:
            outcome["error"] += f"\nsalvage failed: {salvage_exc}"
            return outcome
        outcome["exit_code"] = 3
    else:
        outcome["params"].update((k, getattr(wl, k)) for k in wl.problem)
        outcome["summary"] = wl.summary.format(**art.result)
    if path is not None:
        outcome.update(archive=archive_name, archive_sha256=file_sha256(path),
                       artifacts=[archive_name])
    return outcome
