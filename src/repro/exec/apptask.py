"""The body of ``actorprof run``: one profiled app execution.

A plain ``actorprof run APP`` calls :func:`run_app_point` once in
process; ``--sweep`` fans one call per point through :mod:`repro.exec`
— so both write the same archive for the same arguments.  The function
is engine-friendly: module-level, JSON-serializable inputs and outputs,
artifacts dropped in ``out_dir``.  A run that dies under a fault plan is
*salvaged* into a degraded archive when an archive name was requested
(exit code 3), otherwise it is a plain failure (exit code 1).
"""

from __future__ import annotations

import contextlib
from pathlib import Path


def run_app_point(
    out_dir: Path,
    *,
    app: str,
    nodes: int = 2,
    pes_per_node: int = 2,
    updates: int = 2000,
    table_size: int = 512,
    scale: int = 8,
    distribution: str = "cyclic",
    seed: int = 0,
    fault_plan: dict | None = None,
    archive_name: str | None = None,
) -> dict:
    """Run one built-in app once; return a JSON-serializable outcome."""
    from repro.core.flags import ProfileFlags
    from repro.core.profiler import ActorProf
    from repro.exec.cache import file_sha256
    from repro.machine.spec import MachineSpec
    from repro.sim.errors import SimulationError
    from repro.sim.faults import FaultPlan, use_plan

    if app not in ("histogram", "triangle"):
        raise ValueError(f"unknown app {app!r}; want histogram or triangle")
    spec = MachineSpec(nodes, pes_per_node)
    plan = FaultPlan.from_dict(fault_plan) if fault_plan else None
    if plan is not None:
        plan.validate(spec.n_pes)

    params = {"nodes": nodes, "pes_per_node": pes_per_node, "seed": seed}
    # the timeline is the LOD pyramid's source (`actorprof viz` zooms
    # what it recorded) and nothing else reads it, so it is recorded
    # exactly when an archive will be written
    profiler = ActorProf(ProfileFlags.all(
        enable_timeline=archive_name is not None))
    meta: dict = {"app": app, "seed": seed}
    if plan is not None:
        meta["fault_plan"] = plan.to_dict()
    scope = use_plan(plan) if plan is not None else contextlib.nullcontext()
    failure: BaseException | None = None
    summary = ""
    try:
        with scope:
            if app == "histogram":
                from repro.apps.histogram import histogram

                res = histogram(updates, table_size, machine=spec,
                                profiler=profiler, seed=seed)
                summary = f"histogram: {res.total_updates:,} updates delivered"
                params.update(updates=updates, table_size=table_size)
                meta.update(updates=updates, table_size=table_size)
            else:
                from repro.apps.triangle import count_triangles
                from repro.experiments.casestudy import case_study_graph

                graph = case_study_graph(scale, seed=seed)
                res = count_triangles(graph, spec, distribution,
                                      profiler=profiler, seed=seed)
                summary = f"triangle: {res.triangles:,} triangles"
                params.update(scale=scale, distribution=distribution)
                meta.update(scale=scale, distribution=distribution)
    except SimulationError as exc:
        failure = exc

    outcome = {
        "app": app,
        "params": params,
        "summary": summary,
        "exit_code": 0,
        "error": None,
        "archive": None,
        "archive_sha256": None,
        "artifacts": [],
    }
    out_dir = Path(out_dir)
    if failure is None:
        if archive_name is not None:
            path = profiler.export_archive(out_dir / archive_name, meta=meta,
                                           lod=True)
            outcome.update(archive=archive_name,
                           archive_sha256=file_sha256(path),
                           artifacts=[archive_name])
        return outcome

    first_line = str(failure).splitlines()[0]
    outcome["error"] = f"{type(failure).__name__}: {first_line}"
    outcome["summary"] = ""
    if archive_name is None:
        outcome["exit_code"] = 1
        return outcome
    try:
        path = profiler.salvage_archive(out_dir / archive_name,
                                        failure=failure, meta=meta, lod=True)
    except (ValueError, OSError) as exc:
        outcome["error"] += f"\nsalvage failed: {exc}"
        outcome["exit_code"] = 1
        return outcome
    outcome.update(exit_code=3, archive=archive_name,
                   archive_sha256=file_sha256(path), artifacts=[archive_name])
    return outcome
