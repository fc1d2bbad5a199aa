"""The service's tasks: one query, diff or viz render each.

Plain functions of JSON-serializable keywords that return a
JSON-serializable dict, which is what the result cache stores.
:meth:`~repro.serve.arbiter.Arbiter.dispatch` calls them on a pool
thread.  All three go through the :mod:`repro.api` facade.
"""

from __future__ import annotations

import repro.api as api
from repro.core.store.archive import ArchiveError


def run_query_task(*, archive: str, section: str, query: str) -> dict:
    """Evaluate one normalized query over one archive section."""
    with api.open_run(archive) as run:
        if section not in run.sections:
            raise ArchiveError(
                f"archive has no {section!r} section "
                f"(have {', '.join(run.sections) or 'none'})")
        result = run.query(query, section=section)
    if isinstance(result, list):  # (group, amount) pairs → JSON arrays
        result = [[key, amount] for key, amount in result]
    return {"result": result}


def run_diff_task(*, archive_a: str, archive_b: str, label_a: str,
                  label_b: str) -> dict:
    """Render the side-by-side diff report for two archives."""
    report = api.diff(archive_a, archive_b, label_a=label_a,
                      label_b=label_b)
    return {"report": report}


def run_viz_task(*, archive: str, view: str, t0: int | None = None,
                 t1: int | None = None, res: int | None = None) -> dict:
    """Render one LOD viz view over a viewport; O(res) per call.

    Returns the SVG text plus the snapped viewport actually rendered
    (level, bucket width, window) so clients can drive drill-down
    refinement from the response alone.
    """
    with api.open_run(archive) as run:
        svg = run.viz(view, t0=t0, t1=t1, res=res)
        lod = run.lod()
        from repro.core.lod import DEFAULT_RES

        vp = lod.viewport(t0, t1, res if res is not None
                          else DEFAULT_RES[view])
        return {
            "svg": svg,
            "level": vp.level,
            "width": vp.width,
            "t0": vp.t0,
            "t1": vp.t1,
            "horizon": lod.horizon,
            "time_resolved": lod.info.time_resolved,
        }
