"""``repro.exec`` — the parallel run engine.

ActorProf's analyses are built out of *independent, replayable* runs:
one ActorCheck schedule, one benchmark repeat, one parameter-sweep
point.  Each is fully described by a picklable :class:`RunSpec` (a
dotted-path worker function plus JSON-serializable kwargs), executes in
a spawned worker process, and leaves its artifacts (``.aptrc`` archives)
in a shared scratch directory.  :func:`execute` fans a list of specs out
across CPU cores and returns :class:`RunRecord` results in *spec order*
— a deterministic merge, so ``--jobs N`` output is byte-identical to
``--jobs 1``.

A :class:`ResultCache` keyed by the sha256 of each spec's key material
(the same fingerprint scheme the run registry stamps on archives) lets
unchanged ``(workload, seed, schedule)`` triples skip execution entirely
on re-audit.

A worker process that *dies* (segfault, ``os._exit``) is isolated: the
engine re-runs the survivors and maps the dead run to a per-run failure
record instead of losing the whole batch.
"""

from repro.exec.cache import ResultCache
from repro.exec.pool import execute, scratch
from repro.exec.runspec import RunRecord, RunSpec, cache_key_for, resolve_fn

__all__ = [
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "cache_key_for",
    "execute",
    "resolve_fn",
    "scratch",
]
