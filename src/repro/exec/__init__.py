"""``repro.exec`` — the parallel run engine.

ActorProf's analyses are built out of *independent, replayable* runs:
one ActorCheck schedule, one what-if replay point, one parameter-sweep
point.  Each is one call of a module-level worker function with
JSON-serializable kwargs; it executes in a spawned worker process and
leaves its artifacts (``.aptrc`` archives) in a shared scratch
directory.  :func:`execute` fans a function's ``(tag, kwargs)`` points
out across CPU cores and returns :class:`RunRecord` results in *point
order* — a deterministic merge, so ``--jobs N`` output is
byte-identical to ``--jobs 1``.

A :class:`ResultCache` keyed by the sha256 of each run's
``{fn, kwargs}`` (the same fingerprint scheme the run registry stamps on
archives) lets unchanged ``(workload, seed, schedule)`` triples skip
execution entirely on re-audit.

A worker process that *dies* (segfault, ``os._exit``) is isolated: the
engine re-runs the survivors and maps the dead run to a per-run failure
record instead of losing the whole batch.
"""

from repro.exec.cache import ResultCache
from repro.exec.pool import RunRecord, cache_key_for, execute, scratch

__all__ = [
    "ResultCache",
    "RunRecord",
    "cache_key_for",
    "execute",
    "scratch",
]
