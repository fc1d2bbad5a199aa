"""The process pool: fan one worker function's points across CPU cores.

A worker is a *module-level* function (a spawned child imports it by
its pickled module and name — closures and lambdas cannot make the
trip) with this contract::

    def fn(out_dir: Path, **kwargs) -> dict

It writes any artifact files into ``out_dir`` under names unique to its
point (conventionally derived from the point's tag), lists them under
the ``"artifacts"`` key of its returned dict (paths relative to
``out_dir``), and returns only JSON-serializable data — the value is
pickled back to the parent and may be persisted by the result cache.

Design constraints, in priority order:

1. **Byte-identical merges.**  Records come back in point order, never
   completion order, so ``--jobs N`` equals ``--jobs 1`` exactly.
2. **Crash isolation.**  A worker that *dies* (segfault, ``os._exit``,
   OOM-kill) breaks a ``ProcessPoolExecutor``; the engine responds by
   re-running the not-yet-finished points in a fresh pool, and when a
   pool breaks without completing anything, the first remaining point
   is probed alone in a single-worker pool — if it kills that one too,
   it is marked as a per-run failure record and the batch moves on.
   Every run is deterministic and independent, so re-running a
   survivor is always safe.
3. **Spawned workers.**  The ``spawn`` start method (fork is unsafe with
   threads and non-portable) means children import ``repro`` afresh;
   the engine injects the package's source root into ``PYTHONPATH``
   around pool creation so workers resolve it without installation.

Exceptions *raised* by a worker function never break the pool: the
worker wrapper catches them and returns a failure record, keeping the
failure attributable to its point.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Callable, Iterator, Sequence

import repro
from repro.exec.cache import ResultCache

#: Source root that spawned workers need on ``sys.path`` to import repro.
_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: One point as the pool passes it around: list position, tag, kwargs.
_Point = tuple[int, str, dict]


@dataclass(frozen=True)
class RunRecord:
    """What one point produced: a value, a cached value, or a failure."""

    tag: str
    ok: bool
    #: The worker function's return value (``None`` on failure).
    value: Any = None
    #: ``"ExcType: message"`` for an exception, or a description of a
    #: worker-process death, when ``ok`` is False.
    error: str | None = None
    #: True when the value was served from the result cache.
    cached: bool = False


def cache_key_for(fn: Callable[..., Any], kwargs: dict) -> str:
    """The sha256 cache key of one run of ``fn``.

    Canonical JSON (sorted keys, no whitespace) over the function's
    ``module:qualname`` and its kwargs — anything that changes the run's
    inputs changes the key, anything that doesn't (scratch paths, job
    counts) must stay out of ``kwargs``.
    """
    try:
        blob = json.dumps({"fn": f"{fn.__module__}:{fn.__qualname__}",
                           "kwargs": kwargs},
                          sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ValueError(
            f"worker kwargs must be JSON-serializable to be cacheable: {exc}"
        ) from None
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _worker(fn: Callable[..., Any], tag: str, kwargs: dict,
            out_dir: str) -> RunRecord:
    """Run one point; exceptions become failure records, never pool breaks."""
    try:
        return RunRecord(tag, True, fn(Path(out_dir), **kwargs))
    except BaseException as exc:  # noqa: BLE001 - attribute, don't propagate
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return RunRecord(tag, False, error=f"{type(exc).__name__}: {exc}")


@contextmanager
def _spawn_environment() -> Iterator[None]:
    """Make ``spawn`` children viable regardless of the parent's setup.

    Two parent-side quirks can kill every worker before it runs a point:

    * ``repro`` imported from a source tree that is not on the child's
      default ``sys.path`` — fixed by prepending the source root to
      ``PYTHONPATH`` (children inherit the environment at spawn time);
    * spawn's ``prepare()`` re-executes the parent's ``__main__`` in
      every child: a plain driver script calling ``audit(jobs=4)``
      without a ``__main__`` guard would fork-bomb itself, and a REPL /
      ``python -`` parent (``__file__ = '<stdin>'``) dies outright.
      Children import each worker by module and name from installed
      modules and never need the parent's ``__main__``, so when
      ``__main__`` is a plain script (``__spec__ is None``) its
      ``__file__`` is hidden for the duration of the pool.

    Spawning happens lazily at submit time, so this context must wrap
    the submit loop, not just executor construction.
    """
    import sys

    old_path = os.environ.get("PYTHONPATH")
    parts = [p for p in (old_path or "").split(os.pathsep) if p]
    if _SRC_ROOT not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([_SRC_ROOT, *parts])

    main_module = sys.modules.get("__main__")
    main_file = getattr(main_module, "__file__", None)
    hide_main = (main_module is not None and main_file is not None
                 and getattr(main_module, "__spec__", None) is None)
    if hide_main:
        del main_module.__file__
    try:
        yield
    finally:
        if old_path is None:
            os.environ.pop("PYTHONPATH", None)
        elif _SRC_ROOT not in parts:
            os.environ["PYTHONPATH"] = old_path
        if hide_main:
            main_module.__file__ = main_file


def _pool_pass(fn: Callable[..., Any], points: Sequence[_Point], jobs: int,
               scratch_dir: Path) -> dict[int, RunRecord]:
    """One pool lifetime; returns whatever completed before any break."""
    done: dict[int, RunRecord] = {}
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(points)),
                               mp_context=get_context("spawn"))
    try:
        with _spawn_environment():
            futures = [(i, tag, pool.submit(_worker, fn, tag, kwargs,
                                            str(scratch_dir)))
                       for i, tag, kwargs in points]
            for i, tag, future in futures:
                try:
                    done[i] = future.result()
                except BrokenProcessPool:
                    continue  # worker died; survivors rerun next pass
                except Exception as exc:  # e.g. result unpicklable
                    done[i] = RunRecord(tag, False,
                                        error=f"{type(exc).__name__}: {exc}")
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return done


def _run_pooled(fn: Callable[..., Any], points: Sequence[_Point], jobs: int,
                scratch_dir: Path) -> dict[int, RunRecord]:
    """Run all points, isolating worker deaths to per-run failure records."""
    records: dict[int, RunRecord] = {}
    remaining = list(points)
    while remaining:
        done = _pool_pass(fn, remaining, jobs, scratch_dir)
        records.update(done)
        if not done:
            # The pool broke before finishing anything: probe the first
            # point alone so the killer is identified, not retried forever.
            i, tag, _ = probe = remaining[0]
            solo = _pool_pass(fn, [probe], 1, scratch_dir)
            records[i] = solo.get(i) or RunRecord(
                tag, False,
                error="worker process died before returning a result "
                      "(crash isolated; remaining runs unaffected)",
            )
        remaining = [p for p in remaining if p[0] not in records]
    return records


@contextmanager
def scratch(path: str | Path | None, prefix: str) -> Iterator[Path]:
    """Yield ``path`` (created, kept) or a temp directory deleted on exit."""
    if path is not None:
        Path(path).mkdir(parents=True, exist_ok=True)
        yield Path(path)
    else:
        with TemporaryDirectory(prefix=prefix) as tmp:
            yield Path(tmp)


def execute(
    fn: Callable[..., Any],
    points: Sequence[tuple[str, dict]],
    *,
    jobs: int = 1,
    scratch_dir: str | Path | None = None,
    cache: ResultCache | str | Path | None = None,
) -> list[RunRecord]:
    """Run ``fn(out_dir, **kwargs)`` for every ``(tag, kwargs)`` point;
    return one record per point, in point order.

    Parameters
    ----------
    fn:
        The worker: a module-level function (see the module docstring).
    points:
        ``(tag, kwargs)`` pairs.  The tag is a human-readable label
        (``"s3"``, ``"seed7"``) copied onto the record; the kwargs must
        pickle, and with a cache they are the key material.
    jobs:
        Worker process count.  ``jobs <= 1`` runs every point inline in
        this process (no spawn overhead; caching still applies).
    scratch_dir:
        Shared directory the workers write artifacts into.  A temporary
        directory is used — and deleted — when omitted, so pass one
        whenever artifact files must outlive the call.
    cache:
        A :class:`ResultCache` (or a directory path for one).  Points
        whose :func:`cache_key_for` is stored are served from it, and
        successful runs are stored into it.
    """
    points = list(points)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(Path(cache))

    with scratch(scratch_dir, "actorprof-exec-") as scratch_dir:
        records: dict[int, RunRecord] = {}
        keys: dict[int, str] = {}
        pending: list[_Point] = []
        for i, (tag, kwargs) in enumerate(points):
            if cache is not None:
                keys[i] = cache_key_for(fn, kwargs)
                value = cache.get(keys[i], scratch_dir)
                if value is not None:
                    records[i] = RunRecord(tag, True, value, cached=True)
                    continue
            pending.append((i, tag, kwargs))

        if jobs == 1:
            records.update((i, _worker(fn, tag, kwargs, str(scratch_dir)))
                           for i, tag, kwargs in pending)
        else:
            records.update(_run_pooled(fn, pending, jobs, scratch_dir))

        if cache is not None:
            for i, _, _ in pending:
                rec = records[i]
                if rec.ok and isinstance(rec.value, dict):
                    cache.put(keys[i], rec.value, scratch_dir)
        return [records[i] for i in range(len(points))]
