"""The process pool: fan :class:`RunSpec` lists across CPU cores.

Design constraints, in priority order:

1. **Byte-identical merges.**  Results come back sorted by spec order,
   never completion order, so ``--jobs N`` equals ``--jobs 1`` exactly.
2. **Crash isolation.**  A worker that *dies* (segfault, ``os._exit``,
   OOM-kill) breaks a ``ProcessPoolExecutor``; the engine responds by
   re-running the not-yet-finished specs in a fresh pool, and when a
   pool breaks without completing anything, the first remaining spec is
   probed alone in a single-worker pool — if it kills that one too, it
   is marked as a per-run failure record and the batch moves on.  Every
   run is deterministic and independent, so re-running a survivor is
   always safe.
3. **Spawned workers.**  The ``spawn`` start method (fork is unsafe with
   threads and non-portable) means children import ``repro`` afresh;
   the engine injects the package's source root into ``PYTHONPATH``
   around pool creation so workers resolve it without installation.

Exceptions *raised* by a worker function never break the pool: the
worker wrapper catches them and returns a failure record, keeping the
failure attributable to its spec.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import get_context
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Iterator, Sequence

import repro
from repro.exec.cache import ResultCache
from repro.exec.runspec import RunRecord, RunSpec, resolve_fn

#: Source root that spawned workers need on ``sys.path`` to import repro.
_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _worker(spec: RunSpec, out_dir: str) -> RunRecord:
    """Run one spec; exceptions become failure records, never pool breaks."""
    try:
        fn = resolve_fn(spec.fn)
        value = fn(Path(out_dir), **spec.kwargs)
        return RunRecord(index=spec.index, tag=spec.tag, ok=True, value=value)
    except BaseException as exc:  # noqa: BLE001 - attribute, don't propagate
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return RunRecord(index=spec.index, tag=spec.tag, ok=False,
                         error=f"{type(exc).__name__}: {exc}")


@contextmanager
def _spawn_environment() -> Iterator[None]:
    """Make ``spawn`` children viable regardless of the parent's setup.

    Two parent-side quirks can kill every worker before it runs a spec:

    * ``repro`` imported from a source tree that is not on the child's
      default ``sys.path`` — fixed by prepending the source root to
      ``PYTHONPATH`` (children inherit the environment at spawn time);
    * spawn's ``prepare()`` re-executes the parent's ``__main__`` in
      every child: a plain driver script calling ``audit(jobs=4)``
      without a ``__main__`` guard would fork-bomb itself, and a REPL /
      ``python -`` parent (``__file__ = '<stdin>'``) dies outright.
      Workers resolve their functions by dotted path from installed
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


def _pool_pass(specs: Sequence[RunSpec], jobs: int,
               scratch_dir: Path) -> dict[int, RunRecord]:
    """One pool lifetime; returns whatever completed before any break."""
    done: dict[int, RunRecord] = {}
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(specs)),
                               mp_context=get_context("spawn"))
    try:
        with _spawn_environment():
            futures = [(pool.submit(_worker, spec, str(scratch_dir)), spec)
                       for spec in specs]
            for future, spec in futures:
                try:
                    done[spec.index] = future.result()
                except BrokenProcessPool:
                    continue  # worker died; survivors rerun next pass
                except Exception as exc:  # e.g. result unpicklable
                    done[spec.index] = RunRecord(
                        index=spec.index, tag=spec.tag, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return done


def _run_pooled(specs: Sequence[RunSpec], jobs: int,
                scratch_dir: Path) -> dict[int, RunRecord]:
    """Run all specs, isolating worker deaths to per-run failure records."""
    records: dict[int, RunRecord] = {}
    remaining = list(specs)
    while remaining:
        done = _pool_pass(remaining, jobs, scratch_dir)
        records.update(done)
        if not done:
            # The pool broke before finishing anything: probe the first
            # spec alone so the killer is identified, not retried forever.
            probe = remaining[0]
            solo = _pool_pass([probe], 1, scratch_dir)
            records[probe.index] = solo.get(probe.index) or RunRecord(
                index=probe.index, tag=probe.tag, ok=False,
                error="worker process died before returning a result "
                      "(crash isolated; remaining runs unaffected)",
            )
        remaining = [s for s in remaining if s.index not in records]
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
    specs: Sequence[RunSpec],
    jobs: int = 1,
    scratch_dir: str | Path | None = None,
    cache: ResultCache | str | Path | None = None,
) -> list[RunRecord]:
    """Execute every spec; return records in spec order.

    Parameters
    ----------
    specs:
        The units of work.  Indices must be unique — they define the
        deterministic merge order of the returned list.
    jobs:
        Worker process count.  ``jobs <= 1`` runs every spec inline in
        this process (no spawn overhead; caching still applies).
    scratch_dir:
        Shared directory the workers write artifacts into.  A temporary
        directory is used — and deleted — when omitted, so pass one
        whenever artifact files must outlive the call.
    cache:
        A :class:`ResultCache` (or a directory path for one).  Specs
        with a ``cache_key`` are served from it when possible and
        stored into it after a successful run.
    """
    specs = list(specs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    indices = [s.index for s in specs]
    if len(set(indices)) != len(indices):
        raise ValueError("RunSpec indices must be unique within one batch")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(Path(cache))

    with scratch(scratch_dir, "actorprof-exec-") as scratch_dir:
        records: dict[int, RunRecord] = {}
        pending: list[RunSpec] = []
        for spec in specs:
            if cache is not None and spec.cache_key:
                value = cache.get(spec.cache_key, scratch_dir)
                if value is not None:
                    records[spec.index] = RunRecord(
                        index=spec.index, tag=spec.tag, ok=True,
                        value=value, cached=True,
                    )
                    continue
            pending.append(spec)

        if jobs == 1:
            fresh = {s.index: _worker(s, str(scratch_dir)) for s in pending}
        else:
            fresh = _run_pooled(pending, jobs, scratch_dir)
        records.update(fresh)

        if cache is not None:
            for spec in pending:
                rec = records[spec.index]
                if spec.cache_key and rec.ok and isinstance(rec.value, dict):
                    cache.put(spec.cache_key, rec.value, scratch_dir)
        return [records[s.index] for s in specs]
