"""Tiny worker functions for exercising the run engine itself.

Spawned children import a worker by its module and name, so test
workers must live in an installed module — closures and test-file
functions don't survive the trip.  Everything here is
deliberately trivial; the unit tests drive pools, caches, and crash
isolation through these.
"""

from __future__ import annotations

import os
from pathlib import Path


def echo(out_dir: Path, *, value) -> dict:
    """Return the input (and the worker's PID, for pool introspection)."""
    return {"value": value, "pid": os.getpid()}


def write_artifact(out_dir: Path, *, name: str, text: str) -> dict:
    """Write one artifact file and declare it for the result cache."""
    path = Path(out_dir) / name
    path.write_text(text)
    return {"artifacts": [name], "length": len(text)}


def boom(out_dir: Path, *, message: str = "kaboom") -> dict:
    """Raise — must surface as a failure record, not break the pool."""
    raise RuntimeError(message)


def die(out_dir: Path, *, code: int = 17) -> dict:
    """Kill the worker process outright — the crash-isolation case."""
    os._exit(code)


def touch_and_count(out_dir: Path, *, name: str) -> dict:
    """Append to a side-effect file; lets tests count real executions."""
    path = Path(out_dir) / name
    with open(path, "a") as f:
        f.write("x")
    return {"artifacts": [name], "runs": path.stat().st_size}


def mixed(out_dir: Path, *, op: str, **kwargs) -> dict:
    """Call ``echo``, ``boom`` or ``die`` by name: one worker function for
    a batch whose points succeed, raise or kill their process."""
    return {"echo": echo, "boom": boom, "die": die}[op](out_dir, **kwargs)
