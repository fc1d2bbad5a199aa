"""On-disk registry of profiled runs (``actorprof runs …``).

Layout (legacy, single shard)::

    <root>/
      manifest.json        {"version": 1, "runs": {run_id: entry, …}}
      <run_id>.aptrc       one archive per registered run

Layout (sharded, created with ``RunRegistry(root, shards=N)``)::

    <root>/
      registry.json        {"version": 1, "shards": N}
      manifest-00.json …   one manifest per shard
      .shard-00.lock …     stable lock files (never renamed)
      <run_id>.aptrc

A run id lives in exactly one shard — ``sha256(run_id) % shards`` — so
two writers registering different runs usually touch different
manifests and never contend.  Every read-modify-write (``add``,
``remove``) holds an advisory file lock on its shard, closing the
lost-update window two concurrent ``runs add`` calls used to have:
both would read the same manifest, and the second ``_save`` silently
dropped the first's entry.  The lock is taken on a *stable* side file,
not the manifest itself, because atomic manifest replacement
(temp + rename) swaps the inode a lock would be attached to.

Manifest writes stay atomic, so lock-free readers are always safe —
they see either the old or the new manifest, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.core.store.archive import Archive, ArchiveError

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

MANIFEST = "manifest.json"
MANIFEST_VERSION = 1
REGISTRY_CONFIG = "registry.json"

_ID_RE = re.compile(r"[^A-Za-z0-9._-]+")


class RegistryError(ValueError):
    """Raised for unknown run ids or a corrupt registry."""


def file_sha256(path: Path) -> str:
    """A file's sha256: the fingerprint a registered archive carries."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def file_lock(path: Path):
    """Hold an exclusive advisory lock on ``path`` (created if absent).

    Uses ``flock`` where available; elsewhere falls back to an
    exclusive-create spin lock on ``path + '.x'`` so the semantics (one
    holder at a time, cross-process) survive, just more slowly.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is not None:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
    else:  # pragma: no cover - exercised only off-POSIX
        probe = path.with_name(path.name + ".x")
        while True:
            try:
                fd = os.open(probe, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                time.sleep(0.01)
        try:
            yield
        finally:
            os.close(fd)
            probe.unlink(missing_ok=True)


@dataclass(frozen=True)
class RunInfo:
    """One registered run."""

    run_id: str
    path: Path
    created: str
    size_bytes: int
    meta: dict
    #: sha256 of the archive file.  Archives are written without
    #: timestamps, so two runs of the same (seed, schedule, workload)
    #: produce the SAME fingerprint — this is the registry-level
    #: reproducibility receipt ActorCheck's replay audit relies on.
    fingerprint: str = ""

    def describe(self) -> str:
        """One-line summary used by ``actorprof runs list``."""
        m = self.meta
        shape = ""
        if "nodes" in m and "pes_per_node" in m:
            shape = f"{m['nodes']}x{m['pes_per_node']} PEs"
        app = m.get("workload", m.get("app", ""))  # descriptor, or a name
        app = app.get("kind", "") if isinstance(app, dict) else str(app)
        degraded = "[degraded]" if m.get("degraded") else ""
        finger = self.fingerprint[:12] if self.fingerprint else ""
        bits = [b for b in (app, shape, degraded, finger,
                            f"{self.size_bytes:,} B", self.created) if b]
        return f"{self.run_id:<24} " + "  ".join(bits)


class RunRegistry:
    """A directory of ``.aptrc`` archives indexed by sharded manifests.

    ``shards`` picks the manifest count when the registry is *created*;
    an existing registry's shard count is read from ``registry.json``,
    or is 1 for a legacy single-manifest registry (no config file).
    Passing a conflicting ``shards`` for an existing registry raises,
    since re-sharding in place would strand entries.
    """

    def __init__(self, root: str | Path, shards: int | None = None) -> None:
        self.root = Path(root)
        if shards is not None and shards < 1:
            raise RegistryError(f"shards must be >= 1: {shards}")
        existing = self._read_config()
        if existing is not None:
            if shards is not None and shards != existing:
                raise RegistryError(
                    f"registry {self.root} has {existing} shard(s); "
                    f"cannot reopen with shards={shards}"
                )
            self.shards = existing
        else:
            self.shards = shards if shards is not None else 1

    # -- manifest ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """The single-shard manifest path (legacy callers/tests)."""
        return self._manifest_path(0)

    def _read_config(self) -> int | None:
        config = self.root / REGISTRY_CONFIG
        if not config.exists():
            # a legacy registry is one manifest and no config file
            return 1 if (self.root / MANIFEST).exists() else None
        try:
            data = json.loads(config.read_text())
            return int(data["shards"])
        except (OSError, ValueError, KeyError) as exc:
            raise RegistryError(
                f"corrupt registry config {config}: {exc}"
            ) from exc

    def _write_config(self) -> None:
        if self.shards == 1:
            return  # legacy layout needs no config file
        config = self.root / REGISTRY_CONFIG
        if not config.exists():
            # per-writer (process and thread) tmp name: two creators racing
            # here both write the same content, neither steals the other's
            tmp = config.with_name(f".registry-{os.getpid()}-{threading.get_ident()}.tmp")
            tmp.write_text(json.dumps(
                {"version": MANIFEST_VERSION, "shards": self.shards},
                indent=2, sort_keys=True) + "\n")
            os.replace(tmp, config)

    def shard_of(self, run_id: str) -> int:
        if self.shards == 1:
            return 0
        digest = hashlib.sha256(run_id.encode("utf-8")).hexdigest()
        return int(digest[:8], 16) % self.shards

    def _manifest_path(self, shard: int) -> Path:
        if self.shards == 1:
            return self.root / MANIFEST
        return self.root / f"manifest-{shard:02d}.json"

    def _lock_path(self, shard: int) -> Path:
        return self.root / f".shard-{shard:02d}.lock"

    def _shard_lock(self, shard: int):
        """The advisory write lock for one shard's read-modify-write."""
        return file_lock(self._lock_path(shard))

    def _load_shard(self, shard: int) -> dict:
        path = self._manifest_path(shard)
        if not path.exists():
            return {"version": MANIFEST_VERSION, "runs": {}}
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(
                f"corrupt registry manifest {path}: {exc}"
            ) from exc
        if data.get("version") != MANIFEST_VERSION:
            raise RegistryError(
                f"unsupported manifest version {data.get('version')!r} "
                f"in {path}"
            )
        return data

    def _save_shard(self, shard: int, data: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_config()
        path = self._manifest_path(shard)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def _all_runs(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for shard in range(self.shards):
            merged.update(self._load_shard(shard)["runs"])
        return merged

    def _info(self, run_id: str, entry: dict) -> RunInfo:
        return RunInfo(
            run_id=run_id,
            path=self.root / entry["file"],
            created=entry.get("created", ""),
            size_bytes=int(entry.get("size_bytes", 0)),
            meta=entry.get("meta", {}),
            fingerprint=entry.get("fingerprint", ""),
        )

    # -- operations -------------------------------------------------------

    def add(self, archive_path: str | Path, run_id: str | None = None,
            move: bool = False) -> RunInfo:
        """Register an archive (copied — or moved — into the registry).

        ``run_id`` defaults to the archive's filename stem, uniquified
        with a numeric suffix on collision.
        """
        info, _created = self.add_dedup(archive_path, run_id=run_id,
                                        move=move, dedup_identical=False)
        return info

    def add_dedup(self, archive_path: str | Path, run_id: str | None = None,
                  move: bool = False, dedup_identical: bool = True,
                  fingerprint: str | None = None,
                  meta: dict | None = None) -> tuple[RunInfo, bool]:
        """Register an archive, deduplicating byte-identical re-uploads.

        Returns ``(info, created)``.  With ``dedup_identical``, an
        explicit ``run_id`` that already exists with the *same archive
        fingerprint* returns the existing entry (``created=False``)
        instead of raising — the idempotent-ingest contract the serve
        layer needs.  A same-id, *different*-fingerprint collision still
        raises.  ``fingerprint`` is the archive's sha256 and ``meta`` its
        footer metadata, when the caller already has them; otherwise the
        file is hashed, or opened, here.

        The decision is made under the target shard's file lock, so two
        concurrent identical uploads register exactly one entry.
        """
        archive_path = Path(archive_path)
        try:
            if meta is None:
                with Archive(archive_path) as archive:
                    meta = dict(archive.meta)
        except (OSError, ArchiveError) as exc:
            raise RegistryError(f"cannot register {archive_path}: {exc}") from exc
        fingerprint = fingerprint or file_sha256(archive_path)
        base = _ID_RE.sub("-", run_id or archive_path.stem).strip("-") or "run"
        explicit = run_id is not None
        candidate, n = base, 1
        while True:
            shard = self.shard_of(candidate)
            with self._shard_lock(shard):
                data = self._load_shard(shard)
                runs = data["runs"]
                existing = runs.get(candidate)
                if existing is None:
                    entry = self._install(archive_path, candidate, meta,
                                          fingerprint, move)
                    runs[candidate] = entry
                    self._save_shard(shard, data)
                    return self._info(candidate, entry), True
                if explicit:
                    if (dedup_identical
                            and existing.get("fingerprint") == fingerprint):
                        if move:
                            archive_path.unlink(missing_ok=True)
                        return self._info(candidate, existing), False
                    raise RegistryError(
                        f"run id {candidate!r} already registered"
                    )
            # auto ids uniquify: next candidate may hash to another
            # shard, so the lock is released and retaken per attempt
            n += 1
            candidate = f"{base}-{n}"

    def _install(self, archive_path: Path, run_id: str, meta: dict,
                 fingerprint: str, move: bool) -> dict:
        """Copy/move the archive into place and build its manifest entry."""
        self.root.mkdir(parents=True, exist_ok=True)
        dest = self.root / f"{run_id}.aptrc"
        if move:
            shutil.move(str(archive_path), dest)
        else:
            shutil.copyfile(archive_path, dest)
        return {
            "file": dest.name,
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "size_bytes": dest.stat().st_size,
            "meta": meta,
            "fingerprint": fingerprint,
        }

    def find_fingerprint(self, fingerprint: str) -> RunInfo | None:
        """The first registered run whose archive has this sha256, if any."""
        for rid, entry in sorted(self._all_runs().items()):
            if entry.get("fingerprint") == fingerprint:
                return self._info(rid, entry)
        return None

    def list(self) -> list[RunInfo]:
        """All registered runs, sorted by id."""
        return [self._info(rid, e)
                for rid, e in sorted(self._all_runs().items())]

    def get(self, run_id: str) -> RunInfo:
        """Look up one run by exact id."""
        runs = self._all_runs()
        try:
            return self._info(run_id, runs[run_id])
        except KeyError:
            raise RegistryError(
                f"unknown run {run_id!r} (have "
                f"{sorted(runs) or 'no runs'})"
            ) from None

    def resolve(self, ref: str) -> RunInfo:
        """Look up a run by exact id (read from its own shard) or unique prefix."""
        entry = self._load_shard(self.shard_of(ref))["runs"].get(ref)
        if entry is not None:
            return self._info(ref, entry)
        runs = self._all_runs()
        if ref in runs:
            return self._info(ref, runs[ref])
        matches = [rid for rid in runs if rid.startswith(ref)]
        if len(matches) == 1:
            return self._info(matches[0], runs[matches[0]])
        if not matches:
            raise RegistryError(
                f"unknown run {ref!r} (have {sorted(runs) or 'no runs'})"
            )
        raise RegistryError(f"ambiguous run {ref!r}: matches {sorted(matches)}")

    def open(self, ref: str) -> Archive:
        """Open the archive of one registered run."""
        return Archive(self.resolve(ref).path)

    def remove(self, ref: str) -> RunInfo:
        """Delete a run's archive and drop it from the manifest."""
        info = self.resolve(ref)
        shard = self.shard_of(info.run_id)
        with self._shard_lock(shard):
            data = self._load_shard(shard)
            data["runs"].pop(info.run_id, None)
            self._save_shard(shard, data)
        if info.path.exists():
            info.path.unlink()
        return info


def default_registry_root() -> Path:
    """``$ACTORPROF_RUNS`` or ``~/.actorprof/runs``."""
    env = os.environ.get("ACTORPROF_RUNS")
    if env:
        return Path(env)
    return Path.home() / ".actorprof" / "runs"
