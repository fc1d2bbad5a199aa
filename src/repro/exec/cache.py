"""On-disk result cache for the parallel run engine.

Entries are keyed by :func:`repro.exec.pool.cache_key_for` — the
sha256 of a run's ``{fn, kwargs}`` — so an unchanged ``(workload,
seed, schedule)`` triple maps to the same entry across processes and
sessions.  An entry holds the worker's returned value plus a copy of
every artifact file it produced, each stamped with its own sha256 (the
same fingerprint the run registry records for archives).  On a hit the
artifacts are re-verified against those fingerprints before being
restored; any corruption demotes the hit to a miss and evicts the
entry, so a poisoned cache can never alter results — only cost a rerun.

Layout::

    <root>/<key[:2]>/<key>/manifest.json   # {"value": ..., "artifacts": [...]}
    <root>/<key[:2]>/<key>/<artifact files>

Writes are atomic (staged into a temp directory, then renamed), so a
crashed or concurrent writer leaves either no entry or a whole one.

The store may be size-bounded: with ``max_bytes`` set, ``put`` adds the
size of what it staged to a running byte total and, only once that total
crosses the cap (or is unknown: a fresh instance, or after a same-key
replace or a tamper-evict), walks the store and evicts least-recently-
used entries (a hit refreshes an entry's recency stamp) until it fits.
The entry just stored is never the eviction victim, so a single
oversized result still lands — the cap is a steady-state bound kept by
the one capped writer of a directory, not an admission filter; entries
written by anyone else are counted at the next walk.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.store.registry import file_sha256


def _tree_bytes(path: Path) -> int:
    """Total size of every file under ``path`` (nested artifacts too)."""
    return sum(os.path.getsize(os.path.join(d, name))
               for d, _, names in os.walk(path) for name in names)


@dataclass
class CacheStats:
    """Hit/miss/store/evict counters, safe to bump from several threads."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def to_dict(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "evictions": self.evictions}


@dataclass
class ResultCache:
    """A content-addressed store of run results and their artifacts."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)
    #: Total on-disk size bound; ``None`` leaves the store unbounded.
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1: {self.max_bytes}")
        self._cap_lock = threading.RLock()
        #: Bytes on disk as far as this instance knows; ``None`` (fresh
        #: instance, or a delta it cannot know) makes the next capped
        #: ``put`` walk the store.
        self._total: int | None = None

    def _entry_dir(self, key: str) -> Path:
        if len(key) < 3:
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / key[:2] / key

    def get(self, key: str, restore_dir: Path | None = None) -> dict | None:
        """Return the stored value, restoring artifacts into ``restore_dir``
        (needed only for entries that hold artifacts).

        Returns ``None`` (a miss) when the entry is absent, unreadable,
        or any artifact fails its sha256 check — corrupt entries are
        evicted on the way out.
        """
        entry = self._entry_dir(key)
        manifest_path = entry / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            self.stats.bump("misses")
            return None
        try:
            staged = []
            for art in manifest.get("artifacts", []):
                src = entry / art["name"]
                if file_sha256(src) != art["sha256"]:
                    raise ValueError(f"artifact {art['name']} fingerprint "
                                     f"mismatch")
                staged.append((src, Path(restore_dir) / art["name"]))
            for src, dst in staged:
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dst)
        except (OSError, KeyError, ValueError):
            self.evict(key)
            self.stats.bump("misses")
            return None
        try:
            os.utime(manifest_path)  # refresh LRU recency stamp
        except OSError:
            pass
        self.stats.bump("hits")
        return manifest["value"]

    def put(self, key: str, value: dict,
            artifact_dir: Path | None = None) -> bool:
        """Store ``value`` plus the artifacts it names in ``artifact_dir``.

        Artifact names come from ``value["artifacts"]`` (relative paths).
        Returns False — without raising — when the value is not
        JSON-serializable or an artifact is missing: a broken store must
        never fail the run that produced the result.
        """
        entry = self._entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=self.root))
        try:
            artifacts = []
            for name in (value or {}).get("artifacts", []):
                src = Path(artifact_dir) / name
                dst = stage / name
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dst)
                artifacts.append({"name": name, "sha256": file_sha256(dst)})
            manifest = {"key": key, "value": value, "artifacts": artifacts}
            (stage / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
            size = _tree_bytes(stage)
            with self._cap_lock:  # a walk sees the entry and its size, or neither
                if entry.exists():
                    shutil.rmtree(entry, ignore_errors=True)
                    self._total = None
                stage.rename(entry)
                if self._total is not None:
                    self._total += size
        except (OSError, TypeError, ValueError):
            shutil.rmtree(stage, ignore_errors=True)
            return False
        self.stats.bump("stores")
        if self.max_bytes is not None:
            self._enforce_cap(protect=key)
        return True

    def evict(self, key: str) -> None:
        with self._cap_lock:
            shutil.rmtree(self._entry_dir(key), ignore_errors=True)
            self._total = None
        self.stats.bump("evictions")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*/manifest.json"))

    # -- size bounding ----------------------------------------------------

    def entries(self) -> list[tuple[str, float, int]]:
        """Every entry as ``(key, recency_stamp, size_bytes)``.

        The recency stamp is the manifest's mtime: set at store time and
        refreshed on every hit, which is exactly LRU order.
        """
        out = []
        for manifest in self.root.glob("??/*/manifest.json"):
            entry = manifest.parent
            try:
                size = _tree_bytes(entry)  # 0 for a vanished entry; the stat raises
                stamp = manifest.stat().st_mtime
            except OSError:
                continue  # concurrently evicted
            out.append((entry.name, stamp, size))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, _, size in self.entries())

    def _enforce_cap(self, protect: str | None = None) -> None:
        """Evict least-recently-used entries until the store fits.

        The store is walked only when the running total is unknown or
        over the cap.  ``protect`` (the entry just stored) is never
        evicted — otherwise one result larger than the cap would thrash
        forever.
        """
        with self._cap_lock:
            if self._total is not None and self._total <= self.max_bytes:
                return
            ranked = sorted(self.entries(), key=lambda e: (e[1], e[0]))
            total = sum(size for _, _, size in ranked)
            for key, _, size in ranked:
                if total <= self.max_bytes:
                    break
                if key == protect:
                    continue
                self.evict(key)
                total -= size
            self._total = total
