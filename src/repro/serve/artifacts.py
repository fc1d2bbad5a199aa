"""The content-addressed shared artifact store behind the service.

This is the PR-4 :class:`~repro.exec.cache.ResultCache` generalized for
multi-tenant serving, as Traveler (PAPERS.md) argues: many concurrent
viewers must be served from precomputed/cached aggregates, not
per-request raw-event work.  Keys are derived from *content*, never
identity: an archive's sha256 fingerprint (the same receipt the run
registry stamps) plus the :func:`repro.core.query.normalize`-d query
text.  Two different clients asking the same question about the same
bytes — even via different run ids, registries, or query spellings —
therefore share one cache entry.

The store is size-bounded (LRU, see ``ResultCache.max_bytes``) so a
long-running service cannot grow its disk footprint without bound.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.exec.cache import ResultCache


def _key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def query_key(fingerprint: str, section: str, canonical_query: str) -> str:
    """Cache key for one (archive, section, query) evaluation."""
    return _key({"kind": "query", "fingerprint": fingerprint,
                 "section": section, "query": canonical_query})


def diff_key(fingerprint_a: str, fingerprint_b: str) -> str:
    """Cache key for one ordered archive-pair diff."""
    return _key({"kind": "diff", "a": fingerprint_a, "b": fingerprint_b})


def viz_key(fingerprint: str, view: str, t0: int | None, t1: int | None,
            res: int | None) -> str:
    """Cache key for one LOD viz render (view + snapped-viewport args).

    ``None`` window/resolution values key distinctly from explicit
    ones: the defaults depend on the archive's pyramid shape, which the
    fingerprint already pins.
    """
    return _key({"kind": "viz", "fingerprint": fingerprint, "view": view,
                 "t0": t0, "t1": t1, "res": res})


class ArtifactStore:
    """A size-bounded :class:`ResultCache` plus the content-address scheme.

    The underlying cache plugs straight into :func:`repro.exec.execute`
    (specs carry these keys as their ``cache_key``), so cache lookup,
    tamper re-verification, atomic stores, and LRU eviction all ride
    the existing engine.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        self.cache = ResultCache(Path(root), max_bytes=max_bytes)

    def to_dict(self) -> dict:
        """Stats payload served by the ``/stats`` endpoint (one store walk)."""
        sizes = [size for _, _, size in self.cache.entries()]
        return {**self.cache.stats.to_dict(), "entries": len(sizes),
                "bytes": sum(sizes), "max_bytes": self.cache.max_bytes}
