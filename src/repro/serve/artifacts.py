"""Content addresses for the service's result cache.

The arbiter keeps query, diff and viz results in a size-bounded
:class:`~repro.exec.cache.ResultCache`.  Traveler (PAPERS.md) argues
for this: many concurrent viewers must be served from precomputed
aggregates, not per-request raw-event work.  Keys are derived from
*content*, never identity: an archive's sha256 fingerprint (the same
receipt the run registry stamps) plus the
:func:`repro.core.query.normalize`-d query text.  Two different clients
asking the same question about the same bytes — even via different run
ids, registries, or query spellings — therefore share one cache entry.

The cache is LRU-bounded (``ServerConfig.cache_max_bytes``), so a
long-running service cannot grow its disk footprint without bound.
"""

from __future__ import annotations

import hashlib
import json


def _key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def query_key(fingerprint: str, section: str, canonical_query: str) -> str:
    """Cache key for one (archive, section, query) evaluation."""
    return _key({"kind": "query", "fingerprint": fingerprint,
                 "section": section, "query": canonical_query})


def diff_key(fingerprint_a: str, fingerprint_b: str, label_a: str,
             label_b: str) -> str:
    """Cache key for one ordered archive-pair diff.  The report text
    names both runs, so their labels are part of the key."""
    return _key({"kind": "diff", "a": fingerprint_a, "b": fingerprint_b,
                 "label_a": label_a, "label_b": label_b})


def viz_key(fingerprint: str, view: str, t0: int | None, t1: int | None,
            res: int | None) -> str:
    """Cache key for one LOD viz render (view + snapped-viewport args).

    ``None`` window/resolution values key distinctly from explicit
    ones: the defaults depend on the archive's pyramid shape, which the
    fingerprint already pins.  The renderer tag
    (:data:`~repro.core.viz.lodviews.RENDERER`) makes renders stored by
    an older renderer misses.
    """
    from repro.core.viz.lodviews import RENDERER  # only viz requests need it

    return _key({"kind": "viz", "fingerprint": fingerprint, "view": view,
                 "t0": t0, "t1": t1, "res": res, "renderer": RENDERER})

