"""Seeded synthetic ``.aptrc`` inputs for store_scan and serve_mix.

A ``logical`` section in row groups whose ``src`` is constant per group
(as a spilling profiler's sorted partial aggregates are, which is what
makes ``src == k`` prunable) with random ``dst``/``size``/``count`` —
deliberately not the all-ones / ``arange`` columns of the legacy
benches, which compress 150:1 and flatter the codec — plus the
``overall`` section a pyramid backfill needs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.store.writer import ArchiveWriter

COLUMNS = ("src", "dst", "size", "count")


def make_chunks(rng: np.random.Generator, rows: int, groups: int,
                n_pes: int, first_src: int = 0) -> list[dict]:
    per = rows // groups
    return [{
        "src": np.full(per, (first_src + g) % n_pes, dtype=np.int64),
        "dst": rng.integers(0, n_pes, per),
        "size": 8 * rng.integers(1, 65, per),
        "count": rng.integers(1, 5, per),
    } for g in range(groups)]


def flatten(chunks: list[dict]) -> dict:
    """The chunks as flat arrays — the oracle's view of the data."""
    return {c: np.concatenate([chunk[c] for chunk in chunks])
            for c in COLUMNS}


def write_archive(path: Path, chunks: list[dict], n_pes: int,
                  meta: dict | None = None) -> Path:
    layout = {"nodes": 4, "pes_per_node": n_pes // 4, "n_pes": n_pes}
    with ArchiveWriter(path, meta={**layout, **(meta or {})}) as writer:
        section = writer.begin_section("logical", COLUMNS, attrs=layout)
        for chunk in chunks:
            section.write_chunk(chunk)
        section.end()
        writer.add_section("overall", {
            "t_main": np.full(n_pes, 1000, dtype=np.int64),
            "t_proc": np.full(n_pes, 2000, dtype=np.int64),
            "t_total": np.full(n_pes, 10_000, dtype=np.int64),
        }, attrs={"n_pes": n_pes})
    return path
