"""Benchmark: LOD viz rendering vs full event decode.

The tentpole claim behind the ``/runs/{id}/viz/*`` endpoints: a
viewport render answers from the pyramid sections alone — O(viewport
resolution) — while the pre-LOD path decodes every raw event column,
O(trace size).  This benchmark builds synthetic ``.aptrc`` archives at
250k / 500k / 1M send rows (the shape spilled traces have), backfills
pyramids, and times both paths rendering the same heatmap.

Two full-decode baselines are timed: the *legacy* path (``load_run``
trace materialization + ``matrix()`` — what rendering a heatmap from
an archive cost before the pyramid existed) and the *vectorized* path
(``Section.column`` decode + scatter, the best a non-LOD render can do
today).  Acceptance bars asserted here:

* at 1M rows the LOD render is >= 20x faster than the legacy
  full-decode render, and faster than the vectorized decode too,
* the LOD render touches *only* ``lod_*`` columns (decode spy),
* LOD render time is ~flat across trace sizes (<= 3x from 250k to 1M)
  while the full decode grows with the row count.

Numbers land in ``benchmarks/output/BENCH_viz_lod.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_viz_lod.py -v -s
"""

from __future__ import annotations

import json
import time

import numpy as np

import repro.api as api
from repro.core.rowstore import scatter_matrix
from repro.core.store.archive import Archive
from repro.core.store.lod import backfill_pyramid
from repro.core.store.writer import ArchiveWriter
from repro.core.viz import heatmap_svg

N_PES = 32
SIZES = [250_000, 500_000, 1_000_000]
SPEEDUP_BAR = 20.0
FLATNESS_BAR = 3.0


def build_archive(path, n_rows):
    """Synthetic logical + overall sections, ``n_rows`` send rows."""
    meta = {"nodes": 4, "pes_per_node": N_PES // 4, "n_pes": N_PES}
    n_chunks = max(n_rows // 125_000, 1)
    per_chunk = n_rows // n_chunks
    dst = np.arange(per_chunk, dtype=np.int64) % N_PES
    sizes = np.resize(np.asarray([8, 16, 32, 64], dtype=np.int64),
                      per_chunk)
    count = np.ones(per_chunk, dtype=np.int64)
    with ArchiveWriter(path, meta=meta) as writer:
        section = writer.begin_section(
            "logical", ("src", "dst", "size", "count"), attrs=meta)
        for i in range(n_chunks):
            section.write_chunk({
                "src": np.full(per_chunk, i % N_PES, dtype=np.int64),
                "dst": dst, "size": sizes, "count": count,
            })
        section.end()
        writer.add_section("overall", {
            "t_main": np.full(N_PES, 1000, dtype=np.int64),
            "t_proc": np.full(N_PES, 2000, dtype=np.int64),
            "t_total": np.full(N_PES, 10_000, dtype=np.int64),
        }, attrs={"n_pes": N_PES})
    return path


def timed_lod_render(path):
    """The endpoint path: pyramid sections only."""
    with api.open_run(path) as run:
        t0 = time.perf_counter()
        svg = run.viz("heatmap")
        elapsed = time.perf_counter() - t0
        decoded = set(run.archive.decoded_columns)
    return svg, elapsed, decoded


def timed_full_decode_render(path):
    """Today's best non-LOD render: vectorized column decode + scatter,
    then the same chart."""
    with Archive(path) as archive:
        t0 = time.perf_counter()
        section = archive.section("logical")
        src, dst = section.column("src"), section.column("dst")
        count = section.column("count")
        matrix = scatter_matrix(src, dst, count, (N_PES, N_PES))
        svg = heatmap_svg(matrix, title="full decode",
                          xlabel="destination PE", ylabel="source PE")
        elapsed = time.perf_counter() - t0
    return svg, matrix, elapsed


def timed_legacy_render(path):
    """The pre-LOD serving path: materialize the traces (``load_run``),
    then render from the in-memory logical trace."""
    from repro.core.store.archive import load_run

    t0 = time.perf_counter()
    run = load_run(path)
    matrix = run.logical.matrix()
    heatmap_svg(matrix, title="legacy", xlabel="destination PE",
                ylabel="source PE")
    return time.perf_counter() - t0


def test_lod_render_is_flat_while_full_decode_is_linear(tmp_path, outdir):
    results = []
    for n_rows in SIZES:
        path = build_archive(tmp_path / f"r{n_rows}.aptrc", n_rows)
        backfill_pyramid(path)

        _, _, t_full = timed_full_decode_render(path)
        t_legacy = timed_legacy_render(path)
        svg, t_lod, decoded = timed_lod_render(path)

        assert "<svg" in svg
        touched = {section for section, _ in decoded}
        assert touched <= {"lod_pe", "lod_edge"}, (
            f"LOD render decoded raw event columns: {touched}")
        results.append({"rows": n_rows, "t_lod_s": t_lod,
                        "t_full_decode_s": t_full,
                        "t_legacy_load_s": t_legacy,
                        "speedup_vs_legacy": t_legacy / t_lod,
                        "speedup_vs_full_decode": t_full / t_lod})

    # correctness cross-check at the largest size: the pyramid's edge
    # counts equal the full decode's scatter matrix
    path = tmp_path / f"r{SIZES[-1]}.aptrc"
    _, matrix, _ = timed_full_decode_render(path)
    with api.open_run(path) as run:
        window = run.lod().edge_window(res=1)
        np.testing.assert_array_equal(window.count, matrix)

    largest = results[-1]
    assert largest["speedup_vs_legacy"] >= SPEEDUP_BAR, (
        f"LOD render only {largest['speedup_vs_legacy']:.1f}x faster "
        f"than the legacy full-decode render at {largest['rows']:,} rows "
        f"(bar: {SPEEDUP_BAR}x)")
    assert largest["speedup_vs_full_decode"] > 1.0
    flatness = results[-1]["t_lod_s"] / max(results[0]["t_lod_s"], 1e-9)
    assert flatness <= FLATNESS_BAR, (
        f"LOD render grew {flatness:.1f}x from {SIZES[0]:,} to "
        f"{SIZES[-1]:,} rows — not O(viewport)")

    payload = {
        "n_pes": N_PES,
        "view": "heatmap",
        "speedup_bar": SPEEDUP_BAR,
        "flatness_bar": FLATNESS_BAR,
        "lod_growth_250k_to_1m": flatness,
        "runs": results,
    }
    out = outdir / "BENCH_viz_lod.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for row in results:
        print(f"rows={row['rows']:>9,}  lod={row['t_lod_s'] * 1e3:8.2f} ms  "
              f"decode={row['t_full_decode_s'] * 1e3:8.2f} ms  "
              f"legacy={row['t_legacy_load_s'] * 1e3:8.2f} ms  "
              f"speedup={row['speedup_vs_legacy']:7.1f}x")
