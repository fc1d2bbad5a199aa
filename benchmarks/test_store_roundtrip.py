"""Trace store benchmark: one .aptrc archive vs the paper's CSV files.

Exports the full scale-12 triangle-counting run (all four trace kinds)
both ways and measures file size, write time, and re-load time.  The
binary columnar archive must be at least 5x smaller than the CSV trace
directory and at least 3x faster to re-load.
"""

import time

import numpy as np
from conftest import once
from repro.core.logical import parse_logical_dir
from repro.core.overall import parse_overall_file
from repro.core.papi_trace import parse_papi_dir
from repro.core.physical import parse_physical_file
from repro.core.store.archive import load_run
from repro.experiments import run_case_study


def test_store_roundtrip(benchmark, outdir, tmp_path):
    run = run_case_study(nodes=1, distribution="cyclic", scale=12)
    profiler = run.profiler
    n_pes = run.setup.machine.n_pes

    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    t0 = time.perf_counter()
    profiler.write_traces(csv_dir)
    csv_write = time.perf_counter() - t0
    csv_size = sum(p.stat().st_size for p in csv_dir.iterdir())

    archive_path = tmp_path / "run.aptrc"
    t0 = time.perf_counter()
    profiler.export_archive(archive_path, meta={"app": "triangle", "scale": 12})
    archive_write = time.perf_counter() - t0
    archive_size = archive_path.stat().st_size

    t0 = time.perf_counter()
    from_csv = (
        parse_logical_dir(csv_dir, n_pes),
        parse_physical_file(csv_dir, n_pes),
        parse_papi_dir(csv_dir, n_pes),
        parse_overall_file(csv_dir),
    )
    csv_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    traces = once(benchmark, lambda: load_run(archive_path))
    archive_load = time.perf_counter() - t0

    print("\n[trace store] scale-12 triangle run, all four trace kinds")
    print(f"  size:  CSV {csv_size:,} B in {sum(1 for _ in csv_dir.iterdir())}"
          f" files; archive {archive_size:,} B "
          f"({csv_size / archive_size:.1f}x smaller)")
    print(f"  write: CSV {csv_write * 1e3:.1f} ms; "
          f"archive {archive_write * 1e3:.1f} ms")
    print(f"  load:  CSV {csv_load * 1e3:.1f} ms; "
          f"archive {archive_load * 1e3:.1f} ms "
          f"({csv_load / archive_load:.1f}x faster)")
    (outdir / "store_roundtrip.txt").write_text(
        f"csv_bytes={csv_size}\narchive_bytes={archive_size}\n"
        f"csv_write_s={csv_write:.4f}\narchive_write_s={archive_write:.4f}\n"
        f"csv_load_s={csv_load:.4f}\narchive_load_s={archive_load:.4f}\n"
    )

    # lossless: the archive round-trips the exact traces
    for stored, parsed in zip((traces.logical, traces.physical, traces.papi),
                              from_csv):
        got, want = stored.to_columns()[0], parsed.to_columns()[0]
        assert list(got) == list(want)
        assert all(np.array_equal(got[c], want[c]) for c in want)
    assert traces.overall.t_total.tolist() == from_csv[3].t_total.tolist()

    assert archive_size * 5 <= csv_size, (
        f"archive must be >=5x smaller: {archive_size:,} vs {csv_size:,}"
    )
    assert archive_load * 3 <= csv_load, (
        f"archive must re-load >=3x faster: {archive_load:.3f}s vs "
        f"{csv_load:.3f}s"
    )
