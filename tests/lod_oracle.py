"""Reference oracle for the LOD pyramid build: sparse folds on both sides.

This is :func:`repro.core.store.lod.build_pyramid` as it was before the
per-PE levels became dense pairwise sums: level 0 is spread exactly as
the library does it, then every coarser level — per-PE and per-edge
alike — is the previous level's sparse columns with ``bucket // 2`` and
a lexsort fold (:func:`repro.core.rowstore.fold`).
``tests/test_store_lod.py`` pins the library's pyramid to it, column
for column, at every level.
"""

import numpy as np

from repro.core.rowstore import fold
from repro.core.store.lod import Pyramid, level_widths
from repro.core.timeline import spread_spans


def _pe_dense_to_columns(main, proc, comm):
    """Sparse (bucket-major) columns from dense (n_pes, nb) arrays."""
    occupied = (main + proc + comm).T  # (nb, n_pes): bucket-major order
    b_idx, pe_idx = np.nonzero(occupied > 0)
    return {
        "bucket": b_idx.astype(np.int64),
        "pe": pe_idx.astype(np.int64),
        "t_main": main.T[b_idx, pe_idx],
        "t_proc": proc.T[b_idx, pe_idx],
        "t_comm": comm.T[b_idx, pe_idx],
    }


def _group(cols, keys):
    """Rows equal on the first ``keys`` columns summed, in key order."""
    return dict(zip(cols, fold(np.stack(list(cols.values())), keys)))


def _coarsen(cols, keys):
    """One coarsening step on level columns (bucket → bucket // 2)."""
    return _group({**cols, "bucket": cols["bucket"] // 2}, keys)


def build_pyramid_fold(timeline) -> Pyramid:
    """The time-resolved pyramid of ``timeline``, one sparse fold per level."""
    n_pes = timeline.n_pes
    horizon = max(timeline.end_time(), 1)
    widths = level_widths(horizon)
    w0 = widths[0]
    nb0 = -(-horizon // w0)

    spans = timeline.span_columns()
    occupied = spread_spans(spans["region"] * n_pes + spans["pe"],
                            spans["start"], spans["end"], w0, 3 * n_pes, nb0)
    main, proc, total = occupied.reshape(3, n_pes, nb0)
    comm = np.maximum(total - main - proc, 0)
    pe0 = _pe_dense_to_columns(main, proc, comm)

    net = timeline.net_columns()
    edge0 = _group({"bucket": net["time"] // w0, "src": net["src"],
                    "dst": net["dst"], "count": np.ones_like(net["time"]),
                    "bytes": net["nbytes"]}, 3)

    pe_levels = [pe0]
    edge_levels = [edge0]
    for _ in widths[1:]:
        pe_levels.append(_coarsen(pe_levels[-1], 2))
        edge_levels.append(_coarsen(edge_levels[-1], 3))
    return Pyramid(horizon, n_pes, widths, True, pe_levels, edge_levels)
