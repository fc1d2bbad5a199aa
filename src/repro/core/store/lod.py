"""Level-of-detail (LOD) summary pyramids stored in ``.aptrc`` footers.

The Traveler insight (PAPERS.md): interactive trace navigation comes
from *precomputed aggregated interval indexes*, not raw event
rendering.  This module computes time-bucketed per-PE and per-edge
aggregates at geometrically coarsening resolutions and stores them as
two ordinary archive sections, encoded with the existing delta+varint
codec — pre-pyramid readers simply ignore the extra footer entries.

Sections
--------

``lod_pe``   — per-PE occupancy:   level, bucket, pe, t_main, t_proc, t_comm
``lod_edge`` — per-edge traffic:   level, bucket, src, dst, count, bytes

Each *level* is written as its own chunk, so the footer's per-chunk
``(min, max, sum)`` stats let :class:`~repro.core.store.frame.Frame`
prune straight to one level's payload: reading level *k* decodes
O(buckets at level k) bytes no matter how many raw events the run had.

Levels are finest-first.  Level 0 uses a power-of-two bucket width
``w0`` (the smallest power of two giving at most ``base`` buckets over
the run's horizon); level ``k`` uses ``w0 << k``.  Power-of-two widths
make every coarser bucket the exact pairwise sum of two finer ones, so
the whole pyramid is built with one pass over the events plus cheap
folds — and every level's totals are identical by construction (the
differential tests assert this against full decodes).

Archives that never saw a timeline (the usual one-shot export carries
only aggregate traces) get a degenerate *flat* pyramid: one level, one
bucket spanning the whole run, ``time_resolved=False`` in the section
attrs.  Viewport queries still work; they just cannot zoom.

:func:`backfill_pyramid` retrofits existing archives in place-or-copy
through an :class:`~repro.core.store.writer.ArchiveWriter` that extends
the archive: the original data region is copied verbatim (chunk offsets
stay valid, so the pre-existing bytes are untouched), pyramid chunks are
appended, and an extended footer is written.  Backfilling is
deterministic — backfilling the same archive twice produces identical
bytes.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.store.archive import Archive, ArchiveError, load_overall
from repro.core.store.frame import Frame, as_section, scatter_matrix
from repro.core.store.writer import ArchiveWriter

#: Section names; unknown to pre-pyramid readers, which ignore them.
PE_SECTION = "lod_pe"
EDGE_SECTION = "lod_edge"

PE_COLUMNS = ("level", "bucket", "pe", "t_main", "t_proc", "t_comm")
EDGE_COLUMNS = ("level", "bucket", "src", "dst", "count", "bytes")

#: Nominal bucket count of the finest level / the coarsest level.
DEFAULT_BASE = 1024
DEFAULT_FLOOR = 64

LOD_VERSION = 1


class LodError(ArchiveError):
    """Raised for malformed or missing pyramid sections."""


def _pow2_at_least(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def level_widths(horizon: int, base: int = DEFAULT_BASE,
                 floor: int = DEFAULT_FLOOR) -> list[int]:
    """Bucket widths (cycles), finest level first.

    Level 0 has at most ``base`` buckets across ``horizon``; each
    coarser level doubles the width, down to a nominal ``floor``
    buckets.  ``base`` and ``floor`` must be powers of two.
    """
    for name, v in (("base", base), ("floor", floor)):
        if v < 1 or v & (v - 1):
            raise ValueError(f"{name} must be a power of two, got {v}")
    if floor > base:
        raise ValueError(f"floor {floor} exceeds base {base}")
    w0 = _pow2_at_least(-(-max(horizon, 1) // base))
    n_levels = (base // floor).bit_length()  # log2(base/floor) + 1
    return [w0 << k for k in range(n_levels)]


@dataclass
class Pyramid:
    """In-memory pyramid: per-level sparse columns, finest first.

    ``pe_levels[k]`` / ``edge_levels[k]`` hold the level-``k`` columns
    (without the ``level`` column, which is added at write time).  The
    per-PE side may be empty (a flat pyramid without an overall profile).
    """

    horizon: int
    n_pes: int
    widths: list[int]
    time_resolved: bool
    pe_levels: list[dict[str, np.ndarray]]
    edge_levels: list[dict[str, np.ndarray]]

    @property
    def levels(self) -> int:
        return len(self.widths)

    def buckets(self) -> list[int]:
        """Actual bucket count of each level."""
        return [-(-self.horizon // w) for w in self.widths]

    def attrs(self) -> dict:
        return {
            "lod_version": LOD_VERSION,
            "horizon": int(self.horizon),
            "n_pes": int(self.n_pes),
            "time_resolved": bool(self.time_resolved),
            "widths": [int(w) for w in self.widths],
            "buckets": [int(b) for b in self.buckets()],
        }


@dataclass(frozen=True)
class PyramidInfo:
    """Pyramid shape, read from section attrs alone (no payload decode)."""

    horizon: int
    n_pes: int
    widths: tuple[int, ...]
    buckets: tuple[int, ...]
    time_resolved: bool
    has_pe: bool
    has_edges: bool

    @property
    def levels(self) -> int:
        return len(self.widths)


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------

def _spread_spans(rows: np.ndarray, start: np.ndarray, end: np.ndarray,
                  width: int, n_rows: int, n_buckets: int) -> np.ndarray:
    """Cycles of every span ``[start, end)`` spread over the buckets of
    its row: an ``(n_rows, n_buckets)`` int64 occupancy matrix.

    A span's first and last bucket get its partial overlap and every
    bucket between them ``width``, through one difference array (``+x``
    where a run of ``x`` per bucket starts, ``-x`` one past its end)
    and a prefix sum: O(spans + cells) however long the spans are.
    """
    keep = end > start
    rows, start, end = rows[keep], start[keep], end[keep]
    b0 = start // width
    b1 = (end - 1) // width
    split = b1 > b0
    head = np.where(split, (b0 + 1) * width, end) - start
    tail = np.where(split, end - b1 * width, 0)
    full = np.where(split, width, 0)
    cols = n_buckets + 1  # b1 + 1 may be one past the last bucket
    base = rows * cols
    diff = np.zeros(n_rows * cols, dtype=np.int64)
    for at, value in ((b0, head), (b0 + 1, full - head),
                      (b1, tail - full), (b1 + 1, -tail)):
        np.add.at(diff, base + at, value)
    return np.cumsum(diff.reshape(n_rows, cols), axis=1)[:, :n_buckets]


def _pe_dense_to_columns(main: np.ndarray, proc: np.ndarray,
                         comm: np.ndarray) -> dict[str, np.ndarray]:
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


def _edge_group(flat: np.ndarray, counts: np.ndarray, nbytes: np.ndarray,
                n_pes: int) -> dict[str, np.ndarray]:
    """Group (bucket*P² + src*P + dst) keys; output sorted bucket-major."""
    uniq, inverse = np.unique(flat, return_inverse=True)
    count_sums = np.bincount(inverse, weights=counts,
                             minlength=len(uniq)).astype(np.int64)
    byte_sums = np.bincount(inverse, weights=nbytes,
                            minlength=len(uniq)).astype(np.int64)
    return {
        "bucket": uniq // (n_pes * n_pes),
        "src": (uniq // n_pes) % n_pes,
        "dst": uniq % n_pes,
        "count": count_sums,
        "bytes": byte_sums,
    }


def _fold_pe(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One coarsening step on per-PE columns (bucket → bucket // 2)."""
    key = cols["bucket"] // 2 * 2 ** 32 + cols["pe"]  # pes < 2**32 always
    uniq, inverse = np.unique(key, return_inverse=True)
    out = {"bucket": uniq // 2 ** 32, "pe": uniq % 2 ** 32}
    for c in ("t_main", "t_proc", "t_comm"):
        out[c] = np.bincount(inverse, weights=cols[c],
                             minlength=len(uniq)).astype(np.int64)
    return out


def _fold_edge(cols: dict[str, np.ndarray], n_pes: int) -> dict[str, np.ndarray]:
    """One coarsening step on per-edge columns."""
    flat = (cols["bucket"] // 2) * (n_pes * n_pes) \
        + cols["src"] * n_pes + cols["dst"]
    return _edge_group(flat, cols["count"], cols["bytes"], n_pes)


def _empty_pe() -> dict[str, np.ndarray]:
    z = np.zeros(0, dtype=np.int64)
    return {"bucket": z, "pe": z, "t_main": z, "t_proc": z, "t_comm": z}


def _empty_edge() -> dict[str, np.ndarray]:
    z = np.zeros(0, dtype=np.int64)
    return {"bucket": z, "src": z, "dst": z, "count": z, "bytes": z}


def build_pyramid(timeline) -> Pyramid:
    """Full time-resolved pyramid from a
    :class:`~repro.core.timeline.TimelineTrace`.

    MAIN/PROC occupancy comes from region spans, T_COMM per bucket is
    the FINISH coverage minus MAIN and PROC (clipped at zero — exactly
    the paper's derived-COMM rule, per bucket), and edges come from the
    instrumented net events (the same stream the physical trace
    aggregates, so per-level edge totals match the physical section).
    """
    n_pes = timeline.n_pes
    horizon = max(timeline.end_time(), 1)
    widths = level_widths(horizon)
    w0 = widths[0]
    nb0 = -(-horizon // w0)

    # one row per (region, pe): MAIN rows first, then PROC, then FINISH
    pe, region, start, end = timeline.span_arrays()
    target = np.full(len(pe), -1, dtype=np.int64)
    for k, name in enumerate(("MAIN", "PROC", "FINISH")):
        target[region == name] = k
    known = target >= 0
    occupied = _spread_spans(target[known] * n_pes + pe[known], start[known],
                             end[known], w0, 3 * n_pes, nb0)
    main, proc, total = occupied.reshape(3, n_pes, nb0)
    comm = np.maximum(total - main - proc, 0)
    pe0 = _pe_dense_to_columns(main, proc, comm)

    times, srcs, dsts, sizes = timeline.net_arrays()
    if len(times):
        flat = (times // w0) * (n_pes * n_pes) + srcs * n_pes + dsts
        edge0 = _edge_group(flat, np.ones(len(times), dtype=np.int64),
                            sizes, n_pes)
    else:
        edge0 = _empty_edge()

    pe_levels = [pe0]
    edge_levels = [edge0]
    for _ in widths[1:]:
        pe_levels.append(_fold_pe(pe_levels[-1]))
        edge_levels.append(_fold_edge(edge_levels[-1], n_pes))
    return Pyramid(horizon, n_pes, widths, True, pe_levels, edge_levels)


def build_flat_pyramid(*, n_pes: int, overall=None, edges=None) -> Pyramid:
    """Single-bucket pyramid from aggregate traces (no timestamps).

    ``overall`` supplies per-PE T_MAIN/T_PROC/T_COMM and the horizon;
    ``edges`` — a logical or physical trace, or an archive section of
    either — supplies traffic.  Used by the backfill path and by
    one-shot exports that ran without a timeline.
    """
    horizon = 1
    pe0 = _empty_pe()
    if overall is not None:
        horizon = max(int(np.max(overall.t_total)), 1)
        main = np.asarray(overall.t_main, dtype=np.int64)
        proc = np.asarray(overall.t_proc, dtype=np.int64)
        comm = np.maximum(
            np.asarray(overall.t_total, dtype=np.int64) - main - proc, 0)
        pe0 = _pe_dense_to_columns(main[:, None], proc[:, None],
                                   comm[:, None])
    # one row group at a time; duplicate (src, dst) rows — other sizes or
    # kinds, streamed partial aggregates — sum into one edge
    edge_count = np.zeros((n_pes, n_pes), dtype=np.int64)
    edge_bytes = np.zeros((n_pes, n_pes), dtype=np.int64)
    if edges is not None:
        for src, dst, count, size in Frame(as_section(edges)).groups(
                "src", "dst", "count", "size"):
            edge_count += scatter_matrix(src, dst, count, edge_count.shape)
            edge_bytes += scatter_matrix(src, dst, count * size,
                                         edge_count.shape)
    src, dst = np.nonzero(edge_count > 0)
    edge0 = {
        "bucket": np.zeros(len(src), dtype=np.int64),
        "src": src.astype(np.int64),
        "dst": dst.astype(np.int64),
        "count": edge_count[src, dst],
        "bytes": edge_bytes[src, dst],
    }
    return Pyramid(horizon, n_pes, [horizon], False, [pe0], [edge0])


def build_pyramid_for_export(*, timeline=None, overall=None, physical=None,
                             logical=None) -> Pyramid | None:
    """The pyramid for one run's in-memory traces, or None if no source.

    A timeline gives the full multi-level pyramid; otherwise the
    aggregate traces degrade to a flat (single-bucket) one.
    """
    if timeline is not None and (timeline.span_count() or timeline.net_count()):
        return build_pyramid(timeline)
    edges = physical if physical is not None else logical
    if edges is None and overall is None:
        return None
    return build_flat_pyramid(
        n_pes=edges.n_pes if edges is not None else overall.n_pes,
        overall=overall, edges=edges)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

def write_pyramid(writer, pyramid: Pyramid) -> None:
    """Append the pyramid sections to an open
    :class:`~repro.core.store.writer.ArchiveWriter` (one chunk per
    level, so chunk stats on the ``level`` column prune level reads)."""
    attrs = pyramid.attrs()
    for name, columns, levels in (
        (PE_SECTION, PE_COLUMNS, pyramid.pe_levels),
        (EDGE_SECTION, EDGE_COLUMNS, pyramid.edge_levels),
    ):
        section = writer.begin_section(name, columns, attrs=attrs)
        for level, cols in enumerate(levels):
            n = len(cols["bucket"])
            section.write_chunk(
                {"level": np.full(n, level, dtype=np.int64), **cols})
        section.end()


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

def has_pyramid(archive: Archive) -> bool:
    """Does this archive carry LOD pyramid sections?"""
    return archive.has_section(PE_SECTION) or archive.has_section(EDGE_SECTION)


def pyramid_info(archive: Archive) -> PyramidInfo | None:
    """Pyramid shape from section attrs alone; None when absent or
    malformed (graceful degradation: callers print "none", not a
    traceback)."""
    for name in (PE_SECTION, EDGE_SECTION):
        if not archive.has_section(name):
            continue
        attrs = archive.section(name).attrs
        try:
            widths = tuple(int(w) for w in attrs["widths"])
            buckets = tuple(int(b) for b in attrs["buckets"])
            if not widths or len(widths) != len(buckets):
                return None
            return PyramidInfo(
                horizon=int(attrs["horizon"]),
                n_pes=int(attrs["n_pes"]),
                widths=widths,
                buckets=buckets,
                time_resolved=bool(attrs["time_resolved"]),
                has_pe=archive.has_section(PE_SECTION)
                and archive.section(PE_SECTION).rows > 0,
                has_edges=archive.has_section(EDGE_SECTION)
                and archive.section(EDGE_SECTION).rows > 0,
            )
        except (KeyError, TypeError, ValueError):
            return None
    return None


def read_level(archive: Archive, kind: str, level: int) -> dict[str, np.ndarray]:
    """Decode one level's columns of one pyramid side (``pe``/``edge``).

    Rides the :class:`Frame` chunk-stat pruning: with the one-chunk-
    per-level layout only that level's row group is decoded — per call,
    nothing is cached on the section.
    """
    name = {"pe": PE_SECTION, "edge": EDGE_SECTION}.get(kind)
    if name is None:
        raise LodError(f"unknown pyramid side {kind!r} (want pe/edge)")
    if not archive.has_section(name):
        raise LodError(f"{archive.path}: archive has no {name!r} section "
                       "(backfill with `actorprof viz RUN --backfill`)")
    columns = PE_COLUMNS if kind == "pe" else EDGE_COLUMNS
    frame = Frame(archive.section(name))
    frame.prune("level", "==", level)
    out = {c: np.zeros(0, dtype=np.int64) for c in columns[1:]}
    for levels, *values in frame.groups(*columns):
        mask = levels == level  # a stat-less group may hold other levels
        for c, v in zip(out, values):
            out[c] = np.concatenate((out[c], v[mask]))
    return out


# ----------------------------------------------------------------------
# backfill
# ----------------------------------------------------------------------

def build_pyramid_from_archive(archive: Archive) -> Pyramid:
    """A flat pyramid from an archive's aggregate sections.

    ``.aptrc`` archives store no per-event timestamps, so the backfill
    degrades to one bucket spanning the run (``time_resolved=False``);
    per-PE occupancy comes from ``overall`` and edges from ``physical``
    (falling back to ``logical``).
    """
    overall = (load_overall(archive) if archive.has_section("overall")
               else None)
    edges = next((archive.section(name) for name in ("physical", "logical")
                  if archive.has_section(name)), None)
    return build_flat_pyramid(n_pes=archive.n_pes, overall=overall,
                              edges=edges)


def backfill_pyramid(path: str | Path, out: str | Path | None = None) -> Path:
    """Add pyramid sections to an existing archive (in place by default).

    The original data region is copied byte-for-byte — existing chunk
    offsets stay valid and the pre-pyramid reader path sees the exact
    same sections — with the pyramid chunks appended and the footer
    extended.  Archives that already carry a pyramid are left unchanged
    (copied verbatim when ``out`` names a different path).
    """
    path = Path(path)
    out_path = Path(out) if out is not None else path
    tmp = out_path.with_name(out_path.name + ".lod-tmp")
    with Archive(path) as archive:
        if has_pyramid(archive):
            if out_path != path:
                shutil.copyfile(path, out_path)
            return out_path
        pyramid = build_pyramid_from_archive(archive)
        with ArchiveWriter(tmp, extend=archive) as writer:
            write_pyramid(writer, pyramid)
    tmp.replace(out_path)
    return out_path
