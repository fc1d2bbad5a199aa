"""Viewport queries over LOD summary pyramids.

:mod:`repro.core.store.lod` builds and persists the pyramids; this
module answers the question the viz layer actually asks: *given a
viewport ``[t0, t1)`` and a target resolution, which level do I read
and what are its aggregates?*  The level-selection rule (documented in
``docs/VIZ.md``) is:

    pick the **coarsest** level whose bucket count across the viewport
    is still >= the requested resolution; if even the finest level has
    fewer buckets than requested, use the finest level.

That keeps every response O(resolution): zooming in drops to finer
levels (drill-down refinement), zooming out climbs to coarser ones,
and the decoded payload never exceeds ~2x the requested resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rowstore import scatter_matrix
from repro.core.store.archive import Archive
from repro.core.store.lod import (
    LodError,
    Pyramid,
    PyramidInfo,
    pyramid_info,
    read_level,
)

#: Default viewport resolutions (buckets across the window) per view.
DEFAULT_RES = {"gantt": 96, "heatmap": 16, "timeline": 120}


@dataclass(frozen=True)
class Viewport:
    """A bucket-aligned window at one pyramid level."""

    level: int
    width: int        # bucket width (cycles) at this level
    b0: int           # first bucket index (inclusive)
    b1: int           # last bucket index (exclusive)
    t0: int           # snapped window start (b0 * width)
    t1: int           # snapped window end (min(b1 * width, horizon))

    @property
    def buckets(self) -> int:
        return self.b1 - self.b0


@dataclass(frozen=True)
class PeSeries:
    """Per-PE occupancy over a viewport: ``occ[pe, bucket] = (main,
    proc, comm)`` cycles, dense (zeros where the pyramid is sparse)."""

    viewport: Viewport
    occ: np.ndarray   # (n_pes, buckets, 3) int64


@dataclass(frozen=True)
class EdgeWindow:
    """Message counts between PEs over a viewport."""

    viewport: Viewport
    count: np.ndarray  # (n_pes, n_pes) int64 message counts


class LodView:
    """Level-picking reader over a pyramid (archive-backed or in-memory).

    Archive-backed views decode exactly one level chunk per query via
    :func:`~repro.core.store.lod.read_level`; the raw event sections
    are never touched (the decode-spy tests assert this).
    """

    def __init__(self, info: PyramidInfo, reader) -> None:
        self.info = info
        self._reader = reader  # (kind, level, names) -> columns dict

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_archive(cls, archive: Archive) -> "LodView":
        info = pyramid_info(archive)
        if info is None:
            raise LodError(
                f"{archive.path}: no LOD pyramid sections "
                "(backfill with `actorprof viz RUN --backfill`)")
        return cls(info, lambda *key: read_level(archive, *key))

    @classmethod
    def from_pyramid(cls, pyramid: Pyramid) -> "LodView":
        info = PyramidInfo(
            horizon=pyramid.horizon,
            n_pes=pyramid.n_pes,
            widths=tuple(pyramid.widths),
            buckets=tuple(pyramid.buckets()),
            time_resolved=pyramid.time_resolved,
            has_pe=any(len(c["bucket"]) for c in pyramid.pe_levels),
            has_edges=any(len(c["bucket"]) for c in pyramid.edge_levels),
        )
        levels = {"pe": pyramid.pe_levels, "edge": pyramid.edge_levels}

        def reader(kind: str, level: int, names=None):
            return levels[kind][level]

        return cls(info, reader)

    # -- level selection ------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.info.horizon

    @property
    def n_pes(self) -> int:
        return self.info.n_pes

    def clamp(self, t0: int | None, t1: int | None) -> tuple[int, int]:
        """Normalize a raw window to ``0 <= t0 < t1 <= horizon``."""
        lo = 0 if t0 is None else max(int(t0), 0)
        hi = self.horizon if t1 is None else min(int(t1), self.horizon)
        if hi <= lo:
            lo, hi = 0, self.horizon
        return lo, hi

    def select_level(self, t0: int, t1: int, res: int) -> int:
        """Coarsest level with >= ``res`` buckets across ``[t0, t1)``."""
        span = max(int(t1) - int(t0), 1)
        res = max(int(res), 1)
        for level in range(self.info.levels - 1, -1, -1):
            if -(-span // self.info.widths[level]) >= res:
                return level
        return 0

    def viewport(self, t0: int | None = None, t1: int | None = None,
                 res: int = 96) -> Viewport:
        """Snap a window to bucket boundaries of the selected level."""
        lo, hi = self.clamp(t0, t1)
        level = self.select_level(lo, hi, res)
        width = self.info.widths[level]
        b0 = lo // width
        b1 = min(-(-hi // width), self.info.buckets[level])
        if b1 <= b0:
            b1 = b0 + 1
        return Viewport(level=level, width=width, b0=b0, b1=b1,
                        t0=b0 * width, t1=min(b1 * width, self.horizon))

    # -- aggregates -----------------------------------------------------

    def pe_series(self, t0: int | None = None, t1: int | None = None,
                  res: int = 96) -> PeSeries:
        """Dense per-PE MAIN/PROC/COMM occupancy over the viewport."""
        vp = self.viewport(t0, t1, res)
        cols = self._reader("pe", vp.level)
        occ = np.zeros((self.n_pes, vp.buckets, 3), dtype=np.int64)
        bucket = np.asarray(cols["bucket"], dtype=np.int64)
        mask = (bucket >= vp.b0) & (bucket < vp.b1)
        if mask.any():
            b = bucket[mask] - vp.b0
            pe = np.asarray(cols["pe"], dtype=np.int64)[mask]
            for i, name in enumerate(("t_main", "t_proc", "t_comm")):
                occ[pe, b, i] = np.asarray(cols[name], dtype=np.int64)[mask]
        return PeSeries(viewport=vp, occ=occ)

    def edge_window(self, t0: int | None = None, t1: int | None = None,
                    res: int = 16) -> EdgeWindow:
        """The message-count matrix over the viewport."""
        vp = self.viewport(t0, t1, res)
        cols = self._reader("edge", vp.level, ("bucket", "src", "dst", "count"))
        bucket = cols["bucket"]
        mask = (bucket >= vp.b0) & (bucket < vp.b1)
        count = scatter_matrix(cols["src"][mask], cols["dst"][mask],
                               cols["count"][mask], (self.n_pes, self.n_pes))
        return EdgeWindow(viewport=vp, count=count)

    def refine(self, vp: Viewport, bucket: int, res: int = 96) -> Viewport:
        """Drill down into one bucket of a prior viewport.

        Returns the viewport covering ``[bucket*width, (bucket+1)*width)``
        at whatever finer level the selection rule picks — the pan/zoom
        HTML uses exactly this to refine on click.
        """
        lo = bucket * vp.width
        hi = min((bucket + 1) * vp.width, self.horizon)
        return self.viewport(lo, hi, res)


def open_lod(archive: Archive) -> LodView:
    """Archive-backed :class:`LodView`; falls back to building a flat
    in-memory pyramid when the archive predates LOD sections."""
    info = pyramid_info(archive)
    if info is not None:
        return LodView.from_archive(archive)
    from repro.core.store.lod import build_pyramid_from_archive
    return LodView.from_pyramid(build_pyramid_from_archive(archive))
