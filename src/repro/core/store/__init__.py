""":mod:`repro.core.store` — the persistent trace store.

The paper's text formats (``PEi_send.csv``, ``physical.txt``, …) expand
one line per send, so large runs emit millions of rows that must be fully
re-parsed for every query, diff, or figure — the trace-size problem the
paper's Section VI flags.  This package provides the compact alternative:

* :mod:`~repro.core.store.codec` — per-chunk bit-packing or delta +
  varint (+ zlib) encoding, whichever is smaller,
* :mod:`~repro.core.store.archive` — the single-file ``.aptrc`` binary
  columnar archive (header, sections, footer index) with lazy per-column
  reads,
* :mod:`~repro.core.store.writer` — streaming :class:`ArchiveWriter` and
  the :class:`TraceArchiver` profiler decorator that spills incrementally,
* :mod:`~repro.core.store.frame` — :class:`Frame`, the pruned columnar
  view that turns footer chunk stats into query pushdown,
* :mod:`~repro.core.store.registry` — the on-disk :class:`RunRegistry`
  behind ``actorprof runs list / show / rm``,
* :mod:`~repro.core.store.lod` — level-of-detail summary pyramids
  (time-bucketed per-PE/per-edge aggregates at coarsening resolutions)
  written at archive finalize or backfilled into existing archives.
"""

from repro.core.store.archive import (
    Archive,
    RunTraces,
    Section,
    load_logical,
    load_overall,
    load_papi,
    load_physical,
    load_run,
)
from repro.core.store.codec import decode_column, encode_column
from repro.core.store.frame import Frame
from repro.core.store.lod import (
    Pyramid,
    PyramidInfo,
    backfill_pyramid,
    build_pyramid,
    has_pyramid,
    pyramid_info,
    read_level,
    write_pyramid,
)
from repro.core.store.registry import RunInfo, RunRegistry
from repro.core.store.writer import ArchiveWriter, TraceArchiver, export_run

__all__ = [
    "Archive",
    "ArchiveWriter",
    "Frame",
    "Pyramid",
    "PyramidInfo",
    "RunInfo",
    "RunRegistry",
    "RunTraces",
    "Section",
    "TraceArchiver",
    "backfill_pyramid",
    "build_pyramid",
    "decode_column",
    "encode_column",
    "export_run",
    "has_pyramid",
    "load_logical",
    "load_overall",
    "load_papi",
    "load_physical",
    "load_run",
    "pyramid_info",
    "read_level",
    "write_pyramid",
]
