"""Writing ``.aptrc`` archives: one-shot export and streaming spill.

:class:`ArchiveWriter` is the low-level append-only writer: sections are
declared with a fixed column set, then filled with one or more *chunks*
(each chunk is encoded and flushed to disk immediately), and the footer
index is written on :meth:`~ArchiveWriter.close`.

:func:`export_run` is the one-shot path: hand it in-memory trace objects
and it writes each as a single-chunk section.

:class:`TraceArchiver` is the streaming path the paper's Section VI
trace-size problem calls for: it decorates a profiler exactly like
:class:`~repro.core.live.LiveMonitor` does, accumulates *partial*
aggregates of the logical and physical traces, and spills them to the
archive every ``spill_every`` events — so a billion-send run never holds
the full trace in memory.  Readers merge the partial aggregates back
together (duplicate keys sum), producing traces identical to in-memory
recording.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
from repro.core.store.archive import (
    FORMAT_VERSION,
    MAGIC,
    TAIL_MAGIC,
    TRAILER,
    Archive,
    ArchiveError,
    ChunkTable,
)
from repro.core.store.codec import encode_column
from repro.hclib.hooks import ForwardingHooks


class SectionWriter:
    """Open section of an :class:`ArchiveWriter`; accepts chunks."""

    def __init__(self, writer: "ArchiveWriter", name: str,
                 columns: tuple[str, ...], attrs: dict | None) -> None:
        self._writer = writer
        self.name = name
        self.columns = columns
        self.attrs = dict(attrs or {})
        self.rows = 0
        self._encodings: dict[str, list[str]] = {c: [] for c in columns}
        #: Per column, each chunk's (offset, length, count, min, max, sum).
        self._fields: dict[str, list[tuple]] = {c: [] for c in columns}
        self._chunk_bytes: list[int] = []
        self._closed = False

    def write_chunk(self, columns: dict) -> int:
        """Encode + flush one chunk; returns the chunk's row count.

        Every declared column must be present and all columns must have
        the same length.  Empty chunks are ignored.
        """
        if self._closed:
            raise ArchiveError(f"section {self.name!r} already ended")
        if set(columns) != set(self.columns):
            raise ArchiveError(
                f"section {self.name!r} expects columns {self.columns}, "
                f"got {tuple(sorted(columns))}"
            )
        arrays = {c: np.asarray(columns[c], dtype=np.int64).ravel()
                  for c in self.columns}
        counts = {len(a) for a in arrays.values()}
        if len(counts) > 1:
            raise ArchiveError(
                f"section {self.name!r} chunk has ragged columns: "
                + ", ".join(f"{c}={len(a)}" for c, a in arrays.items())
            )
        n = counts.pop()
        if n == 0:
            return 0
        for name in self.columns:
            arr = arrays[name]
            lo, hi = int(arr.min()), int(arr.max())
            payload, encoding = encode_column(arr, bounds=(lo, hi))
            offset = self._writer._append(payload)
            self._encodings[name].append(encoding)
            # int64 accumulation, matching the query layer's sums
            self._fields[name].append(
                (offset, len(payload), n, lo, hi, int(arr.sum(dtype=np.int64))))
        if "count" in arrays and "size" in arrays:
            weighted = arrays["count"] * arrays["size"]
            self._chunk_bytes.append(int(weighted.sum(dtype=np.int64)))
        self.rows += n
        return n

    def end(self, attrs: dict | None = None) -> None:
        """Finish the section, optionally merging final ``attrs``."""
        if self._closed:
            return
        if attrs:
            self.attrs.update(attrs)
        self._closed = True
        self._writer._finish_section(self)

    def _table(self) -> ChunkTable:
        n, weights = len(next(iter(self._encodings.values()), ())), self._chunk_bytes
        fields = np.array([*self._fields.values()], np.int64)
        return ChunkTable(self._encodings, fields.reshape(len(self.columns), n, 6),
                          np.array(weights, np.int64) if weights else None)


class ArchiveWriter:
    """Streaming writer for a ``.aptrc`` file (append-only + footer).

    Every chunk's min/max/sum (and, for ``count``/``size`` sections,
    the weighted byte sum) goes into the footer index — the stats query
    pushdown prunes on (``docs/TRACE_STORE.md``).

    ``extend`` starts from an open :class:`Archive` instead of an empty
    file: its data region is copied byte-for-byte (chunk offsets stay
    valid), its metadata and its sections' checked chunk tables are
    carried over, and new sections append after it; the result is
    stamped with the current format version whatever the archive's own.
    ``path`` must not be the archive's own file.
    """

    def __init__(self, path: str | Path, meta: dict | None = None,
                 extend: Archive | None = None) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self._open: dict[str, SectionWriter] = {}
        #: ``(attrs, rows, chunk table)`` of the finished sections, by name.
        self._done: dict[str, tuple[dict, int, ChunkTable]] = {}
        self._closed = False
        for name in extend.sections if extend is not None else ():
            section = extend.section(name)  # checked before the output exists
            self._done[name] = (section.attrs, section.rows, section._chunks)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("wb")
        if extend is None:
            self._file.write(MAGIC)
            self._pos = len(MAGIC)
        else:
            self.meta = {**extend.meta, **self.meta}
            with extend.path.open("rb") as source:
                self._file.write(source.read(extend.data_end))
            self._pos = extend.data_end

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.close()

    # -- sections --------------------------------------------------------

    def begin_section(self, name: str, columns,
                      attrs: dict | None = None) -> SectionWriter:
        """Open a section with a fixed column set; chunks follow."""
        if self._closed:
            raise ArchiveError("archive already closed")
        if name in self._open or name in self._done:
            raise ArchiveError(f"duplicate section {name!r}")
        section = SectionWriter(self, name, tuple(columns), attrs)
        self._open[name] = section
        return section

    def add_section(self, name: str, columns: dict,
                    attrs: dict | None = None) -> SectionWriter:
        """Write a whole section from in-memory columns (one chunk)."""
        section = self.begin_section(name, tuple(columns), attrs)
        section.write_chunk(columns)
        section.end()
        return section

    def _append(self, payload: bytes) -> int:
        offset = self._pos
        self._file.write(payload)
        self._pos += len(payload)
        return offset

    def _finish_section(self, section: SectionWriter) -> None:
        self._open.pop(section.name, None)
        self._done[section.name] = (section.attrs, section.rows,
                                    section._table())

    # -- finalization ----------------------------------------------------

    def close(self) -> Path:
        """End open sections, write the footer index, and flush."""
        if self._closed:
            return self.path
        for section in list(self._open.values()):
            section.end()
        footer = {
            "version": FORMAT_VERSION,
            "meta": self.meta,
            "sections": {name: {"attrs": attrs, "rows": rows,
                                "columns": table.encodings}
                         for name, (attrs, rows, table) in self._done.items()},
        }
        payload = zlib.compress(b"\0".join([
            json.dumps(footer, separators=(",", ":")).encode("utf-8"),
            b"".join(table.to_bytes() for _, _, table in self._done.values()),
        ]), 6)
        offset = self._append(payload)
        self._file.write(TRAILER.pack(offset, len(payload)))
        self._file.write(TAIL_MAGIC)
        self._file.close()
        self._closed = True
        return self.path


# ----------------------------------------------------------------------
# one-shot export
# ----------------------------------------------------------------------

def machine_meta(spec) -> dict:
    """Footer metadata describing the simulated machine."""
    return {**spec.attrs(), "n_pes": spec.n_pes}


def degraded_meta(world, failure: BaseException | None) -> dict:
    """Footer stamp of a run that died: the failure's headline and PE,
    which PEs had crashed when, and the injected-fault schedule.

    Only the first line of the message is stored: a ``PEFailure``
    continues with a traceback, and source paths or scheduler line
    numbers must not reach archive bytes (it stays on ``__cause__``)."""
    degraded: dict = {"degraded": True}
    if failure is not None:
        headline = str(failure).partition("\n")[0]
        degraded["failure"] = f"{type(failure).__name__}: {headline}"
        if hasattr(failure, "rank"):
            degraded["failure_pe"] = failure.rank
    if world is not None:
        crashed = getattr(world.scheduler, "crashed", {})
        if crashed:
            degraded["crashed_pes"] = {
                str(r): t for r, t in sorted(crashed.items())
            }
        faults = getattr(world, "faults", None)
        if faults is not None:
            degraded["fault_schedule"] = faults.schedule_rows()
    return degraded


def _base_meta(logical=None, physical=None, papi=None, overall=None) -> dict:
    """Machine metadata inferred from whichever traces are present."""
    spec = None
    if logical is not None:
        spec = logical.spec
    elif papi is not None:
        spec = papi.spec
    if spec is not None:
        return machine_meta(spec)
    n_pes = None
    if physical is not None:
        n_pes = physical.n_pes
    elif overall is not None:
        n_pes = overall.n_pes
    if n_pes is None:
        return {}
    # no node structure known: describe the allocation as one flat node
    return {"nodes": 1, "pes_per_node": n_pes, "n_pes": n_pes}


def export_run(
    path: str | Path,
    *,
    logical=None,
    physical=None,
    papi=None,
    overall=None,
    timeline=None,
    meta: dict | None = None,
    lod: bool = False,
) -> Path:
    """Write the given traces into a single ``.aptrc`` archive.

    Any subset of the four trace kinds may be supplied; ``meta`` entries
    override the machine metadata inferred from the traces.

    ``lod=True`` additionally computes and stores the level-of-detail
    summary pyramid (:mod:`repro.core.store.lod`) at finalize —
    time-resolved when a ``timeline`` is supplied, flat otherwise.  It
    defaults off so existing writers stay byte-identical; ``timeline``
    is only a pyramid source, never a section of its own.
    """
    if logical is None and physical is None and papi is None and overall is None:
        raise ArchiveError("export_run needs at least one trace")
    full_meta = _base_meta(logical, physical, papi, overall)
    full_meta.update(meta or {})
    with ArchiveWriter(path, meta=full_meta) as writer:
        for name, trace in (("logical", logical), ("physical", physical),
                            ("papi", papi), ("overall", overall)):
            if trace is not None:
                columns, attrs = trace.to_columns()
                writer.add_section(name, columns, attrs)
        if lod:
            from repro.core.store.lod import (
                build_pyramid_for_export,
                write_pyramid,
            )

            pyramid = build_pyramid_for_export(
                timeline=timeline, overall=overall, physical=physical,
                logical=logical)
            if pyramid is not None:
                write_pyramid(writer, pyramid)
        return writer.path


# ----------------------------------------------------------------------
# streaming spill (profiler decorator)
# ----------------------------------------------------------------------

class TraceArchiver(ForwardingHooks):
    """Spill logical + physical traces to an archive incrementally.

    Decorates an inner profiler (or ``None``) exactly like
    :class:`~repro.core.live.LiveMonitor`::

        arch = TraceArchiver("run.aptrc", spill_every=100_000)
        run_spmd(program, machine=spec, profiler=arch)
        arch.close()                       # finalizes run.aptrc

    Events go into a :class:`LogicalTrace` and a :class:`PhysicalTrace`
    (the aggregators :class:`ActorProf` uses), so between spills only a
    *partial* aggregate — one entry per distinct route seen since the
    last spill — is in memory; every ``spill_every`` recorded events
    their ``to_columns()`` is encoded, appended, and dropped.  PAPI or
    overall data the inner profiler recorded is added at :meth:`close`.
    A pyramid comes from :func:`~repro.core.store.lod.backfill_pyramid`.
    """

    def __init__(self, path: str | Path, inner=None,
                 spill_every: int = 250_000, meta: dict | None = None) -> None:
        if spill_every < 1:
            raise ValueError("spill_every must be >= 1")
        super().__init__(inner)
        self.spill_every = spill_every
        self._path = Path(path)
        self._meta = dict(meta or {})
        self._writer: ArchiveWriter | None = None
        self._streams: tuple[tuple[SectionWriter, object], ...] = ()
        self._pending = 0
        self.spills = 0

    # -- profiler protocol -----------------------------------------------

    def attach(self, world):
        """Wire into the world; returns (hooks, tracer) like ActorProf."""
        super().attach(world)
        spec = world.spec
        self._logical = LogicalTrace(spec)
        self._physical = PhysicalTrace(spec.n_pes, spec=spec)
        self._writer = ArchiveWriter(
            self._path, meta={**machine_meta(spec), **self._meta})
        self._streams = tuple(
            (self._writer.begin_section(name, trace.to_columns()[0]), trace)
            for name, trace in (("logical", self._logical),
                                ("physical", self._physical)))
        return self, self

    def _attached_writer(self) -> ArchiveWriter:
        if self._writer is None:
            raise ArchiveError("TraceArchiver is not attached to a run")
        return self._writer

    # -- spilling ----------------------------------------------------------

    def _recorded(self, n: int) -> None:
        self._pending += n
        if self._pending >= self.spill_every:
            self.spill()

    def spill(self) -> None:
        """Flush the current partial aggregates to the archive."""
        self._attached_writer()
        for section, trace in self._streams:
            section.write_chunk(trace.to_columns()[0])  # empty: ignored
            trace.clear()
        self._pending = 0
        self.spills += 1

    def close(self) -> Path:
        """Spill the remainder, add inner PAPI/overall traces, finalize
        (idempotent: a second call only returns the path)."""
        writer = self._attached_writer()
        if writer._closed:
            return writer.path
        self.spill()
        for section, trace in self._streams:
            section.end(attrs=trace.to_columns()[1])
        for name, attr in (("papi", "papi_trace"), ("overall", "overall")):
            trace = getattr(self.inner, attr, None)
            if trace is not None:
                writer.add_section(name, *trace.to_columns())
        return writer.close()

    def salvage(self, failure: BaseException | None = None,
                meta: dict | None = None) -> Path:
        """Finalize the archive for a run that died mid-execution.

        Because the writer is append-only and the footer is written at
        close, everything spilled before the failure is already on disk;
        salvaging just stamps the footer metadata ``degraded`` (plus the
        failure and any injected-fault schedule) and closes normally.
        The result is a fully loadable ``.aptrc``.  After :meth:`close`
        this only returns the path.
        """
        writer = self._attached_writer()
        if not writer._closed:
            writer.meta.update(degraded_meta(self._world, failure))
            writer.meta.update(meta or {})
        return self.close()

    # -- observed events (everything else forwards untouched) --------------

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:
        self._logical.record(pe, dst, nbytes)
        super().send(pe, mailbox, dst, nbytes)
        self._recorded(1)

    def send_batch(self, pe: int, mailbox: int, dsts, nbytes: int) -> None:
        self._logical.record_batch(pe, dsts, nbytes)
        super().send_batch(pe, mailbox, dsts, nbytes)
        self._recorded(len(dsts))

    def record(self, send_type: str, nbytes: int, src_pe: int, dst_pe: int,
               time: int) -> None:
        self._physical.record(send_type, nbytes, src_pe, dst_pe, time)
        super().record(send_type, nbytes, src_pe, dst_pe, time)
        self._recorded(1)
