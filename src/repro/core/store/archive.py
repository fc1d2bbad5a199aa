"""The ``.aptrc`` single-file binary columnar trace archive (reader side).

Layout::

    +----------------------------+
    | magic  "APTRC01\\n" (8 B)   |
    +----------------------------+
    | chunk payloads …           |   encoded column bytes, append-only
    +----------------------------+
    | footer  zlib(JSON)         |   run metadata + section/column index
    +----------------------------+
    | footer offset  (u64 LE)    |
    | footer length  (u32 LE)    |
    | tail magic "APTRCEND" (8 B)|
    +----------------------------+

The footer JSON indexes every section and, per column, the list of
chunks (offset, length, encoding, count, stats) its data lives in.  A reader
therefore reads (by position) just the bytes of one column of one section and
decodes nothing else — :class:`Archive` tracks exactly which columns
have been decoded (:attr:`Archive.decoded_columns`) so tests can assert
that laziness.

Sections written by :func:`repro.core.store.writer.export_run`:

=============  =====================================================
``logical``    aggregated logical sends: src, dst, size, count
``physical``   Conveyors ops: kind (code), size, src, dst, count
``papi``       sampled PAPI rows: src, dst, pkt_size, mailbox,
               num_sends, ev_0 … ev_{k-1}
``overall``    per-PE cycles: t_main, t_proc, t_total
=============  =====================================================

Chunked columns arise from streaming writers
(:class:`~repro.core.store.writer.TraceArchiver`): aggregate sections
may contain *partial* aggregates per chunk, which the trace
constructors merge by summing duplicate keys.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.store.codec import CodecError, decode_column
from repro.machine.spec import MachineSpec

MAGIC = b"APTRC01\n"
TAIL_MAGIC = b"APTRCEND"
TRAILER = struct.Struct("<QI")  # footer offset, footer length
#: Stamped by every writer; bumped whenever a file may hold something an
#: older reader would misread (2 added ``pack`` chunks).
FORMAT_VERSION = 2
#: What this reader accepts (1: recipe chunks only, chunk stats optional).
READABLE_VERSIONS = (1, 2)
#: Most rows a reader accepts in one chunk: no payload bytes back a
#: constant ``pack`` chunk's count, so a tiny file could ask for any size.
MAX_CHUNK_ROWS = 2 ** 31

#: Conventional file suffix for trace archives.
SUFFIX = ".aptrc"


class ArchiveError(ValueError):
    """Raised when a ``.aptrc`` file is malformed or unreadable."""


class ChunkRef(NamedTuple):
    """Location of one encoded chunk of one column.

    ``stats`` is the optional ``(min, max, sum)`` of the chunk's decoded
    values, recorded by writers since the chunk-stats footer extension;
    archives written before it carry ``None`` and readers fall back to
    full decoding.
    """

    offset: int
    length: int
    encoding: str
    count: int
    stats: tuple[int, int, int] | None = None


class Section:
    """Lazy view of one archive section; decodes columns on demand."""

    def __init__(self, archive: "Archive", name: str, index: dict) -> None:
        self._archive = archive
        self.name = name
        self._index = index
        self.attrs: dict = index.get("attrs", {})
        self.rows: int = int(index.get("rows", 0))
        raw_bytes = index.get("chunk_bytes")
        #: Per row-group ``sum(count * size)``, when the writer stored it.
        self.chunk_bytes: list[int] | None = (
            [int(w) for w in raw_bytes] if raw_bytes is not None else None
        )
        self._cache: dict[str, np.ndarray] = {}

    @cached_property
    def _chunks(self) -> dict[str, list[ChunkRef]]:
        """The chunk table, built (and checked) on first use.

        Every column has the same per-chunk row counts, summing to
        :attr:`rows` — one row group spans all columns, which is what
        makes chunk-level pruning sound — and every chunk lies inside
        the archive's data region.
        """
        where = f"{self._archive.path}: section {self.name!r}"
        table, col = {}, None
        try:
            for col, entries in self._index.get("columns", {}).items():
                table[col] = [self._chunk_ref(entry) for entry in entries]
        except (AttributeError, TypeError, ValueError, LookupError) as exc:
            raise ArchiveError(f"{where} column {col!r} has a malformed "
                               f"chunk entry: {exc}") from None
        groups = {tuple(ref.count for ref in refs) for refs in table.values()}
        if len(groups) > 1 or any(sum(g) != self.rows for g in groups):
            raise ArchiveError(f"{where} row groups disagree across columns "
                               f"or with its {self.rows} rows")
        return table

    def _chunk_ref(self, entry) -> ChunkRef:
        offset, length, encoding, count, *stats = entry
        offset, length, count = index(offset), index(length), index(count)
        if stats:
            low, high, total = stats[0]
            stats = (index(low), index(high), index(total))
        if (offset < 0 or length < 0
                or offset + length > self._archive.data_end
                or not 0 <= count <= MAX_CHUNK_ROWS
                or not isinstance(encoding, str)):
            raise ValueError(f"{entry!r} out of bounds")
        return ChunkRef(offset, length, encoding, count, stats or None)

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the columns stored in this section."""
        return tuple(self._chunks)

    @property
    def n_chunks(self) -> int:
        """Number of row groups (0 for an empty section)."""
        return len(next(iter(self._chunks.values()), ()))

    def chunk_refs(self, name: str) -> tuple[ChunkRef, ...]:
        """The chunk index entries of one column."""
        if name not in self._chunks:
            raise ArchiveError(
                f"section {self.name!r} has no column {name!r} "
                f"(have {sorted(self._chunks)})"
            )
        return tuple(self._chunks[name])

    def decode_chunk(self, name: str, ref: ChunkRef) -> np.ndarray:
        """Read + decode one chunk of one column, uncached."""
        return self._archive._decode_chunk(self.name, name, ref)

    def column(self, name: str) -> np.ndarray:
        """Read + decode one column (cached, its chunks not); int64 ``rows``."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        parts = [self.decode_chunk(name, ref) for ref in self.chunk_refs(name)]
        out = parts[0] if len(parts) == 1 else np.concatenate(
            parts or [np.zeros(0, dtype=np.int64)])
        self._cache[name] = out
        return out

    def read(self) -> dict[str, np.ndarray]:
        """Decode every column of this section."""
        return {name: self.column(name) for name in self._chunks}


class Archive:
    """Reader for a ``.aptrc`` file.

    Opening an archive reads only the fixed-size trailer and the footer
    index — no trace data.  Column bytes are fetched and decoded lazily
    through :meth:`Section.column`, and every decode is logged in
    :attr:`decoded_columns` as ``(section, column)`` pairs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: ``(section, column)`` pairs actually decoded so far.
        self.decoded_columns: set[tuple[str, str]] = set()
        self._file = self.path.open("rb")
        try:
            self._read_footer()
        except Exception:
            self._file.close()
            raise

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Archive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    # -- index -----------------------------------------------------------

    def _read_footer(self) -> None:
        fd = self._file.fileno()
        size = os.fstat(fd).st_size
        tail_len = TRAILER.size + len(TAIL_MAGIC)
        if size < len(MAGIC) + tail_len:
            raise ArchiveError(f"{self.path}: too small to be an archive")
        if os.pread(fd, len(MAGIC), 0) != MAGIC:
            raise ArchiveError(f"{self.path}: bad magic (not a .aptrc file)")
        trailer = os.pread(fd, tail_len, size - tail_len)
        if trailer[TRAILER.size:] != TAIL_MAGIC:
            raise ArchiveError(f"{self.path}: truncated (missing tail magic)")
        foot_off, foot_len = TRAILER.unpack(trailer[: TRAILER.size])
        if foot_off + foot_len > size - tail_len:
            raise ArchiveError(f"{self.path}: footer index out of bounds")
        try:
            footer = json.loads(zlib.decompress(os.pread(fd, foot_len, foot_off)))
        except (zlib.error, ValueError) as exc:
            raise ArchiveError(f"{self.path}: footer corrupt: {exc}") from exc
        version = footer.get("version") if isinstance(footer, dict) else None
        if version not in READABLE_VERSIONS:
            raise ArchiveError(
                f"{self.path}: unsupported format version {version!r} "
                f"(this reader accepts {READABLE_VERSIONS})"
            )
        self.meta: dict = footer.get("meta", {})
        #: End of the chunk-payload region, i.e. the footer's file offset.
        self.data_end: int = foot_off
        #: The footer's section index as stored — what a writer that
        #: extends this archive must carry over unchanged.
        self.section_index: dict = footer.get("sections", {})
        try:
            self._sections: dict[str, Section] = {
                name: Section(self, name, idx)
                for name, idx in self.section_index.items()
            }
        except (AttributeError, TypeError, ValueError) as exc:
            raise ArchiveError(
                f"{self.path}: footer section index malformed: {exc}"
            ) from None

    @property
    def sections(self) -> tuple[str, ...]:
        """Names of the sections present in this archive."""
        return tuple(self._sections)

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def section(self, name: str) -> Section:
        try:
            return self._sections[name]
        except KeyError:
            raise ArchiveError(
                f"{self.path}: no section {name!r} "
                f"(have {sorted(self._sections)})"
            ) from None

    def _decode_chunk(self, section: str, column: str, ref: ChunkRef) -> np.ndarray:
        payload = os.pread(self._file.fileno(), ref.length, ref.offset)
        if len(payload) != ref.length:
            raise ArchiveError(
                f"{self.path}: short read in section {section!r} "
                f"column {column!r}"
            )
        self.decoded_columns.add((section, column))
        try:
            return decode_column(payload, ref.encoding, ref.count)
        except CodecError as exc:
            raise ArchiveError(
                f"{self.path}: section {section!r} column {column!r} "
                f"chunk at offset {ref.offset} is corrupt: {exc}"
            ) from exc

    # -- run metadata ----------------------------------------------------

    def spec(self) -> MachineSpec:
        """The run's :class:`MachineSpec`, from footer metadata."""
        try:
            return MachineSpec.from_attrs(self.meta)
        except KeyError as exc:
            raise ArchiveError(
                f"{self.path}: footer metadata is missing {exc}"
            ) from exc

    @property
    def n_pes(self) -> int:
        return self.spec().n_pes

    @property
    def degraded(self) -> bool:
        """True when this archive was salvaged from a failed run."""
        return bool(self.meta.get("degraded", False))


# ----------------------------------------------------------------------
# trace loaders
# ----------------------------------------------------------------------

def _loader(kind: str, trace_cls):
    """The loader materializing the ``kind`` trace of an open archive."""
    def load(archive: Archive):
        section = archive.section(kind)
        return trace_cls.from_columns(section.read(), section.attrs)
    return load


#: Trace kind → the loader materializing it from an open archive.
LOADERS = {kind: _loader(kind, cls) for kind, cls in (
    ("logical", LogicalTrace), ("physical", PhysicalTrace),
    ("papi", PAPITrace), ("overall", OverallProfile))}
load_logical, load_physical, load_papi, load_overall = LOADERS.values()


@dataclass
class RunTraces:
    """The (optional) four trace kinds of one run, plus its metadata."""

    logical: LogicalTrace | None = None
    physical: PhysicalTrace | None = None
    papi: PAPITrace | None = None
    overall: OverallProfile | None = None
    meta: dict = field(default_factory=dict)

    def kinds(self) -> tuple[str, ...]:
        """Which trace kinds are present."""
        return tuple(
            k for k in ("logical", "physical", "papi", "overall")
            if getattr(self, k) is not None
        )

    @property
    def degraded(self) -> bool:
        """True when these traces were salvaged from a failed run."""
        return bool(self.meta.get("degraded", False))


def load_run(path: str | Path) -> RunTraces:
    """Open an archive and materialize every stored trace kind."""
    with Archive(path) as archive:
        out = RunTraces(meta=dict(archive.meta))
        for kind, loader in LOADERS.items():
            if archive.has_section(kind):
                setattr(out, kind, loader(archive))
        return out


def is_archive(path: str | Path) -> bool:
    """Cheap check: does ``path`` look like a ``.aptrc`` archive file?"""
    path = Path(path)
    if not path.is_file():
        return False
    if path.suffix == SUFFIX:
        return True
    try:
        with path.open("rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
