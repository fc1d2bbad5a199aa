"""The ``.aptrc`` single-file binary columnar trace archive (reader side).

Layout::

    +----------------------------+
    | magic  "APTRC01\\n" (8 B)   |
    +----------------------------+
    | chunk payloads …           |   encoded column bytes, append-only
    +----------------------------+
    | footer zlib(JSON \\0 table) |   metadata, section index, chunk table
    +----------------------------+
    | footer offset  (u64 LE)    |
    | footer length  (u32 LE)    |
    | tail magic "APTRCEND" (8 B)|
    +----------------------------+

The footer JSON names every section and, per column, its chunks'
encodings; the int64 chunk table after it holds each chunk's offset,
length, row count and ``(min, max, sum)`` stats (format version 3;
versions 1 and 2 kept those in the JSON too).  A reader therefore reads
(by position) just the bytes of one column of one section and decodes
nothing else — :class:`Archive` tracks exactly which columns have been
decoded (:attr:`Archive.decoded_columns`) so tests can assert that
laziness.

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
#: older reader would misread (2 added ``pack`` chunks, 3 the binary
#: chunk table).
FORMAT_VERSION = 3
#: What this reader accepts (1: recipe chunks only, chunk stats optional).
READABLE_VERSIONS = (1, 2, 3)
#: Most rows a reader accepts in one chunk: no payload bytes back a
#: constant ``pack`` chunk's count, so a tiny file could ask for any size.
MAX_CHUNK_ROWS = 2 ** 31
#: A chunk's ``(min, max, sum)`` when it has none: an empty interval.
NO_STATS = (1, 0, 0)

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


class ChunkTable(NamedTuple):
    """One section's chunk table, as arrays.

    ``fields[c, g]`` holds the int64 ``(offset, length, count, min, max,
    sum)`` of column ``c``'s chunk in row group ``g`` (a chunk whose min
    exceeds its max, :data:`NO_STATS`, has no stats); ``encodings`` maps
    each column name to its chunks' encodings, in column order; and
    ``weights`` holds each row group's ``sum(count * size)``, or is None.
    """

    encodings: dict[str, list[str]]
    fields: np.ndarray
    weights: np.ndarray | None = None

    @property
    def n_chunks(self) -> int:
        return self.fields.shape[1]

    def column(self, name: str) -> np.ndarray:
        """The ``(n_chunks, 6)`` fields of one column."""
        return self.fields[list(self.encodings).index(name)]

    def ref(self, name: str, group: int) -> ChunkRef:
        """Column ``name``'s chunk in row group ``group``."""
        offset, length, count, lo, hi, total = self.column(name)[group].tolist()
        return ChunkRef(offset, length, self.encodings[name][group], count,
                        (lo, hi, total) if lo <= hi else None)

    def stats(self, name: str) -> tuple[np.ndarray, ...] | None:
        """Per-chunk ``(min, max, sum)`` arrays of one column, or None if
        any of its chunks has no stats."""
        lo, hi, total = self.column(name)[:, 3:].T
        return None if (lo > hi).any() else (lo, hi, total)

    def to_bytes(self) -> bytes:
        """The version-3 record: ``(n_columns, n_chunks, weighted)``,
        every column's fields, then the weights when there are any."""
        weights = self.weights
        head = (len(self.encodings), self.n_chunks, weights is not None)
        return b"".join(np.asarray(part, dtype="<i8").tobytes() for part in (
            head, self.fields, () if weights is None else weights))


def _json_entry(entry) -> tuple[str, tuple[int, ...]]:
    """A version-1/2 footer entry ``[offset, length, encoding, count(,
    [min, max, sum])]`` as its encoding and six int fields."""
    offset, length, encoding, count, *stats = entry
    lo, hi, total = stats[0] if stats else NO_STATS
    if not isinstance(encoding, str):
        raise TypeError(f"encoding {encoding!r} is not a string")
    return encoding, tuple(map(index, (offset, length, count, lo, hi, total)))


class Section:
    """Lazy view of one archive section; decodes columns on demand."""

    def __init__(self, archive: "Archive", name: str, index: dict) -> None:
        self._archive = archive
        self.name = name
        self._index = index
        #: This section's version-3 chunk-table record (None: in the JSON).
        self._words: np.ndarray | None = None
        self.attrs: dict = index.get("attrs", {})
        self.rows: int = int(index.get("rows", 0))
        self._cache: dict[str, np.ndarray] = {}

    @cached_property
    def _chunks(self) -> ChunkTable:
        """The chunk table, built (and checked, as arrays) on first use.

        Every column has the same per-chunk row counts, summing to
        :attr:`rows` — one row group spans all columns, which is what
        makes chunk-level pruning sound — every chunk lies inside the
        archive's data region and holds at most :data:`MAX_CHUNK_ROWS`
        rows, and there is one encoding string per chunk.  The first bad
        entry is reported as ``[offset, length, encoding, count(,
        stats)]``, whichever footer layout holds it.
        """
        where = f"{self._archive.path}: section {self.name!r}"
        words, encodings, col = self._words, {}, None
        try:
            columns = self._index.get("columns", {})
            if words is None:  # versions 1 and 2: JSON entries
                fields = []
                for col, entries in columns.items():
                    parsed = [_json_entry(entry) for entry in entries]
                    encodings[col] = [encoding for encoding, _ in parsed]
                    fields.append(np.array([f for _, f in parsed], np.int64))
                col, raw = None, self._index.get("chunk_bytes")
                weights = None if raw is None else np.array(
                    [index(w) for w in raw], np.int64)
            else:
                n_columns, n, weighted = words[:3].tolist()
                for col, names in columns.items():
                    if not (isinstance(names, list) and len(names) == n
                            and {*map(type, names)} <= {str}):
                        raise ValueError(f"not one encoding string for each "
                                         f"of its {n} chunks")
                    encodings[col] = names
                col, end = None, 3 + 6 * n * n_columns
                fields = words[3:end].reshape(len(columns), n, 6)
                weights = words[end:] if weighted else None
        except (AttributeError, TypeError, ValueError, LookupError,
                OverflowError) as exc:
            raise ArchiveError(f"{where} column {col!r} has a malformed "
                               f"chunk entry: {exc}") from None
        lengths = {len(names) for names in encodings.values()}
        disagree = ArchiveError(f"{where} row groups disagree across columns "
                                f"or with its {self.rows} rows")
        if len(lengths) > 1:
            raise disagree
        n, end = max(lengths, default=0), self._archive.data_end
        fields = np.reshape(fields, (len(encodings), n, 6))
        offset, length, count = fields[..., 0], fields[..., 1], fields[..., 2]
        # no negative field, and 0 <= length <= end - offset (so offset <= end)
        bad = ((fields[..., :3] < 0).any(axis=-1) | (length > end - offset)
               | (count > MAX_CHUNK_ROWS))
        if bad.any():
            c, g = divmod(int(bad.argmax()), n)
            col = list(encodings)[c]
            offset, length, count, lo, hi, total = fields[c, g].tolist()
            entry = [offset, length, encodings[col][g], count] + (
                [[lo, hi, total]] if lo <= hi else [])
            raise ArchiveError(f"{where} column {col!r} has a malformed "
                               f"chunk entry: {entry!r} out of bounds")
        if encodings and ((count != count[0]).any() or count[0].sum() != self.rows):
            raise disagree
        if weights is not None and len(weights) != n:
            weights = None
        return ChunkTable(encodings, fields, weights)

    def _table(self, *names: str) -> ChunkTable:
        """The chunk table, once every name is one of its columns."""
        table = self._chunks
        for name in names:
            if name not in table.encodings:
                raise ArchiveError(
                    f"section {self.name!r} has no column {name!r} "
                    f"(have {sorted(table.encodings)})"
                )
        return table

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the columns stored in this section."""
        return tuple(self._chunks.encodings)

    @property
    def n_chunks(self) -> int:
        """Number of row groups (0 for an empty section)."""
        return self._chunks.n_chunks

    def chunk_refs(self, name: str) -> tuple[ChunkRef, ...]:
        """The chunk index entries of one column."""
        table = self._table(name)
        return tuple(table.ref(name, g) for g in range(table.n_chunks))

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
        return {name: self.column(name) for name in self.columns}


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
            head, _, table = zlib.decompress(
                os.pread(fd, foot_len, foot_off)).partition(b"\0")
            footer = json.loads(head)
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
        try:
            self._sections: dict[str, Section] = {
                name: Section(self, name, idx)
                for name, idx in footer.get("sections", {}).items()
            }
        except (AttributeError, TypeError, ValueError) as exc:
            raise ArchiveError(
                f"{self.path}: footer section index malformed: {exc}"
            ) from None
        if version >= 3:
            self._split_table(table)

    def _split_table(self, table: bytes) -> None:
        """Hand each section its record of the version-3 chunk table (in
        section order), checking only that the records tile the table."""
        words, pos = np.frombuffer(table[:len(table) // 8 * 8], "<i8"), 0
        for section in self._sections.values():
            n_columns, n, weighted = (words[pos:pos + 3].tolist() + [-1] * 3)[:3]
            end = pos + 3 + n * (6 * n_columns + weighted)
            if min(n_columns, n, weighted) < 0 or weighted > 1 or end > len(words):
                raise ArchiveError(
                    f"{self.path}: section {section.name!r} has a malformed "
                    f"chunk entry: no whole chunk-table record at word {pos}")
            section._words, pos = words[pos:end], end
        if pos * 8 != len(table):
            raise ArchiveError(
                f"{self.path}: footer has a malformed chunk entry: the "
                f"{len(table)}-byte chunk table does not end at word {pos}")

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
