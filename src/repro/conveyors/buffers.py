"""Aggregation buffer machinery.

Items travel through Conveyors as fixed-width rows of int64 words:

``[final_dst, src, payload_0, .., payload_{w-1}]``

The two header words carry routing state (final destination) and
provenance (originating PE — what ``convey_pull`` hands back as "from").
Buffers are preallocated ``(capacity, width)`` arrays filled in place, so
both the scalar ``push`` path and the vectorized batch path write into the
same representation and produce identical flush sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Words of routing header preceding the payload in each item row.
HEADER_WORDS = 2

COL_DST = 0
COL_SRC = 1


class OutBuffer:
    """One aggregation buffer toward a single next-hop PE."""

    __slots__ = ("hop", "capacity", "width", "rows", "count")

    def __init__(self, hop: int, capacity: int, width: int) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive: {capacity}")
        self.hop = hop
        self.capacity = capacity
        self.width = width
        self.rows = np.empty((capacity, width), dtype=np.int64)
        self.count = 0

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    @property
    def empty(self) -> bool:
        return self.count == 0

    @property
    def space(self) -> int:
        return self.capacity - self.count

    def append(self, final_dst: int, src: int, payload: tuple[int, ...]) -> None:
        """Append one item (caller must have checked :attr:`full`)."""
        row = self.rows[self.count]
        row[COL_DST] = final_dst
        row[COL_SRC] = src
        row[HEADER_WORDS:] = payload
        self.count += 1

    def append_rows(self, block: np.ndarray) -> None:
        """Append pre-built item rows (caller must have checked space)."""
        n = len(block)
        self.rows[self.count : self.count + n] = block
        self.count += n

    def take(self) -> np.ndarray:
        """Detach and return the filled rows, leaving the buffer empty."""
        out = self.rows[: self.count]
        self.rows = np.empty((self.capacity, self.width), dtype=np.int64)
        self.count = 0
        return out


@dataclass(slots=True)
class InboundBuffer:
    """A delivered buffer waiting to be ingested by the receiving PE."""

    arrival: int
    hop_src: int
    kind: str  # "local_send" | "nonblock_send"
    data: np.ndarray
    #: Injected duplicate delivery (fault injection).  The receiver
    #: detects and discards it — like a sequence-number check in a real
    #: transport — so exactly-once item semantics survive.
    duplicate: bool = False

    @property
    def count(self) -> int:
        return len(self.data)


class ReadyQueue:
    """Items that reached their final destination, awaiting ``pull``.

    Stores delivered segments (arrays) and serves items one at a time via
    a cursor, or whole segments via :meth:`take_all` for batch handlers.
    """

    def __init__(self) -> None:
        self._segments: list[np.ndarray] = []
        self._cursor = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0

    def put(self, rows: np.ndarray) -> None:
        if len(rows) == 0:
            return
        self._segments.append(rows)
        self._count += len(rows)

    def pop(self) -> np.ndarray | None:
        """Remove and return the next item row, or None when empty."""
        while self._segments:
            seg = self._segments[0]
            if self._cursor < len(seg):
                row = seg[self._cursor]
                self._cursor += 1
                self._count -= 1
                return row
            self._segments.pop(0)
            self._cursor = 0
        return None

    def take_all(self) -> list[np.ndarray]:
        """Remove and return every pending segment (batch-handler path)."""
        out = self._segments
        if self._cursor:  # scalar pops consumed the head of the first
            rest = out[0][self._cursor :]
            out[:1] = [rest] if len(rest) else []
        self._segments = []
        self._cursor = 0
        self._count = 0
        return out


@dataclass
class ConveyorStats:
    """Per-endpoint operation counts (used by tests and reports)."""

    pushes: int = 0
    push_fails: int = 0
    pulls: int = 0
    forwarded: int = 0
    buffers_sent: dict[str, int] = field(default_factory=dict)
    bytes_sent: dict[str, int] = field(default_factory=dict)
    progress_calls: int = 0
    #: Fault-injection accounting.  Retries/duplicates are tracked here,
    #: NOT in ``buffers_sent`` / the physical trace: a wire transfer is
    #: recorded as ``nonblock_send`` exactly once however many injected
    #: drops preceded it, and an injected duplicate delivery adds no
    #: second record.
    retries: int = 0
    duplicates: int = 0
    dups_discarded: int = 0
    delayed: int = 0

    def note_send(self, kind: str, nbytes: int) -> None:
        self.buffers_sent[kind] = self.buffers_sent.get(kind, 0) + 1
        self.bytes_sent[kind] = self.bytes_sent.get(kind, 0) + nbytes
