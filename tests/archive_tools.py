"""Tests-side footer surgery for ``.aptrc`` files.

No writer emits a stat-less, future-version, older-version or malformed
footer, so the tests that need one rewrite the footer of a good archive:
the data region is kept byte for byte and only the index changes.

:func:`read_footer` always hands back the JSON layout of format versions
1 and 2: a version-3 footer's binary chunk table is spelled back into
``[offset, length, encoding, count, [min, max, sum]]`` entries (plus
``chunk_bytes``) and the result is stamped version 2, so rewriting it
yields the file a version-2 writer would have left.  :func:`read_v3`
reads a version-3 footer as stored.
"""

import json
import zlib
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core.store import writer
from repro.core.store.archive import TAIL_MAGIC, TRAILER

from tests.codec_oracle import encode_column_v1


def read_v3(path) -> tuple[int, dict, bytes]:
    """``(data_end, footer JSON, chunk table bytes)`` of an archive, split
    at the footer's NUL byte without the reader (no table: ``b""``)."""
    data = Path(path).read_bytes()
    tail = len(data) - len(TAIL_MAGIC) - TRAILER.size
    offset, length = TRAILER.unpack(data[tail:tail + TRAILER.size])
    head, _, table = zlib.decompress(data[offset:offset + length]).partition(b"\0")
    return offset, json.loads(head), table


def _json_entries(footer: dict, table: bytes) -> dict:
    """A version-3 footer in the version-2 JSON layout."""
    words, pos = np.frombuffer(table, "<i8").tolist(), 0
    for index in footer["sections"].values():
        _, n, weighted = words[pos:pos + 3]
        pos += 3
        for col, encodings in index["columns"].items():
            fields = [words[pos + 6 * g:pos + 6 * g + 6] for g in range(n)]
            index["columns"][col] = [
                [offset, length, encoding, count]
                + ([[lo, hi, total]] if lo <= hi else [])
                for encoding, (offset, length, count, lo, hi, total)
                in zip(encodings, fields)]
            pos += 6 * n
        if weighted:
            index["chunk_bytes"] = words[pos:pos + n]
            pos += n
    assert pos == len(words)
    return {**footer, "version": 2}


def read_footer(path) -> tuple[int, dict]:
    """``(data_end, footer)`` of an archive in the version-1/2 JSON
    layout, parsed without the reader."""
    data_end, footer, table = read_v3(path)
    if footer["version"] >= 3:
        footer = _json_entries(footer, table)
    return data_end, footer


def rewrite_footer(path, footer: dict, out=None, table: bytes | None = None) -> Path:
    """Replace the archive's footer (in place unless ``out`` is given)
    with ``footer``'s JSON, followed by a NUL byte and ``table`` when a
    version-3 chunk table is given."""
    data_end = read_v3(path)[0]
    raw = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    payload = zlib.compress(raw if table is None else raw + b"\0" + table, 6)
    out = Path(out if out is not None else path)
    out.write_bytes(Path(path).read_bytes()[:data_end] + payload
                    + TRAILER.pack(data_end, len(payload)) + TAIL_MAGIC)
    return out


def as_v2(path) -> Path:
    """``path`` rewritten in place as a format-version-2 writer would have
    left it: the same data region under a JSON-only footer."""
    return rewrite_footer(path, read_footer(path)[1])


def strip_chunk_stats(path) -> Path:
    """Rewrite ``path`` in the pre-stats footer layout: four-field chunk
    entries and no ``chunk_bytes`` — what the reader's full-decode
    fallback exists for."""
    _, footer = read_footer(path)
    for index in footer["sections"].values():
        index.pop("chunk_bytes", None)
        index["columns"] = {col: [entry[:4] for entry in entries]
                            for col, entries in index["columns"].items()}
    return rewrite_footer(path, footer)


def as_v1(write, path) -> Path:
    """``write(path)`` as a format-version-1 writer would have left it:
    every chunk in the delta + varint (+ zlib) recipe, footer stamped 1."""
    with mock.patch.object(
            writer, "encode_column",
            lambda values, bounds=None: encode_column_v1(values)):
        write(path)
    _, footer = read_footer(path)
    return rewrite_footer(path, {**footer, "version": 1})
