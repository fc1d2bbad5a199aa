"""Tests-side footer surgery for ``.aptrc`` files.

No writer emits a stat-less, future-version or malformed footer, so the
tests that need one rewrite the footer of a good archive: the data
region is kept byte for byte and only the JSON index changes.
"""

import json
import zlib
from pathlib import Path
from unittest import mock

from repro.core.store import writer
from repro.core.store.archive import TAIL_MAGIC, TRAILER

from tests.codec_oracle import encode_column_v1


def read_footer(path) -> tuple[int, dict]:
    """``(data_end, footer)`` of an archive, parsed without the reader."""
    data = Path(path).read_bytes()
    tail = len(data) - len(TAIL_MAGIC) - TRAILER.size
    offset, length = TRAILER.unpack(data[tail:tail + TRAILER.size])
    return offset, json.loads(zlib.decompress(data[offset:offset + length]))


def rewrite_footer(path, footer: dict, out=None) -> Path:
    """Replace the archive's footer (in place unless ``out`` is given)."""
    data_end, _ = read_footer(path)
    payload = zlib.compress(
        json.dumps(footer, separators=(",", ":")).encode("utf-8"), 6)
    out = Path(out if out is not None else path)
    out.write_bytes(Path(path).read_bytes()[:data_end] + payload
                    + TRAILER.pack(data_end, len(payload)) + TAIL_MAGIC)
    return out


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
