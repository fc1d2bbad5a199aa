"""Column codec for ``.aptrc`` archives: delta + varint (+ zlib).

Trace columns are integer sequences with strong local structure — sorted
source PEs, repeated packet sizes, monotone cumulative counters — so the
classic columnar recipe applies:

1. **delta**: store ``v[0], v[1]-v[0], v[2]-v[1], …`` (turns sorted or
   slowly-varying columns into tiny values),
2. **zigzag**: fold negative deltas into small unsigned ints
   (``0,-1,1,-2,… → 0,1,2,3,…``),
3. **varint**: LEB128 — 7 value bits per byte, high bit = continuation,
4. **zlib** (optional): only kept when it actually shrinks the payload.

The varint encode/decode hot paths are numpy-vectorized (masked passes
over ``frombuffer`` byte arrays); the original per-byte Python loops
live on as the reference oracles of the property tests
(``tests/codec_oracle.py``) and produce byte-identical streams.

The encoding actually applied is returned as a ``+``-joined token string
(e.g. ``"delta+varint+zlib"``) and stored in the archive footer, so the
decoder never guesses.  All values must fit in a signed 64-bit integer,
matching the ``int64`` trace matrices used everywhere else in the repo.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Tokens that may appear in an encoding string, in application order.
TOKENS = ("delta", "varint", "zlib")

#: Compression level used when zlib is applied (6 = zlib default).
ZLIB_LEVEL = 6


class CodecError(ValueError):
    """Raised when a column payload cannot be decoded."""


# ----------------------------------------------------------------------
# zigzag
# ----------------------------------------------------------------------

def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 values onto unsigned ints (as uint64)."""
    v = values.astype(np.int64, copy=False)
    return ((v << np.int64(1)) ^ (v >> np.int64(63))).astype(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    u = values.astype(np.uint64, copy=False)
    return ((u >> np.uint64(1)) ^ -(u & np.uint64(1)).astype(np.int64).astype(np.uint64)).astype(np.int64)


# ----------------------------------------------------------------------
# varint (LEB128, unsigned)
# ----------------------------------------------------------------------

#: Value thresholds where a LEB128 varint grows by one byte: a value
#: ``v`` takes ``1 + sum(v >= t for t in thresholds)`` bytes (max 10).
_WIDTH_THRESHOLDS = tuple(np.uint64(1) << np.uint64(7 * k)
                          for k in range(1, 10))


def encode_uvarints(values: np.ndarray) -> bytes:
    """Encode an array of unsigned ints as concatenated LEB128 varints.

    Vectorized: byte widths come from threshold comparisons, then one
    masked pass per byte position (≤ 10) scatters payload bytes with the
    continuation bit.  Output is byte-identical to the per-value loop
    ``tests/codec_oracle.py::encode_uvarints_scalar``.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b""
    widths = np.ones(n, dtype=np.int64)
    for t in _WIDTH_THRESHOLDS:
        widths += v >= t
    starts = np.cumsum(widths) - widths
    out = np.empty(int(starts[-1]) + int(widths[-1]), dtype=np.uint8)
    for j in range(int(widths.max())):
        live = widths > j
        payload = ((v[live] >> np.uint64(7 * j)) & np.uint64(0x7F))
        byte = payload.astype(np.uint8)
        byte[widths[live] > j + 1] |= 0x80  # continuation bit
        out[starts[live] + j] = byte
    return out.tobytes()


def decode_uvarints(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` LEB128 varints from ``data`` (uint64 array).

    Vectorized: value boundaries are the bytes with the continuation bit
    clear; payloads are gathered with one masked pass per byte position
    (≤ 10), so cost scales with the widest value actually present —
    delta+zigzag trace columns are overwhelmingly 1–2 bytes wide, and a
    pure single-byte stream short-circuits to one cast.  Accepts and
    rejects exactly the streams the per-byte loop
    ``tests/codec_oracle.py::decode_uvarints_scalar`` does.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    if count == 0:
        if len(b):
            raise CodecError(
                f"varint stream has {len(b)} trailing bytes after 0 values"
            )
        return np.empty(0, dtype=np.uint64)
    is_end = (b & 0x80) == 0
    if len(b) == count and is_end.all():
        return b.astype(np.uint64)  # pure single-byte stream
    all_ends = np.flatnonzero(is_end)
    m = min(count, len(all_ends))
    ends = all_ends[:m]
    starts = np.empty(m, dtype=np.int64)
    if m:
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    payload = (b & 0x7F).astype(np.uint64)
    # Errors must surface in stream order, like the scalar decoder's
    # sequential scan: an overflowing value earlier in the stream wins
    # over truncation or trailing bytes discovered later.  > 10 bytes
    # shifts past bit 63; a 10-byte varint only has room for one payload
    # bit in its last byte.
    bad = (lengths > 10) | ((lengths == 10) & (payload[ends] > 1))
    if bad.any():
        raise CodecError(
            f"varint at value {int(np.flatnonzero(bad)[0])} overflows 64 bits"
        )
    if len(all_ends) < count:
        tail_start = int(all_ends[-1]) + 1 if len(all_ends) else 0
        if len(b) - tail_start >= 10:
            # ten continuation bytes overflow before the stream runs out
            raise CodecError(
                f"varint at value {len(all_ends)} overflows 64 bits"
            )
        raise CodecError(
            f"varint stream truncated at value {len(all_ends)} of {count}"
        )
    trailing = len(b) - int(all_ends[count - 1]) - 1
    if trailing:
        raise CodecError(
            f"varint stream has {trailing} trailing bytes after "
            f"{count} values"
        )
    out = payload[starts]
    for j in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > j)
        out[live] |= payload[starts[live] + j] << np.uint64(7 * j)
    return out


# ----------------------------------------------------------------------
# column encode / decode
# ----------------------------------------------------------------------

def encode_column(
    values, *, delta: bool = True, compress: bool = True
) -> tuple[bytes, str]:
    """Encode one integer column; returns ``(payload, encoding)``.

    ``delta`` applies first-difference transformation before zigzag +
    varint; ``compress`` additionally zlib-compresses the varint stream
    when (and only when) that makes it smaller.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    tokens = []
    if delta and len(arr) > 1:
        work = np.empty_like(arr)
        work[0] = arr[0]
        np.subtract(arr[1:], arr[:-1], out=work[1:])
        tokens.append("delta")
    else:
        work = arr
        if delta:
            tokens.append("delta")  # trivially true for 0/1 values
    payload = encode_uvarints(zigzag(work))
    tokens.append("varint")
    if compress and len(payload) > 32:
        squeezed = zlib.compress(payload, ZLIB_LEVEL)
        if len(squeezed) < len(payload):
            payload = squeezed
            tokens.append("zlib")
    return payload, "+".join(tokens)


def decode_column(payload: bytes, encoding: str, count: int) -> np.ndarray:
    """Decode a column payload back into an int64 array of ``count``."""
    tokens = encoding.split("+") if encoding else []
    unknown = set(tokens) - set(TOKENS)
    if unknown:
        raise CodecError(f"unknown encoding tokens {sorted(unknown)!r}")
    if "varint" not in tokens:
        raise CodecError(f"unsupported encoding {encoding!r}: missing varint")
    if "zlib" in tokens:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise CodecError(f"zlib payload corrupt: {exc}") from exc
    values = unzigzag(decode_uvarints(payload, count))
    if "delta" in tokens and count > 1:
        values = np.cumsum(values, dtype=np.int64)
    return values.astype(np.int64, copy=False)
