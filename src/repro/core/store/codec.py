"""Column codec for ``.aptrc`` archives: bit-packing or delta + varint.

Each chunk takes one of two encodings, picked from its own values by
the rule in :func:`encode_column`.  **pack** is frame-of-reference
bit-packing — every value is ``lo + stride * k`` (``lo`` the chunk
minimum, ``stride`` the gcd of ``values - lo``) and ``k`` is a
fixed-width bit field — so random PE ranks, 8-byte-multiple sizes and
small counts cost their entropy and decode by one table gather or one
shift and one mask.
Columns with strong local structure — sorted source PEs, monotone
cumulative counters — keep the classic columnar recipe:

1. **delta**: store ``v[0], v[1]-v[0], v[2]-v[1], …`` (turns sorted or
   slowly-varying columns into tiny values),
2. **zigzag**: fold negative deltas into small unsigned ints
   (``0,-1,1,-2,… → 0,1,2,3,…``),
3. **varint**: LEB128 — 7 value bits per byte, high bit = continuation,
4. **zlib** (optional): only kept when it actually shrinks the payload.

Both are numpy-vectorized; scalar Python loops producing byte-identical
streams live on as the reference oracles of the property tests
(``tests/codec_oracle.py``).

The encoding applied is returned as a string — ``+``-joined recipe
tokens (``"delta+varint+zlib"``) or ``"pack:<lo>:<stride>:<width>"`` —
and stored in the archive footer, so the decoder never guesses.  All
values must fit in a signed 64-bit integer, matching the ``int64`` trace
matrices used everywhere else in the repo.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

#: Tokens that may appear in a recipe encoding string, in application order.
TOKENS = ("delta", "varint", "zlib")

#: Widest field ``pack`` stores: eight 8-bit fields fill one uint64 word.
PACK_MAX_WIDTH = 8

#: Leading values :func:`encode_column` test-encodes with the varint
#: recipe to decide whether packing the chunk is at least as small.
PROBE_VALUES = 2048

#: Row ``width``: lane ``j``'s shift ``j * width``, for 16 384 fields (128 kB a row).
SHIFT_FIELDS = 16_384
_SHIFTS = np.outer(range(PACK_MAX_WIDTH + 1), np.arange(SHIFT_FIELDS) % 8).astype(np.uint64)

#: Width ``w`` dividing 8: row ``b`` holds the ``8 // w`` fields of byte ``b``.
_BYTE_FIELDS = {w: (np.arange(256, dtype=np.uint64)[:, None]
                    >> np.arange(0, 8, w, dtype=np.uint64)) & np.uint64((1 << w) - 1)
                for w in (1, 2, 4)}

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
    z = v << 1
    z ^= v >> 63
    return z.view(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    u = values.astype(np.uint64, copy=False)
    return ((u >> np.uint64(1)) ^ -(u & np.uint64(1)).astype(np.int64).astype(np.uint64)).astype(np.int64)


# ----------------------------------------------------------------------
# varint (LEB128, unsigned)
# ----------------------------------------------------------------------

#: Values per block of :func:`encode_uvarints`: its grid and the index
#: array ``np.compress`` builds stay small however long the column is.
VARINT_BLOCK = 1 << 14


def encode_uvarints(values: np.ndarray) -> bytes:
    """Encode an array of unsigned ints as concatenated LEB128 varints.

    Vectorized, :data:`VARINT_BLOCK` values at a time: an ``(n, width)``
    uint8 grid, ``width`` the largest value's byte count, is filled one
    byte column at a time (the low eight bits of ``v >> 7j``, the top
    one replaced by the continuation bit ``v >> 7(j+1) != 0``) and read
    out row-major without the bytes past each value's end — after the
    first, a byte is part of its value exactly when it is nonzero.
    Byte-identical to ``tests/codec_oracle.py::encode_uvarints_scalar``.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    width = max(1, -(-int(v.max(initial=0)).bit_length() // 7))
    if width == 1:
        return v.astype(np.uint8).tobytes()
    out = np.empty(len(v) * width, dtype=np.uint8)
    size = 0
    for at in range(0, len(v), VARINT_BLOCK):
        rest = v[at:at + VARINT_BLOCK]
        grid = np.empty((len(rest), width), dtype=np.uint8)
        for j in range(width):
            byte = rest.astype(np.uint8)
            rest = rest >> 7
            byte |= (rest != 0).view(np.uint8) << 7
            grid[:, j] = byte
        keep = grid.astype(bool)
        keep[:, 0] = True
        count = np.count_nonzero(keep)
        # np.compress, not grid[keep]: three times faster on uint8
        np.compress(keep.ravel(), grid.ravel(), out=out[size:size + count])
        size += count
    return out[:size].tobytes()


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
# pack (fixed-width bit fields)
# ----------------------------------------------------------------------

def pack_fields(fields: np.ndarray, width: int) -> bytes:
    """Pack uint64 ``fields`` (each ``< 2**width``, ``1 <= width <= 8``).

    Field ``j`` of each group of eight sits at bit ``j * width`` of the
    group's ``width``-byte little-endian integer; the last group is
    zero-padded.  Byte-identical to ``tests/codec_oracle.py::pack_scalar``.
    """
    groups = -(-len(fields) // 8)
    lanes = np.zeros((groups, 8), dtype=np.uint64)
    lanes.ravel()[:len(fields)] = fields
    # the fields do not overlap, so the weighted sum is their bitwise OR
    words = lanes @ (np.uint64(1) << _SHIFTS[width, :8])
    return words.astype("<u8", copy=False).view(np.uint8).reshape(
        groups, 8)[:, :width].tobytes()


@functools.lru_cache(maxsize=128)
def pack_spec(encoding: str) -> tuple[int, int, int, np.ndarray | None]:
    """``(lo, stride, width, table)`` of a ``pack:`` encoding, checked once
    per distinct string (a bad one raises every time).  At widths 1, 2
    and 4, ``table`` row ``b`` is ``lo + stride * k`` for byte ``b``'s
    fields (read-only int64, wrapped in uint64 like the encoder's
    subtraction); else None."""
    try:
        lo, stride, width = (int(part) for part in encoding.split(":")[1:])
    except ValueError:
        raise CodecError(f"malformed pack encoding {encoding!r}") from None
    if not (-(1 << 63) <= lo < 1 << 63 and 1 <= stride < 1 << 64
            and 0 <= width <= PACK_MAX_WIDTH):
        raise CodecError(f"pack encoding {encoding!r} out of range")
    table = _BYTE_FIELDS.get(width)
    if table is not None:
        table = (table * np.uint64(stride) + np.uint64(lo % (1 << 64))).view(np.int64)
        table.flags.writeable = False
    return lo, stride, width, table


# ----------------------------------------------------------------------
# column encode / decode
# ----------------------------------------------------------------------

def _encode_varint(arr: np.ndarray, delta: bool, compress: bool
                   ) -> tuple[bytes, str]:
    """The delta + zigzag + varint (+ zlib) recipe over one int64 array."""
    encoding = "delta+varint" if delta else "varint"
    if delta and len(arr) > 1:
        work = np.empty_like(arr)
        work[0] = arr[0]
        np.subtract(arr[1:], arr[:-1], out=work[1:])
        arr = work
    payload = encode_uvarints(zigzag(arr))
    if compress and len(payload) > 32:
        squeezed = zlib.compress(payload, ZLIB_LEVEL)
        if len(squeezed) < len(payload):
            return squeezed, encoding + "+zlib"
    return payload, encoding


def encode_column(
    values, *, delta: bool = True, compress: bool = True,
    bounds: tuple[int, int] | None = None,
) -> tuple[bytes, str]:
    """Encode one integer column; returns ``(payload, encoding)``.

    The choice is a pure function of the values.  With ``lo``/``hi``
    their min/max (``bounds``, when the caller already has them) and
    ``stride`` the gcd of ``values - lo``: a constant column is
    ``pack:<lo>:1:0`` with no payload; when ``(hi - lo) // stride`` fits
    :data:`PACK_MAX_WIDTH` bits, the first :data:`PROBE_VALUES` values
    are encoded with the varint recipe and the whole chunk is packed if
    packing that prefix is no larger; everything else takes the recipe.
    So up to ``PROBE_VALUES`` values get exactly the smaller of the two,
    and a large incompressible chunk never reaches zlib.

    ``delta`` and ``compress`` shape the recipe: first differences
    before zigzag + varint, and zlib over the varint stream when (and
    only when) that makes it smaller.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    n = len(arr)
    if n == 0:
        return _encode_varint(arr, delta, compress)
    lo, hi = bounds if bounds is not None else (int(arr.min()), int(arr.max()))
    if lo == hi:
        return b"", f"pack:{lo}:1:0"
    # int64 array arithmetic wraps, so reread as uint64 the offsets are
    # exact even when ``hi - lo`` overflows int64
    offsets = (arr - lo).view(np.uint64)
    stride = int(np.gcd.reduce(offsets[:64]))
    # a prefix gcd dividing every offset is the chunk's; for 2**k one mask says so
    if stride != 1 and (not stride or stride & (stride - 1)
                        or (offsets & np.uint64(stride - 1)).any()):
        stride = int(np.gcd.reduce(offsets))
    width = ((hi - lo) // stride).bit_length()
    if width > PACK_MAX_WIDTH:
        return _encode_varint(arr, delta, compress)
    probe = _encode_varint(arr[:PROBE_VALUES], delta, compress)
    if -(-min(n, PROBE_VALUES) // 8) * width <= len(probe[0]):
        if stride & (stride - 1):
            offsets //= np.uint64(stride)
        elif stride != 1:  # a power of two: divide by a shift
            offsets >>= np.uint64(stride.bit_length() - 1)
        return pack_fields(offsets, width), f"pack:{lo}:{stride}:{width}"
    return probe if n <= PROBE_VALUES else _encode_varint(arr, delta, compress)


def decode_column(payload: bytes, encoding: str, count: int) -> np.ndarray:
    """Decode a column payload back into an int64 array of ``count``."""
    if encoding.startswith("pack:"):
        lo, stride, width, table = pack_spec(encoding)
        if width == 0 and not payload:
            return np.full(count, lo, dtype=np.int64)
        groups = -(-count // 8)
        if len(payload) != groups * width:
            raise CodecError(
                f"pack payload is {len(payload)} bytes, expected {groups * width} "
                f"for {count} values of {width} bits"
            )
        if table is not None:  # one gather: each payload byte's values
            return np.take(table, np.frombuffer(payload, np.uint8), axis=0).reshape(-1)[:count]
        if width == 8:  # one field per byte
            fields = np.frombuffer(payload, np.uint8, count).astype(np.uint64)
        else:  # each group one little-endian word of a strided view + slack
            words = np.ndarray((groups,), "<u8", bytes(payload) + bytes(8),
                               strides=(width,))
            fields = np.repeat(words, 8)[:count]
            for at in range(0, count, SHIFT_FIELDS):
                fields[at:at + SHIFT_FIELDS] >>= _SHIFTS[width, :count - at]
            fields &= np.uint64((1 << width) - 1)
        if stride != 1:
            fields *= np.uint64(stride)
        if lo:
            fields += np.uint64(lo % (1 << 64))  # wraps like the encoder's subtraction
        return fields.view(np.int64)
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
