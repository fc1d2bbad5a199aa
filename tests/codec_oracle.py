"""Reference oracles for the column codec: scalar Python loops.

The varint pair is the encoder and decoder :mod:`repro.core.store.codec`
used before its hot paths were vectorized; ``test_query_differential.py``
pins the numpy versions to them — same bytes out, same streams
accepted, the same error for every stream rejected.  The ``pack`` pair
spells the bit layout of ``docs/TRACE_STORE.md`` one bit at a time;
``test_store_properties.py`` pins the vectorized packer to it.
"""

import numpy as np

from repro.core.store.codec import CodecError


def encode_uvarints_scalar(values: np.ndarray) -> bytes:
    """Per-value reference encoder (the oracle for the vectorized path)."""
    out = bytearray()
    append = out.append
    for v in values.tolist():
        while v >= 0x80:
            append((v & 0x7F) | 0x80)
            v >>= 7
        append(v)
    return bytes(out)


def decode_uvarints_scalar(data: bytes, count: int) -> np.ndarray:
    """Per-byte reference decoder (the oracle for the vectorized path)."""
    out = np.empty(count, dtype=np.uint64)
    pos = 0
    end = len(data)
    for i in range(count):
        value = 0
        shift = 0
        while True:
            if pos >= end:
                raise CodecError(
                    f"varint stream truncated at value {i} of {count}"
                )
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise CodecError(f"varint at value {i} overflows 64 bits")
        if value > 0xFFFFFFFFFFFFFFFF:
            raise CodecError(f"varint at value {i} overflows 64 bits")
        out[i] = value
    if pos != end:
        raise CodecError(
            f"varint stream has {end - pos} trailing bytes after "
            f"{count} values"
        )
    return out


def pack_scalar(fields, width: int) -> bytes:
    """Bit-at-a-time reference for ``codec.pack_fields``: field ``i`` of
    the stream occupies bits ``[j*width, (j+1)*width)``, ``j = i % 8``,
    of group ``i // 8``'s ``width``-byte little-endian integer."""
    out = bytearray(-(-len(fields) // 8) * width)
    for i, value in enumerate(int(v) for v in fields):
        base = (i // 8) * width * 8 + (i % 8) * width
        for bit in range(width):
            if value >> bit & 1:
                out[(base + bit) // 8] |= 1 << (base + bit) % 8
    return bytes(out)


def unpack_scalar(data: bytes, width: int, count: int) -> list[int]:
    """Bit-at-a-time reference for a width-``width`` ``pack`` decode."""
    if len(data) != -(-count // 8) * width:
        raise CodecError("pack payload length mismatch")
    out = []
    for i in range(count):
        base = (i // 8) * width * 8 + (i % 8) * width
        out.append(sum((data[(base + bit) // 8] >> (base + bit) % 8 & 1) << bit
                       for bit in range(width)))
    return out


def encode_column_v1(values, delta: bool = True,
                     compress: bool = True) -> tuple[bytes, str]:
    """What every format-version-1 writer stored for a chunk: delta,
    zigzag, scalar varints, zlib when the stream is over 32 bytes and
    shrinks (``delta``/``compress`` drop a step; the recipe of every
    varint chunk since)."""
    import zlib

    values = [int(v) for v in values]
    tokens = "delta+varint" if delta else "varint"
    if delta:
        values = values[:1] + [b - a for a, b in zip(values, values[1:])]
    payload = encode_uvarints_scalar(np.array(
        [(d << 1) ^ (d >> 63) for d in values], dtype=object))
    if compress and len(payload) > 32:
        squeezed = zlib.compress(payload, 6)
        if len(squeezed) < len(payload):
            return squeezed, tokens + "+zlib"
    return payload, tokens
