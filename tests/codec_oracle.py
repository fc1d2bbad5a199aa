"""Reference oracle for the varint column codec: per-byte Python loops.

These are the encoder and decoder :mod:`repro.core.store.codec` used
before its hot paths were vectorized; ``test_query_differential.py``
pins the numpy versions to them — same bytes out, same streams
accepted, the same error for every stream rejected.
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
