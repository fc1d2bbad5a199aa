"""Tests for the .aptrc column codec (delta + varint + zlib)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.store.codec import (
    PACK_MAX_WIDTH,
    VARINT_BLOCK,
    CodecError,
    decode_column,
    decode_uvarints,
    encode_column,
    encode_uvarints,
    pack_fields,
    pack_spec,
    unzigzag,
    zigzag,
)

from tests.codec_oracle import encode_uvarints_scalar


def roundtrip(values, **kwargs):
    payload, encoding = encode_column(values, **kwargs)
    out = decode_column(payload, encoding, len(np.ravel(values)))
    return payload, encoding, out


def test_zigzag_roundtrip_extremes():
    vals = np.array([0, -1, 1, -2, 2, 2**62, -(2**62), 2**63 - 1, -(2**63)],
                    dtype=np.int64)
    assert (unzigzag(zigzag(vals)) == vals).all()


def test_zigzag_orders_small_magnitudes_first():
    z = zigzag(np.array([0, -1, 1, -2, 2], dtype=np.int64))
    assert z.tolist() == [0, 1, 2, 3, 4]


def test_uvarint_roundtrip():
    vals = np.array([0, 1, 127, 128, 300, 2**32, 2**64 - 1], dtype=np.uint64)
    data = encode_uvarints(vals)
    assert (decode_uvarints(data, len(vals)) == vals).all()


def test_uvarint_small_values_take_one_byte():
    assert len(encode_uvarints(np.arange(10, dtype=np.uint64))) == 10


#: The first and last value of every LEB128 width: ``2**(7k) - 1`` takes
#: ``k`` bytes and ``2**(7k)`` takes ``k + 1``, k = 1..9.
WIDTH_EDGES = [v for k in range(1, 10)
               for v in ((1 << 7 * k) - 1, 1 << 7 * k)]


@pytest.mark.parametrize("value", [*WIDTH_EDGES, 2**64 - 1])
def test_uvarint_width_thresholds_match_the_scalar_encoder(value):
    for values in ([value], [0, value, 1], [value, value - 1, value]):
        arr = np.array(values, dtype=np.uint64)
        assert encode_uvarints(arr) == encode_uvarints_scalar(arr)
    width = len(encode_uvarints(np.array([value], dtype=np.uint64)))
    assert width == max(1, -(-value.bit_length() // 7))


@pytest.mark.parametrize("values", [
    [], [0], [127], [2**64 - 1], list(range(128)), [127] * 1000,
    WIDTH_EDGES, [2**64 - 1] * (VARINT_BLOCK + 1),
    [i * 2**50 % 2**64 for i in range(2 * VARINT_BLOCK + 5)],
], ids=["empty", "zero", "one-byte", "max", "all-one-byte", "one-byte-run",
        "width-edges", "past-a-block", "mixed-blocks"])
def test_uvarint_edge_arrays_match_the_scalar_encoder(values):
    arr = np.array(values, dtype=np.uint64)
    assert encode_uvarints(arr) == encode_uvarints_scalar(arr)
    assert decode_uvarints(encode_uvarints(arr), len(arr)).tolist() == values


def test_uvarint_encoder_memory_is_bounded_per_value():
    """One million ten-byte varints: the encoder holds its output (as an
    array, then as bytes) and one block — never ``(n, width)`` words."""
    values = np.full(1_000_000, 2**63 + 12345, dtype=np.uint64)
    tracemalloc.start()
    try:
        data = encode_uvarints(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 10 * len(values)
    assert peak < 40 * len(values)


def test_uvarint_truncated_stream_raises():
    data = encode_uvarints(np.array([300], dtype=np.uint64))
    with pytest.raises(CodecError, match="truncated"):
        decode_uvarints(data[:-1], 1)


def test_uvarint_trailing_bytes_raise():
    data = encode_uvarints(np.array([1, 2], dtype=np.uint64))
    with pytest.raises(CodecError, match="trailing"):
        decode_uvarints(data, 1)


@pytest.mark.parametrize("values", [
    [],
    [0],
    [42],
    [-7],
    list(range(1000)),
    [5] * 500,
    [2**63 - 1, -(2**63), 0, -1, 1],
])
def test_column_roundtrip_exact(values):
    _payload, _encoding, out = roundtrip(values)
    assert out.dtype == np.int64
    assert out.tolist() == values


def test_column_roundtrip_random():
    rng = np.random.default_rng(7)
    vals = rng.integers(-(2**40), 2**40, size=4096)
    _p, _e, out = roundtrip(vals)
    assert (out == vals).all()


def test_sorted_column_compresses_well():
    # a sorted column of big values becomes small deltas → ~1 byte each
    vals = np.cumsum(np.ones(10_000, dtype=np.int64)) + 10**12
    payload, encoding, out = roundtrip(vals)
    assert (out == vals).all()
    assert "delta" in encoding
    assert len(payload) < len(vals)  # far below 8 bytes/value


def test_no_delta_encoding():
    payload, encoding, out = roundtrip([9, 3, 7], delta=False)
    assert "delta" not in encoding
    assert out.tolist() == [9, 3, 7]


def test_zlib_only_kept_when_smaller():
    rng = np.random.default_rng(0)
    noise = rng.integers(-(2**60), 2**60, size=256)
    payload, encoding = encode_column(noise, delta=False, compress=True)
    # incompressible noise: encoder must fall back to the raw varint stream
    assert decode_column(payload, encoding, 256).tolist() == noise.tolist()


def test_compress_disabled():
    vals = [1] * 10_000
    _payload, encoding = encode_column(vals, compress=False)
    assert "zlib" not in encoding


def test_unknown_encoding_token_raises():
    with pytest.raises(CodecError, match="unknown encoding"):
        decode_column(b"", "delta+varint+rot13", 0)


def test_missing_varint_token_raises():
    with pytest.raises(CodecError, match="varint"):
        decode_column(b"", "delta", 0)


def test_corrupt_zlib_payload_raises():
    payload, encoding = encode_column(list(range(5000)))
    assert "zlib" in encoding
    with pytest.raises(CodecError, match="zlib"):
        decode_column(payload[:-4] + b"\x00\x00\x00\x00", encoding, 5000)


def test_pack_takes_random_small_range_columns():
    rng = np.random.default_rng(3)
    sizes = 8 * rng.integers(1, 65, 1000)  # 9 bits of range, 6 of lattice
    payload, encoding, out = roundtrip(sizes)
    assert encoding == "pack:8:8:6" and len(payload) == 125 * 6
    assert out.dtype == np.int64 and (out == sizes).all()
    assert roundtrip([7] * 1000)[:2] == (b"", "pack:7:1:0")
    assert roundtrip([-5])[:2] == (b"", "pack:-5:1:0")


@pytest.mark.parametrize("payload, encoding, match", [
    (b"\x00" * 5, "pack:0:1:6", "expected 6"),        # one byte short
    (b"\x00" * 7, "pack:0:1:6", "expected 6"),        # one byte over
    (b"\x00", "pack:4:1:0", "expected 0"),            # constant + payload
    (b"\x00" * 9, "pack:0:1:9", "out of range"),      # wider than the packer
    (b"", "pack:0:1:-1", "out of range"),
    (b"\x00" * 6, "pack:0:0:6", "out of range"),      # stride < 1
    (b"\x00" * 6, "pack:0:-8:6", "out of range"),
    (b"\x00" * 6, f"pack:0:{2**64}:6", "out of range"),
    (b"\x00" * 6, f"pack:{2**63}:1:6", "out of range"),  # lo outside int64
    (b"\x00" * 6, "pack:0:1", "malformed"),
    (b"\x00" * 6, "pack:0:1:6:0", "malformed"),
    (b"\x00" * 6, "pack:zero:1:6", "malformed"),
    (b"\x00" * 6, "pack:0:1:6+zlib", "malformed"),
])
def test_pack_decode_rejects_what_the_packer_never_writes(
        payload, encoding, match):
    with pytest.raises(CodecError, match=match):
        decode_column(payload, encoding, 8)


@pytest.mark.parametrize("width", range(PACK_MAX_WIDTH + 1))
def test_pack_payload_one_byte_off_is_a_codec_error_at_every_width(width):
    """A multi-group payload one byte short or over is refused by the
    length check, before any strided view could read past it (numpy
    would raise ``TypeError: buffer is too small``)."""
    count = 8 * 5 + 3
    fields = np.random.default_rng(width).integers(0, 1 << width, count)
    payload = pack_fields(fields.astype(np.uint64), width) if width else b""
    encoding = f"pack:-3:5:{width}"
    for bad in ([payload[:-1]] if payload else []) + [payload + b"\x00"]:
        with pytest.raises(CodecError, match=f"expected {6 * width}"):
            decode_column(bad, encoding, count)
    # only the payload's own bytes count: junk right after it is unread
    padded = memoryview(payload + b"\xff" * 8)[:len(payload)]
    assert (decode_column(padded, encoding, count) == -3 + 5 * fields).all()


def test_stride_is_the_gcd_of_the_whole_chunk_not_of_its_head():
    rng = np.random.default_rng(5)
    head = (16 * rng.integers(0, 100, 500)).tolist()  # any prefix says 16
    head[:2] = [0, 16 * 99]
    assert encode_column(head)[1] == "pack:0:16:7"
    assert encode_column(head + [8])[1] == "pack:0:8:8"
    _payload, encoding, out = roundtrip(head + [3])
    assert "varint" in encoding and out[-1] == 3  # 11 bits at stride 1
    _payload, encoding, out = roundtrip([h // 16 for h in head] + [3])
    assert encoding == "pack:0:1:7" and out[-1] == 3


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 56), three=st.booleans(),
       lo=st.sampled_from([0, -5, -(2**63)]),
       tail=st.sampled_from(["none", "half", "odd", "zero_head"]),
       seed=st.integers(0, 2**16))
@example(k=56, three=False, lo=-(2**63), tail="none", seed=0)  # 2**64 - 2**56
@example(k=3, three=True, lo=0, tail="half", seed=1)
@example(k=10, three=False, lo=-5, tail="zero_head", seed=2)
def test_pack_stride_is_the_gcd_of_every_offset(k, three, lo, tail, seed):
    """The stride a packed chunk records is ``np.gcd.reduce`` of all its
    offsets from the minimum, whatever the 64-value prefix said: strides
    1, 2**k and 3 * 2**k, offsets up to just under 2**64, and chunks
    whose tail breaks the prefix gcd or whose head is all minimum."""
    g = (3 if three else 1) << k
    assume(g * 256 <= 2**64)
    m = np.random.default_rng(seed).integers(0, 256, 300).tolist()
    m[0], m[1] = 0, 255
    offsets = [g * x for x in m]
    if tail == "half" and g % 2 == 0:
        offsets[150] += g // 2
    elif tail == "odd":
        offsets[150] += 1
    elif tail == "zero_head":
        offsets[:64] = [0] * 64
    values = (np.array(offsets, dtype=np.uint64)
              + np.uint64(lo % 2**64)).view(np.int64)
    want = int(np.gcd.reduce(np.array(offsets, dtype=np.uint64)))
    payload, encoding = encode_column(values)
    assert (decode_column(payload, encoding, len(values)) == values).all()
    if encoding.startswith("pack:"):
        _lo, stride, width, _table = pack_spec(encoding)
        assert (_lo, stride) == (lo, want)
        assert width == (max(offsets) // want).bit_length()
    else:
        assert (max(offsets) // want).bit_length() > PACK_MAX_WIDTH
