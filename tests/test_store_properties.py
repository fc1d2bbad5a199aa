"""Property-based tests: .aptrc encode→decode round-trips exactly.

Hypothesis drives random machine shapes and random trace contents
through `export_run` → `load_run`, checking that every stored quantity
survives bit-for-bit — the logical matrix, physical records of all three
send kinds, PAPI rows, and the overall cycle totals, including the
``T_MAIN + T_COMM + T_PROC == T_TOTAL`` identity.  The codec properties
pin the vectorized ``pack`` encoding to the bit-at-a-time oracle of
``tests/codec_oracle.py`` and the per-chunk selection rule to the v1
recipe it must never do worse than.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.conveyors.hooks import SEND_TYPES
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.store.codec import (
    PACK_MAX_WIDTH,
    PROBE_VALUES,
    SHIFT_FIELDS,
    decode_column,
    encode_column,
    pack_fields,
)
from repro.core.store.writer import export_run
from repro.core.store.archive import load_run
from repro.machine import MachineSpec
from tests.codec_oracle import encode_column_v1, pack_scalar, unpack_scalar
from tests.trace_oracle import same_trace

def unpack_fields(payload: bytes, width: int, count: int) -> np.ndarray:
    """The inverse of ``pack_fields``: ``count`` fields as a fresh uint64
    array — the chunk ``pack:0:1:<width>`` decoded."""
    return decode_column(payload, f"pack:0:1:{width}", count).view(np.uint64)


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

EVENTS = ("PAPI_TOT_INS", "PAPI_LST_INS", "PAPI_L1_DCM", "PAPI_BR_MSP")


@st.composite
def machine_specs(draw):
    return MachineSpec(draw(st.integers(1, 3)), draw(st.integers(1, 5)))


def _columns(names, rows) -> dict[str, np.ndarray]:
    """Drawn rows (duplicate keys allowed: they fold) as int64 columns."""
    return {name: np.array([row[i] for row in rows], dtype=np.int64)
            for i, name in enumerate(names)}


@st.composite
def logical_traces(draw):
    spec = draw(machine_specs())
    pes = st.integers(0, spec.n_pes - 1)
    entries = draw(st.lists(
        st.tuples(pes, pes, st.integers(1, 1024), st.integers(1, 50)),
        max_size=40,
    ))
    attrs = {**spec.attrs(), "sample_interval": draw(st.integers(1, 4)),
             "ticks": draw(st.lists(st.integers(0, 10_000),
                                    min_size=spec.n_pes, max_size=spec.n_pes))}
    return LogicalTrace.from_columns(
        _columns(("src", "dst", "size", "count"), entries), attrs)


@st.composite
def physical_traces(draw):
    n_pes = draw(st.integers(1, 12))
    pes = st.integers(0, n_pes - 1)
    entries = draw(st.lists(
        st.tuples(st.integers(0, len(SEND_TYPES) - 1), st.integers(1, 1 << 20),
                  pes, pes, st.integers(1, 99)),
        max_size=40,
    ))
    return PhysicalTrace.from_columns(
        _columns(("kind", "size", "src", "dst", "count"), entries),
        {"n_pes": n_pes})


@st.composite
def papi_traces(draw):
    spec = draw(machine_specs())
    events = tuple(EVENTS[: draw(st.integers(1, 4))])
    trace = PAPITrace(spec, events)
    pes = st.integers(0, spec.n_pes - 1)
    counters = st.integers(0, 2**48)
    rows = draw(st.lists(
        st.tuples(pes, pes, st.integers(0, 4096), st.integers(-1, 3),
                  st.integers(0, 10**9),
                  st.lists(counters, min_size=len(events),
                           max_size=len(events))),
        max_size=30,
    ))
    for src, dst, pkt, mailbox, num_sends, values in rows:
        trace.record(src, dst, pkt, mailbox, num_sends, values)
    for region in ("MAIN", "PROC"):
        trace.region_totals[region] = np.asarray(draw(st.lists(
            st.lists(counters, min_size=len(events), max_size=len(events)),
            min_size=spec.n_pes, max_size=spec.n_pes,
        )), dtype=np.int64).reshape(spec.n_pes, len(events))
    return trace


@st.composite
def overall_profiles(draw):
    n_pes = draw(st.integers(1, 12))
    prof = OverallProfile(n_pes)
    cycles = st.integers(0, 2**40)
    for pe in range(n_pes):
        main, proc, comm = draw(cycles), draw(cycles), draw(cycles)
        prof.add_main(pe, main)
        prof.add_proc(pe, proc)
        prof.add_total(pe, main + proc + comm)
    return prof


@given(st.lists(st.integers(-(2**62), 2**62), max_size=300),
       st.booleans(), st.booleans())
@SETTINGS
def test_codec_roundtrip_exact(values, delta, compress):
    payload, encoding = encode_column(values, delta=delta, compress=compress)
    assert decode_column(payload, encoding, len(values)).tolist() == values


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def packed_fields(draw, min_width=1):
    """``(width, fields)``: any count (0, 1, not a multiple of 8, …)."""
    width = draw(st.integers(min_width, PACK_MAX_WIDTH))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1),
                                max_size=70))


@given(packed_fields())
@SETTINGS
def test_pack_matches_bit_at_a_time_oracle(case):
    width, fields = case
    payload = pack_fields(np.array(fields, dtype=np.uint64), width)
    assert payload == pack_scalar(fields, width)
    assert unpack_fields(payload, width, len(fields)).tolist() \
        == unpack_scalar(payload, width, len(fields)) == fields


@given(packed_fields(min_width=0), st.integers(1, 2**40), st.data())
@SETTINGS
def test_pack_roundtrip_every_width_and_negative_lo(case, stride, data):
    """``lo + stride * k`` for every accepted width (0 = constant), with
    ``lo`` anywhere in int64 that keeps the top value representable."""
    width, fields = case
    top = stride * ((1 << width) - 1)
    lo = data.draw(st.integers(INT64_MIN, INT64_MAX - top))
    values = [lo + stride * k for k in fields]
    payload = (pack_fields(np.array(fields, dtype=np.uint64), width)
               if width else b"")
    got = decode_column(payload, f"pack:{lo}:{stride}:{width}", len(values))
    assert got.dtype == np.int64 and got.tolist() == values
    again, encoding = encode_column(values)
    assert decode_column(again, encoding, len(values)).tolist() == values
    if len(set(values)) == 1:
        assert (again, encoding) == (b"", f"pack:{values[0]}:1:0")


@given(st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=40))
@example([])  # two values 2**64 - 1 apart: stride 2**64 - 1, one bit
@example([-1])  # no common stride: 64 bits wide, the recipe
@SETTINGS
def test_int64_extremes_roundtrip(values):
    """``hi - lo`` itself overflows int64: the offsets are taken in
    wrapping uint64, and a span with no coarse lattice takes the recipe
    instead of a wrapped width."""
    values = [INT64_MIN, *values, INT64_MAX]
    payload, encoding = encode_column(values)
    if values[1:-1] in ([], [-1]):
        assert encoding == ("delta+varint" if values[1:-1]
                            else f"pack:{INT64_MIN}:{2**64 - 1}:1")
    assert decode_column(payload, encoding, len(values)).tolist() == values


@given(st.lists(st.integers(0, 1 << PACK_MAX_WIDTH), max_size=40),
       st.integers(INT64_MIN, INT64_MAX - (1 << PACK_MAX_WIDTH)))
@SETTINGS
def test_one_bit_too_wide_falls_back_to_varint(ks, lo):
    values = [lo, lo + 1, lo + (1 << PACK_MAX_WIDTH), *(lo + k for k in ks)]
    payload, encoding = encode_column(values)  # stride 1, one bit too many
    assert "varint" in encoding
    assert decode_column(payload, encoding, len(values)).tolist() == values


@given(st.lists(st.integers(-40, 300), max_size=PROBE_VALUES),
       st.sampled_from([1, 8, 1000]), st.integers(-(2**40), 2**40))
@SETTINGS
def test_selection_is_pure_and_never_larger_than_v1(ks, stride, lo):
    """Same chunk → same bytes, and up to ``PROBE_VALUES`` values the
    probe is the answer: a recipe chunk is byte-for-byte what a v1
    writer stored, a packed one is no larger."""
    values = [lo + stride * k for k in ks]
    payload, encoding = encode_column(values)
    assert (payload, encoding) == encode_column(np.array(values, np.int64))
    if values:
        assert (payload, encoding) == encode_column(
            values, bounds=(min(values), max(values)))
    v1 = encode_column_v1(values)
    if encoding.startswith("pack:"):
        assert len(payload) <= len(v1[0])
    else:
        assert (payload, encoding) == v1
    assert decode_column(payload, encoding, len(values)).tolist() == values


@given(st.integers(1, 2 * PROBE_VALUES), st.integers(1, PACK_MAX_WIDTH + 1),
       st.integers(1, 200), st.integers(0, 2**32), st.booleans(),
       st.booleans())
@example(PROBE_VALUES, 5, 1, 0, True, True)  # noise: packs
@example(PROBE_VALUES, 5, 200, 0, True, True)  # runs: the recipe
@SETTINGS
def test_past_the_probe_a_chunk_is_the_probe_verdict_then_v1(
        extra, bits, run, seed, delta, compress):
    """A chunk longer than ``PROBE_VALUES`` packs exactly when packing
    its first ``PROBE_VALUES`` values is no larger than their recipe
    encoded on its own; otherwise it is the recipe over the whole chunk,
    byte for byte."""
    rng = np.random.default_rng(seed)
    n = PROBE_VALUES + extra
    values = np.repeat(rng.integers(0, 1 << bits, -(-n // run)), run)[:n]
    payload, encoding = encode_column(values, delta=delta, compress=compress)
    lo = int(values.min())
    stride = int(np.gcd.reduce(values - lo)) or 1
    width = int(values.max() - lo) // stride
    probe = encode_column_v1(values[:PROBE_VALUES], delta, compress)
    packs = (width < 1 << PACK_MAX_WIDTH
             and PROBE_VALUES // 8 * width.bit_length() <= len(probe[0]))
    if width == 0:
        assert (payload, encoding) == (b"", f"pack:{lo}:1:0")
    elif packs:
        assert encoding == f"pack:{lo}:{stride}:{width.bit_length()}"
    else:
        assert (payload, encoding) == encode_column_v1(values, delta,
                                                       compress)
    assert decode_column(payload, encoding, n).tolist() == values.tolist()


#: Chunk lengths around every boundary of the pack decoder: empty, one
#: group, every ``count % 8``, 2 048 and past, and one lane-shift table
#: row (``SHIFT_FIELDS``) and past.
ROW_GROUP_COUNTS = (0, 1, 7, 8, 9, *range(2040, 2056),
                    SHIFT_FIELDS, SHIFT_FIELDS + 13)


@pytest.mark.parametrize("width", range(PACK_MAX_WIDTH + 1))
def test_pack_decode_at_row_group_sizes_matches_the_oracle(width):
    """Every width at every row-group boundary: fields equal the
    bit-at-a-time oracle, and ``lo + stride * k`` at the int64 extremes
    wraps exactly as the encoder's subtraction did, returned as a fresh
    int64 array of exactly ``count``."""
    rng = np.random.default_rng(width)
    for count in ROW_GROUP_COUNTS:
        fields = rng.integers(0, 1 << width, count, dtype=np.uint64)
        payload = pack_fields(fields, width) if width else b""
        got = unpack_fields(payload, width, count)
        want = unpack_scalar(payload, width, count)
        assert got.dtype == np.uint64 and got.tolist() == want
        assert want == fields.tolist()
        for lo, stride in ((0, 1), (INT64_MIN, 2**64 - 1), (INT64_MAX, 3),
                           (-1, 2**63), (INT64_MIN, 1)):
            values = decode_column(payload, f"pack:{lo}:{stride}:{width}",
                                   count)
            assert values.dtype == np.int64 and len(values) == count
            assert values.flags.c_contiguous and values.flags.writeable
            assert values.tolist() == [
                (lo + stride * k - INT64_MIN) % 2**64 + INT64_MIN
                for k in want]


def test_big_incompressible_chunk_packs_and_big_sorted_chunk_does_not():
    """Past ``PROBE_VALUES`` the probe decides for the whole chunk."""
    rng = np.random.default_rng(0)
    n = 4 * PROBE_VALUES + 3
    noise = 8 * rng.integers(1, 65, n)
    payload, encoding = encode_column(noise)
    assert encoding == "pack:8:8:6" and len(payload) == -(-n // 8) * 6
    assert (decode_column(payload, encoding, n) == noise).all()
    ramp = np.arange(n) // 64
    payload, encoding = encode_column(ramp)
    assert encoding == "delta+varint+zlib"
    assert (payload, encoding) == encode_column_v1(ramp)


@given(logical_traces())
@SETTINGS
def test_logical_roundtrip(tmp_path, trace):
    path = export_run(tmp_path / "l.aptrc", logical=trace)
    got = load_run(path).logical
    assert same_trace(got, trace)
    assert got.sample_interval == trace.sample_interval
    assert got.spec == trace.spec
    assert (got.matrix() == trace.matrix()).all()
    assert (got.estimated_matrix() == trace.estimated_matrix()).all()


@given(physical_traces())
@SETTINGS
def test_physical_roundtrip(tmp_path, trace):
    path = export_run(tmp_path / "p.aptrc", physical=trace)
    got = load_run(path).physical
    assert same_trace(got, trace)
    assert got.n_pes == trace.n_pes
    assert got.counts_by_type() == trace.counts_by_type()
    for kind in SEND_TYPES:
        assert (got.bytes_matrix(kind) == trace.bytes_matrix(kind)).all()


@given(papi_traces())
@SETTINGS
def test_papi_roundtrip(tmp_path, trace):
    path = export_run(tmp_path / "pp.aptrc", papi=trace)
    got = load_run(path).papi
    assert got.events == trace.events
    assert got.spec == trace.spec
    assert same_trace(got, trace)
    for pe in range(trace.n_pes):
        assert np.array_equal(got.rows(pe), trace.rows(pe))
    for region in ("MAIN", "PROC"):
        assert (got.region_totals[region]
                == trace.region_totals[region]).all()


@given(overall_profiles())
@SETTINGS
def test_overall_roundtrip_preserves_identity(tmp_path, prof):
    path = export_run(tmp_path / "o.aptrc", overall=prof)
    got = load_run(path).overall
    assert (got.t_main == prof.t_main).all()
    assert (got.t_proc == prof.t_proc).all()
    assert (got.t_total == prof.t_total).all()
    # the paper's invariant: T_MAIN + T_COMM + T_PROC == T_TOTAL
    for pe in range(got.n_pes):
        m, c, p = got.absolute(pe)
        assert m + c + p == int(got.t_total[pe])
    assert (got.t_comm() == prof.t_comm()).all()


@given(logical_traces(), physical_traces(), overall_profiles())
@SETTINGS
def test_combined_archive_roundtrip(tmp_path, logical, physical, overall):
    path = export_run(tmp_path / "all.aptrc", logical=logical,
                      physical=physical, overall=overall)
    traces = load_run(path)
    assert same_trace(traces.logical, logical)
    assert same_trace(traces.physical, physical)
    assert (traces.overall.t_total == overall.t_total).all()
