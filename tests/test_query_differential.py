"""Differential tests: one row-group fold, one row-walk oracle.

Every valid query must return what the reference row walk
(``tests/query_oracle.py``) returns, on every input the single
columnar evaluator accepts, with ``pushdown`` on and off:

1. the in-memory trace objects (a stat-less in-memory section),
2. a stats-carrying archive (chunk pruning + footer sums),
3. a stat-less archive (pre-extension footer; full-decode fallback),
4. a multi-chunk archive whose section holds *partial* aggregates
   with duplicate route keys.

Hypothesis drives random traces and a grammar walk over the query
surface.  The evaluator folds one row group at a time, so a second
family splits the same rows into 1, 2, 7 and one-per-row row groups, in
every footer layout the reader accepts, and pins what a fold can get
wrong: a split changing the answer, keys or weights at the integer
limits, memory growing with the number of row groups, a decode error
losing its location.

The second half pins the vectorized varint codec to its scalar oracle:
byte-identical encodes, identical decodes, and identical rejection of
truncated / trailing / overflowing streams — including the 10-byte
encodings at the top of the uint64 range.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conveyors.hooks import SEND_TYPES
from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
import repro.core.query as query_module
from repro.core.query import query_trace
from repro.core.store.archive import Archive, ArchiveError
from repro.core.store.codec import (
    CodecError,
    decode_uvarints,
    encode_uvarints,
)
from repro.core.store.frame import Frame, MemorySection, group_sum
from repro.core.store.lod import backfill_pyramid
from repro.core.store.writer import ArchiveWriter, export_run
from repro.machine.spec import MachineSpec

from tests.archive_tools import (
    as_v1,
    as_v2,
    read_footer,
    rewrite_footer,
    strip_chunk_stats,
)
from tests.codec_oracle import (
    decode_uvarints_scalar,
    encode_uvarints_scalar,
)
from tests.query_oracle import row_walk_query

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# trace + query strategies
# ----------------------------------------------------------------------

@st.composite
def machine_specs(draw):
    return MachineSpec(draw(st.integers(1, 3)), draw(st.integers(1, 4)))


@st.composite
def traced_runs(draw, min_rows=1, min_size=1):
    """A (logical, physical) pair over one machine, with shared routes."""
    spec = draw(machine_specs())
    pes = st.integers(0, spec.n_pes - 1)
    rows = draw(st.lists(
        st.tuples(pes, pes, st.integers(min_size, 64), st.integers(1, 20),
                  st.integers(0, len(SEND_TYPES) - 1)),
        min_size=min_rows, max_size=40,
    ))
    src, dst, size, count, kind = (np.array(c, dtype=np.int64).reshape(-1)
                                   for c in (zip(*rows) if rows else [[]] * 5))
    logical = LogicalTrace.from_columns(
        {"src": src, "dst": dst, "size": size, "count": count}, spec.attrs())
    physical = PhysicalTrace.from_columns(
        {"kind": kind, "size": size, "src": src, "dst": dst, "count": count},
        {"n_pes": spec.n_pes, **spec.attrs()})
    return spec, logical, physical


_LOGICAL_FIELDS = ("src", "dst", "size", "src_node", "dst_node")
_PHYSICAL_FIELDS = ("src", "dst", "size", "kind", "src_node", "dst_node")
_OPS = ("==", "!=", "<", "<=", ">", ">=")


@st.composite
def queries(draw, fields):
    """A grammar walk: metric [where ...] [group by f] [top N]."""
    parts = [draw(st.sampled_from(("sends", "bytes", "ops")))]
    conds = []
    for _ in range(draw(st.integers(0, 2))):
        fld = draw(st.sampled_from(fields))
        if fld == "kind":
            op = draw(st.sampled_from(("==", "!=")))
            value = draw(st.sampled_from(SEND_TYPES + ("no_such_kind",)))
        else:
            op = draw(st.sampled_from(_OPS))
            if draw(st.booleans()):
                value = draw(st.sampled_from(
                    tuple(f for f in fields if f != "kind")))
            else:
                value = draw(st.integers(-2, 12))
        conds.append(f"{fld} {op} {value}")
    if conds:
        parts.append("where " + " and ".join(conds))
    if draw(st.booleans()):
        parts.append(f"group by {draw(st.sampled_from(fields))}")
        if draw(st.booleans()):
            parts.append(f"top {draw(st.integers(1, 4))}")
    return " ".join(parts)


def _write_groups(path, name, columns, attrs, groups):
    """One section with one row group per (non-empty) list of row tuples."""
    with ArchiveWriter(path, meta=attrs) as writer:
        section = writer.begin_section(name, tuple(columns), attrs=attrs)
        for rows in groups:
            if rows:
                section.write_chunk(dict(zip(columns, zip(*rows))))
        section.end()
    return path


def _export_chunked(path, name, columns_of, attrs, rows, n_chunks):
    """Write one section in ``n_chunks`` row groups (partial aggregates)."""
    bounds = np.linspace(0, len(rows), n_chunks + 1).astype(int)
    return _write_groups(path, name, columns_of, attrs, [
        rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])


@given(traced_runs(), st.data())
@SETTINGS
def test_differential_logical(tmp_path, run, data):
    spec, logical, physical = run
    query = data.draw(queries(_LOGICAL_FIELDS))
    expected = row_walk_query(logical, query)
    for pushdown in (True, False):
        got = query_trace(logical, query, pushdown=pushdown)
        assert got == expected, ("in-memory", pushdown, query)

    flavors = {
        "stats": export_run(tmp_path / "s.aptrc", logical=logical),
        "nostats": strip_chunk_stats(
            export_run(tmp_path / "n.aptrc", logical=logical)),
    }
    # multi-chunk: the same routes split across row groups
    rows = list(zip(*(col.tolist() for col in logical.to_columns()[0].values())))
    if rows:
        attrs = {"nodes": spec.nodes, "pes_per_node": spec.pes_per_node,
                 "n_pes": spec.n_pes}
        flavors["chunked"] = _export_chunked(
            tmp_path / "c.aptrc", "logical", ("src", "dst", "size", "count"),
            attrs, rows, n_chunks=3)

    for label, path in flavors.items():
        with Archive(path) as archive:
            section = archive.section("logical")
            for pushdown in (True, False):
                got = query_trace(section, query, pushdown=pushdown)
                assert got == expected, (label, pushdown, query)


@given(traced_runs(), st.data())
@SETTINGS
def test_differential_physical(tmp_path, run, data):
    spec, logical, physical = run
    query = data.draw(queries(_PHYSICAL_FIELDS))
    expected = row_walk_query(physical, query)
    for pushdown in (True, False):
        got = query_trace(physical, query, pushdown=pushdown)
        assert got == expected, ("in-memory", pushdown, query)
    flavors = {
        "stats": export_run(tmp_path / "s.aptrc", physical=physical),
        "nostats": strip_chunk_stats(
            export_run(tmp_path / "n.aptrc", physical=physical)),
    }
    # multi-chunk: the aggregated rows split across row groups
    columns, attrs = physical.to_columns()
    flavors["chunked"] = _export_chunked(
        tmp_path / "c.aptrc", "physical", tuple(columns), attrs,
        list(zip(*(col.tolist() for col in columns.values()))),
        n_chunks=3)
    for label, path in flavors.items():
        with Archive(path) as archive:
            section = archive.section("physical")
            for pushdown in (True, False):
                got = query_trace(section, query, pushdown=pushdown)
                assert got == expected, (label, pushdown, query)


def test_pruning_skips_chunks_but_not_answers(tmp_path):
    """A selective predicate decodes fewer row groups under pushdown."""
    rows = [(src, dst, 8, 1) for src in range(64) for dst in range(4)]
    attrs = {"nodes": 1, "pes_per_node": 64, "n_pes": 64}
    path = _export_chunked(tmp_path / "p.aptrc", "logical",
                           ("src", "dst", "size", "count"), attrs,
                           rows, n_chunks=8)
    decodes = {True: 0, False: 0}
    results = {}
    for pushdown in (True, False):
        with Archive(path) as archive:
            real = archive._decode_chunk

            def counting(*args, _real=real, _p=pushdown, **kw):
                decodes[_p] += 1
                return _real(*args, **kw)

            archive._decode_chunk = counting
            results[pushdown] = query_trace(
                archive.section("logical"),
                "sends where src == 3 group by dst", pushdown=pushdown)
    assert results[True] == results[False]
    assert results[True] == [(d, 1) for d in range(4)]
    # src == 3 lives in 1 of 8 row groups; pushdown reads only that one
    assert decodes[True] < decodes[False]


# ----------------------------------------------------------------------
# the fold: split-invariant, exact, one row group of memory
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["logical", "physical"])
@given(run=traced_runs(min_rows=0, min_size=0), data=st.data())
@SETTINGS
def test_fold_is_split_invariant(tmp_path, kind, run, data):
    """However the rows are cut into row groups — one group, a few, one
    per row (so most groups fail any predicate whole), none at all for
    an empty trace — and whichever footer layout carries them, the fold
    answers what the row walk answers.  Sizes may be 0: a key whose
    matching rows sum to 0 bytes is still a group."""
    trace = run[1] if kind == "logical" else run[2]
    query = data.draw(queries(
        _LOGICAL_FIELDS if kind == "logical" else _PHYSICAL_FIELDS))
    expected = row_walk_query(trace, query)
    columns, attrs = trace.to_columns()
    rows = list(zip(*(col.tolist() for col in columns.values())))
    for n_chunks in sorted({1, 2, 7, max(len(rows), 1)}):
        def write(path):
            return _export_chunked(path, kind, tuple(columns), attrs,
                                   rows, n_chunks)
        flavors = {
            "v3": write(tmp_path / "v3.aptrc"),
            "v2": as_v2(write(tmp_path / "v2.aptrc")),
            "v1+stats": as_v1(write, tmp_path / "v1.aptrc"),
            "v1 nostats": strip_chunk_stats(
                as_v1(write, tmp_path / "v1n.aptrc")),
        }
        for label, path in flavors.items():
            with Archive(path) as archive:
                section = archive.section(kind)
                assert section.n_chunks == min(n_chunks, len(rows))
                for pushdown in (True, False):
                    got = query_trace(section, query, pushdown=pushdown)
                    assert got == expected, (label, n_chunks, pushdown, query)


_ATTRS = {"nodes": 1, "pes_per_node": 4, "n_pes": 4}
_COLUMNS = ("src", "dst", "size", "count")


def _logical_groups(path, groups):
    """A ``logical`` section with one row group per ``(src, dst, size,
    count)`` row list."""
    return _write_groups(path, "logical", _COLUMNS, _ATTRS, groups)


def test_group_keys_at_int64_extremes_never_size_an_allocation(tmp_path):
    """Keys 2**64 apart — in different row groups, and inside one — take
    the sort-based grouping, per row group and in the merge: nothing is
    ever allocated by key span."""
    lo, hi = -2 ** 63, 2 ** 63 - 1
    path = _logical_groups(tmp_path / "x.aptrc", [
        [(0, 1, lo, 2), (0, 2, lo, 3)],
        [(1, 1, hi, 5)],
        [(2, 1, lo, 7), (2, 3, hi, 11), (2, 3, 0, 13)],
    ])
    with Archive(path) as archive:
        section = archive.section("logical")
        tracemalloc.start()
        answers = [query_trace(section, "sends group by size", pushdown=p)
                   for p in (True, False)]
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert answers[0] == answers[1] == [(hi, 16), (0, 13), (lo, 12)]
    assert peak < 1 << 20


def test_weights_past_2_53_sum_exactly(tmp_path):
    """``count * size`` of one row group past float64's integer range:
    the bincount guard trips per group and ``np.add.at`` keeps the sums
    exact to the last bit."""
    big = 2 ** 26 + 1                       # big * big is odd, > 2**52
    path = _logical_groups(tmp_path / "x.aptrc", [
        [(0, 1, big, big), (0, 1, big, big), (0, 1, big, big),
         (0, 2, big, big)],
        [(1, 1, 3, 1), (1, 2, 8, 1)],
    ])
    assert 3 * big * big > 2 ** 53 and float(3 * big * big) != 3 * big * big
    with Archive(path) as archive:
        section = archive.section("logical")
        for pushdown in (True, False):
            assert query_trace(section, "bytes group by dst",
                               pushdown=pushdown) \
                == [(1, 3 * big * big + 3), (2, big * big + 8)]
            assert query_trace(section, "bytes where dst == 1",
                               pushdown=pushdown) == 3 * big * big + 3


def _scan_archive(path, n_groups, rows_per_group=4096):
    """``n_groups`` equal row groups, each holding every ``dst``."""
    rng = np.random.default_rng(7)
    return _logical_groups(path, [
        list(zip([g % 4] * rows_per_group,
                 rng.integers(0, 4, rows_per_group).tolist(),
                 (8 * rng.integers(1, 65, rows_per_group)).tolist(),
                 rng.integers(1, 5, rows_per_group).tolist()))
        for g in range(n_groups)])


def test_query_memory_is_one_row_group_not_the_section(tmp_path):
    """Peak traced allocation (numpy reports its buffers to
    ``tracemalloc``) of an unprunable group-by over 32 row groups stays
    within 1.5x of the same query over 4 row groups of the same size,
    and nothing the fold decoded outlives it."""
    peaks = {}
    for n_groups in (4, 32):
        path = _scan_archive(tmp_path / f"{n_groups}.aptrc", n_groups)
        with Archive(path) as archive:
            section = archive.section("logical")
            frame = Frame(section)
            assert frame.prune("dst", "==", 3) and frame.keep.all()
            tracemalloc.start()
            got = query_trace(section, "bytes where dst == 3 group by src")
            peaks[n_groups] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(got) == 4
            assert archive.decoded_columns == {
                ("logical", c) for c in ("src", "dst", "size", "count")}
            assert not section._cache
    assert peaks[32] <= 1.5 * peaks[4], peaks


def test_corrupt_row_group_fails_inside_the_fold_with_its_location(tmp_path):
    """The fold reaches row group *k* only after folding the ones before
    it; a chunk there the codec refuses is still an ``ArchiveError``
    naming file, section, column and offset."""
    path = _scan_archive(tmp_path / "x.aptrc", 5, rows_per_group=64)
    _, footer = read_footer(path)
    entry = footer["sections"]["logical"]["columns"]["size"][3]
    entry[1] -= 1  # the fourth row group's chunk loses its last byte
    with Archive(rewrite_footer(path, footer)) as archive:
        section = archive.section("logical")
        assert query_trace(section, "sends group by dst")  # no size
        assert query_trace(section, "bytes where src == 0")  # pruned away
        for query in ("bytes group by dst", "bytes where dst == 1"):
            with pytest.raises(ArchiveError) as excinfo:
                query_trace(section, query, pushdown=False)
            assert all(part in str(excinfo.value) for part in (
                str(path), "'logical'", "'size'", f"offset {entry[0]}"))


#: Row groups whose ``src`` is one value (a sorted spill's) beside mixed
#: ones, each with queries and what they must answer.  In the first two
#: cases every group's ``dst`` interval holds 2, so ``dst == 2`` prunes
#: nothing and the one-key path sees groups the mask matches not at all.
FOLD_CASES = {
    "mask matches no row: key absent": (
        [[(0, 1, 8, 2), (0, 3, 8, 1)], [(1, 2, 8, 1), (1, 3, 8, 4)]],
        {"sends where dst == 2 group by src": [(1, 1)],
         "bytes where dst == 2 group by src": [(1, 8)],
         "sends where dst == 2": 1}),
    "mask matches only zero weights: key present with 0": (
        [[(0, 2, 0, 5), (0, 1, 8, 1), (0, 3, 8, 1)],
         [(1, 2, 8, 2), (1, 3, 8, 1)],
         [(2, 2, 8, 0), (2, 1, 8, 4), (2, 3, 8, 1)]],
        {"bytes where dst == 2 group by src": [(1, 16), (0, 0), (2, 0)],
         "sends where dst == 2 group by src": [(0, 5), (1, 2), (2, 0)],
         "bytes where dst == 2": 16}),
    "one key constant in one row group, mixed in another": (
        [[(3, 0, 8, 1), (3, 0, 16, 2), (3, 0, 32, 1)],
         [(1, 2, 16, 1), (3, 1, 8, 5), (2, 0, 24, 2), (3, 2, 32, 1)]],
        {"bytes where size >= 16 group by src": [(3, 96), (2, 48), (1, 16)],
         "sends group by src": [(3, 10), (2, 2), (1, 1)],
         "sends where size > 8 group by dst": [(0, 5), (2, 2)]}),
    "parts merge partway through the scan": (
        [[(g % 3, 1 + g % 3, 8 * (1 + g % 4), 1 + g % 2),
          (g % 3, 2, 16, 1)] for g in range(9)]
        + [[(0, 0, 8, 1), (1, 2, 32, 1), (3, 3, 0, 2)]]
        + [[(g % 4, 3, 24, 2), (g % 4, 1, 8, 1)] for g in range(6)],
        {"bytes where size >= 16 group by src":
             [(1, 272), (0, 232), (2, 152), (3, 48)],
         "sends where dst != 0 group by src top 2": [(1, 15), (0, 13)],
         "bytes where size >= 16": 704}),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_fold_of_one_key_row_groups(tmp_path, monkeypatch, case):
    """A one-key row group is one masked reduce, and parts merge before
    the scan ends: every reader layout, with pushdown on and off, answers
    what the row walk and the table above answer."""
    groups, answers = FOLD_CASES[case]

    def write(path):
        return _logical_groups(path, groups)

    flat = {name: np.array([row[i] for rows in groups for row in rows])
            for i, name in enumerate(_COLUMNS)}
    trace = LogicalTrace.from_columns(flat, _ATTRS)
    paths = {"v3": write(tmp_path / "v3.aptrc"),
             "v2": as_v2(write(tmp_path / "v2.aptrc")),
             "v1+stats": as_v1(write, tmp_path / "v1.aptrc"),
             "v1 nostats": strip_chunk_stats(
                 as_v1(write, tmp_path / "v1n.aptrc"))}
    calls = []
    monkeypatch.setattr(query_module, "group_sum",
                        lambda *a: calls.append(a) or group_sum(*a))
    for query, answer in answers.items():
        assert row_walk_query(trace, query) == answer, query
        for pushdown in (True, False):
            assert query_trace(MemorySection(flat, _ATTRS), query,
                               pushdown=pushdown) == answer, (query, pushdown)
            for label, path in paths.items():
                with Archive(path) as archive:
                    got = query_trace(archive.section("logical"), query,
                                      pushdown=pushdown)
                assert got == answer, (label, pushdown, query)
    if case.startswith("parts merge"):
        calls.clear()
        with Archive(paths["v3"]) as archive:
            query_trace(archive.section("logical"),
                        "sends group by src", pushdown=False)
        # one call per row group, one at the end, and merges between
        assert len(calls) > len(groups) + 1


_NODE_ATTRS = {"nodes": 3, "pes_per_node": 4, "n_pes": 12}

#: Row groups of one ``src`` each — zero-width ``src`` chunks, whose keys
#: the fold takes from the chunk index — beside a mixed one.  ``src`` 5
#: comes back in a later group, so parts carry one key twice; one group
#: weighs 0 bytes in every row, and the last is one row (every column
#: zero-width).
CONSTANT_KEY_GROUPS = [
    [(5, 0, 8, 1), (5, 1, 16, 2), (5, 2, 0, 3)],
    [(6, 2, 0, 4), (6, 2, 0, 1)],
    [(1, 3, 24, 1), (9, 2, 16, 2), (4, 0, 8, 1)],
    [(7, 1, 32, 2), (7, 2, 16, 1)],
    [(5, 3, 8, 7), (5, 0, 40, 1)],
    [(11, 1, 32, 2)],
]
#: Masks selecting every row, some rows, rows of zero weight and none.
CONSTANT_KEY_CONDITIONS = {
    "": lambda c: np.ones(len(c["src"]), dtype=bool),
    " where size >= 16": lambda c: c["size"] >= 16,
    " where dst == 2": lambda c: c["dst"] == 2,
    " where size == 0": lambda c: c["size"] == 0,
    " where size > 99": lambda c: c["size"] > 99,
}


def _numpy_group_answer(cols, metric, mask, key):
    """Ranked ``(key, amount)`` pairs by plain numpy over flat columns."""
    weights = cols["count"] * (cols["size"] if metric == "bytes" else 1)
    keys = cols["src"] // (4 if key == "src_node" else 1)
    present = np.unique(keys[mask])
    amounts = [int(weights[mask & (keys == k)].sum()) for k in present]
    return sorted(zip(present.tolist(), amounts),
                  key=lambda kv: (-kv[1], str(kv[0])))


def _constant_key_archive(path):
    """``CONSTANT_KEY_GROUPS`` with every zero-width chunk's stride
    rewritten to something other than the writer's 1 (a width-0 chunk
    never reads it), stats and all."""
    _write_groups(path, "logical", _COLUMNS, _NODE_ATTRS, CONSTANT_KEY_GROUPS)
    _, footer = read_footer(path)
    strides, rewritten = iter([3, 2 ** 63, 7, 2 ** 64 - 1] * 10), 0
    for entries in footer["sections"]["logical"]["columns"].values():
        for entry in entries:
            if entry[2].startswith("pack:") and entry[2].endswith(":1:0"):
                lo = entry[2].split(":")[1]
                entry[2] = f"pack:{lo}:{next(strides)}:0"
                rewritten += 1
    assert rewritten >= 6
    return rewrite_footer(path, footer)


def test_constant_group_keys_match_numpy_and_the_row_walk(
        tmp_path, monkeypatch):
    """Group-by over row groups whose key chunk is a zero-width ``pack``
    at strides other than 1: the keys' bounds come from the chunk index
    (``src`` and ``src_node`` alike), and every answer equals plain
    numpy's, the row walk's, the in-memory section's and the stat-less
    archive's, with pushdown on and off."""
    rows = [row for rows in CONSTANT_KEY_GROUPS for row in rows]
    cols = {name: np.array(col) for name, col in zip(_COLUMNS, zip(*rows))}
    trace = LogicalTrace.from_columns(cols, _NODE_ATTRS)
    paths = {"v3": _constant_key_archive(tmp_path / "v3.aptrc"),
             "v2": as_v2(_constant_key_archive(tmp_path / "v2.aptrc")),
             "v2 nostats": strip_chunk_stats(
                 _constant_key_archive(tmp_path / "v2n.aptrc"))}
    calls = []
    monkeypatch.setattr(query_module, "group_sum",
                        lambda *a: calls.append(a) or group_sum(*a))
    for where, select in CONSTANT_KEY_CONDITIONS.items():
        for metric in ("sends", "bytes"):
            for key in ("src", "src_node"):
                query = f"{metric}{where} group by {key}"
                want = _numpy_group_answer(cols, metric, select(cols), key)
                assert row_walk_query(trace, query) == want, query
                for pushdown in (True, False):
                    got = query_trace(MemorySection(cols, _NODE_ATTRS),
                                      query, pushdown=pushdown)
                    assert got == want, (query, pushdown)
                    for label, path in paths.items():
                        calls.clear()
                        with Archive(path) as archive:
                            got = query_trace(archive.section("logical"),
                                              query, pushdown=pushdown)
                        assert got == want, (label, query, pushdown)
                        if not pushdown:  # every row group is folded
                            bounds = [a[3] for a in calls if len(a) == 4]
                            div = 4 if key == "src_node" else 1
                            assert bounds == [
                                None if len({r[0] for r in g}) > 1
                                else (g[0][0] // div,) * 2
                                for g in CONSTANT_KEY_GROUPS], query


def test_zero_width_chunk_with_payload_bytes_still_raises(tmp_path):
    """A zero-width ``src`` chunk the footer says has bytes is corrupt:
    it is decoded, not taken from the index, and a grouped query fails
    with the located ``ArchiveError``."""
    path = _logical_groups(tmp_path / "x.aptrc", [
        [(0, 1, 8, 1), (0, 2, 16, 1)], [(1, 1, 8, 2), (1, 3, 8, 1)]])
    _, footer = read_footer(path)
    entry = footer["sections"]["logical"]["columns"]["src"][0]
    assert entry[2] == "pack:0:1:0" and entry[1] == 0
    entry[1] = 1
    with Archive(rewrite_footer(path, footer)) as archive:
        section = archive.section("logical")
        for query in ("sends group by src", "bytes where dst == 1 group by src",
                      "sends group by src_node"):
            for pushdown in (True, False):
                with pytest.raises(ArchiveError) as excinfo:
                    query_trace(section, query, pushdown=pushdown)
                assert all(part in str(excinfo.value) for part in (
                    "'logical'", "'src'", f"offset {entry[0]}",
                    "expected 0")), query


#: What the parent of the row-group fold (whole-column scatter) made of
#: ``_scan_archive(path, 7, rows_per_group=50)``, under the version-3
#: footer (its version-2 spelling is the earlier pin, byte for byte).
CHUNKED_BACKFILL_SHA256 = (
    "e1e7da36f708e6af1d390794f8a5cfce82c4162c78fb63559a0190ecbb402d70")
CHUNKED_DIFF_REPORT = (
    "== comparing 'a' (A) vs 'b' (B) ==\n"
    "logical: sends A=882 B=367; hottest-sender ratio 2.01x, "
    "hottest-receiver ratio 2.71x\n"
    "logical: send imbalance A=1.16 B=1.38\n"
    "logical: |A−B| matrix mass = 515 messages")


def test_chunked_backfill_and_diff_are_byte_identical_to_whole_column(
        tmp_path):
    from repro.api import diff

    chunked = _scan_archive(tmp_path / "c.aptrc", 7, rows_per_group=50)
    other = _scan_archive(tmp_path / "o.aptrc", 3, rows_per_group=50)
    filled = backfill_pyramid(chunked, tmp_path / "filled.aptrc")
    assert hashlib.sha256(filled.read_bytes()).hexdigest() \
        == CHUNKED_BACKFILL_SHA256
    assert diff(chunked, other, label_a="a", label_b="b") \
        == CHUNKED_DIFF_REPORT


# ----------------------------------------------------------------------
# vectorized varint codec vs scalar oracle
# ----------------------------------------------------------------------

uint64s = st.integers(0, 2**64 - 1)

#: Width-boundary values: first/last value of every varint byte width,
#: including the 10-byte encodings at the top of the range.
BOUNDARY = sorted({0, 1} | {
    v for k in range(1, 10) for v in
    ((1 << (7 * k)) - 1, 1 << (7 * k), (1 << (7 * k)) + 1)
} | {2**63 - 1, 2**63, 2**64 - 1})


@given(st.lists(uint64s, max_size=200))
@SETTINGS
def test_vectorized_encode_is_byte_identical(values):
    arr = np.asarray(values, dtype=np.uint64)
    assert encode_uvarints(arr) == encode_uvarints_scalar(arr)


@given(st.lists(uint64s, max_size=200))
@SETTINGS
def test_vectorized_decode_matches_scalar(values):
    arr = np.asarray(values, dtype=np.uint64)
    payload = encode_uvarints_scalar(arr)
    got = decode_uvarints(payload, len(values))
    oracle = decode_uvarints_scalar(payload, len(values))
    assert got.dtype == oracle.dtype == np.uint64
    assert got.tolist() == oracle.tolist() == values


def test_boundary_values_roundtrip():
    arr = np.asarray(BOUNDARY, dtype=np.uint64)
    payload = encode_uvarints(arr)
    assert payload == encode_uvarints_scalar(arr)
    assert decode_uvarints(payload, len(BOUNDARY)).tolist() == BOUNDARY


@given(st.binary(max_size=64), st.integers(0, 16))
@SETTINGS
def test_decode_accepts_and_rejects_exactly_like_scalar(data, count):
    """Arbitrary byte soup: both decoders agree on accept/reject and,
    when rejecting, on the error message."""
    try:
        oracle = decode_uvarints_scalar(data, count)
        oracle_err = None
    except CodecError as exc:
        oracle, oracle_err = None, str(exc)
    try:
        got = decode_uvarints(data, count)
        got_err = None
    except CodecError as exc:
        got, got_err = None, str(exc)
    assert got_err == oracle_err
    if oracle is not None:
        assert got.tolist() == oracle.tolist()


@pytest.mark.parametrize("stream,count,message", [
    (b"\x80", 1, "truncated"),                  # continuation, then EOF
    (b"\x01\x01", 1, "trailing"),               # one value, extra byte
    (b"\x01", 0, "trailing"),                   # zero values, data present
    (b"\x80" * 10 + b"\x01", 1, "overflows"),   # 11-byte varint
    (b"\x80" * 9 + b"\x02", 1, "overflows"),    # 10 bytes, payload > 1 bit
    # stream-order precedence: an overflow earlier in the stream wins
    # over truncation / trailing bytes discovered later
    (b"\x80" * 9 + b"\x02", 2, "overflows"),    # value 0 overflows, 1 missing
    (b"\x80" * 10, 1, "overflows"),             # unfinished 10-byte run
    (b"\x01" + b"\x80" * 10 + b"\x01\x05", 2, "overflows"),  # + trailing
])
def test_malformed_streams_rejected(stream, count, message):
    for decoder in (decode_uvarints, decode_uvarints_scalar):
        with pytest.raises(CodecError, match=message):
            decoder(stream, count)


def test_ten_byte_varint_top_bit():
    # 2**63 needs the 10th byte's single payload bit — legal and exact
    payload = encode_uvarints(np.asarray([2**63], dtype=np.uint64))
    assert len(payload) == 10
    assert decode_uvarints(payload, 1).tolist() == [2**63]
