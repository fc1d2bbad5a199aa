"""The row store behind the four traces vs the dict/tuple recorders.

Random ``record``/``record_batch``/``clear`` sequences go through both a
production trace and its reference recorder (``tests/trace_oracle.py``);
the columns must agree value for value and in row order.  The block size
is shrunk so short runs cross many block boundaries (and one test
crosses the real one), sampling intervals range over 1–16.  The archive
attrs a trace adopts are a trust boundary: malformed ``ticks``,
``main_totals``/``proc_totals`` and event columns are refused by name.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conveyors.hooks import SEND_TYPES
from repro.core import rowstore
from repro.core.logical import LogicalTrace
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.store.archive import load_run
from repro.core.timeline import REGIONS, TimelineTrace
from repro.machine.spec import MachineSpec
from tests.archive_tools import read_footer, rewrite_footer
from tests.test_golden_archives import GOLDEN_DIR
from tests.trace_oracle import (
    OracleLogical,
    OraclePAPI,
    OraclePhysical,
    OracleTimeline,
    same_columns,
)

SETTINGS = settings(max_examples=60, deadline=None)
SPEC = MachineSpec(2, 3)
PES = st.integers(0, SPEC.n_pes - 1)
BLOCKS = st.integers(1, 8)


def _replay(block_rows, build, ops):
    """Apply ``ops`` to the production trace and its oracle (built by
    ``build``) under a ``block_rows`` block size; returns both."""
    with mock.patch.object(rowstore, "BLOCK_ROWS", block_rows):
        trace, oracle = build()
    for name, *args in ops:
        getattr(trace, name)(*args)
        getattr(oracle, name)(*args)
    return trace, oracle


LOGICAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("record"), PES, PES, st.sampled_from((8, 16, 24))),
    st.tuples(st.just("record_batch"), PES,
              st.lists(PES, max_size=12).map(np.array),
              st.sampled_from((8, 16))),
    st.tuples(st.just("clear")),
), max_size=40)


@given(BLOCKS, st.integers(1, 16), LOGICAL_OPS)
@SETTINGS
def test_logical_matches_dict_recorder(block_rows, interval, ops):
    trace, oracle = _replay(block_rows, lambda: (
        LogicalTrace(SPEC, interval), OracleLogical(SPEC, interval)), ops)
    (got, got_attrs), (want, want_attrs) = trace.to_columns(), oracle.to_columns()
    assert same_columns(got, want) and got_attrs == want_attrs
    assert trace.total_sends() == int(want["count"].sum())


PHYSICAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from(SEND_TYPES),
              st.sampled_from((8, 64, 4096)), PES, PES, st.just(0)),
    st.tuples(st.just("clear")),
), max_size=40)


@given(BLOCKS, PHYSICAL_OPS)
@SETTINGS
def test_physical_matches_dict_recorder(block_rows, ops):
    trace, oracle = _replay(block_rows, lambda: (
        PhysicalTrace(SPEC.n_pes, SPEC), OraclePhysical(SPEC.n_pes, SPEC)),
        ops)
    (got, got_attrs), (want, want_attrs) = trace.to_columns(), oracle.to_columns()
    assert same_columns(got, want) and got_attrs == want_attrs


PAPI_OPS = st.lists(st.tuples(
    st.just("record"), PES, PES, st.integers(0, 64), st.integers(-1, 2),
    st.integers(0, 10**6), st.lists(st.integers(0, 2**40), min_size=2,
                                    max_size=2)), max_size=40)


@given(BLOCKS, PAPI_OPS)
@SETTINGS
def test_papi_matches_tuple_recorder(block_rows, ops):
    events = ("PAPI_TOT_INS", "PAPI_LST_INS")
    trace, oracle = _replay(block_rows, lambda: (
        PAPITrace(SPEC, events), OraclePAPI(SPEC, events)), ops)
    (got, got_attrs), (want, want_attrs) = trace.to_columns(), oracle.to_columns()
    assert same_columns(got, want) and got_attrs == want_attrs
    for pe in range(SPEC.n_pes):  # rows(pe) is the CSV's column order
        rows = trace.rows(pe)
        mine = want["src"] == pe
        assert rows.shape == (int(mine.sum()), 9)
        assert (rows[:, 1] == pe).all() and (rows[:, 0] == pe // 3).all()
        assert np.array_equal(rows[:, 7], want["ev_0"][mine])


TIMELINE_OPS = st.lists(st.one_of(
    st.tuples(st.just("add_span"), PES, st.sampled_from(REGIONS),
              st.integers(0, 500), st.integers(0, 500), st.integers(-1, 2)
              ).map(lambda t: (*t[:3], t[3], t[3] + t[4], t[5])),
    st.tuples(st.just("add_net_event"), st.integers(0, 1000),
              st.sampled_from(SEND_TYPES), PES, PES, st.integers(0, 4096)),
), max_size=40)


@given(BLOCKS, st.integers(1, 6), TIMELINE_OPS)
@SETTINGS
def test_timeline_matches_tuple_recorder(block_rows, cap, ops):
    trace, oracle = _replay(block_rows, lambda: (
        TimelineTrace(SPEC.n_pes, cap), OracleTimeline(SPEC.n_pes, cap)), ops)
    assert same_columns(trace.span_columns(), oracle.span_columns())
    assert same_columns(trace.net_columns(), oracle.net_columns())
    assert trace.dropped_spans == oracle.dropped_spans
    spans = oracle.span_columns()
    assert trace.span_count() == len(spans["pe"])
    assert trace.end_time() == max(
        [0, *spans["end"].tolist(), *oracle.net_columns()["time"].tolist()])


def test_runs_crossing_the_real_block_size():
    rows = rowstore.BLOCK_ROWS + 1234
    trace, oracle = LogicalTrace(SPEC, 3), OracleLogical(SPEC, 3)
    dsts = np.arange(rows) % SPEC.n_pes
    for i, dst in enumerate(dsts.tolist()):
        trace.record(i % 2, dst, 8 + i % 5)
        oracle.record(i % 2, dst, 8 + i % 5)
    trace.record_batch(4, dsts, 16)
    oracle.record_batch(4, dsts, 16)
    assert same_columns(trace.to_columns()[0], oracle.to_columns()[0])
    spans, spans_oracle = TimelineTrace(1, rows), OracleTimeline(1, rows)
    for i in range(rows):
        spans.add_span(0, REGIONS[i % 3], i, i + 7)
        spans_oracle.add_span(0, REGIONS[i % 3], i, i + 7)
    assert same_columns(spans.span_columns(), spans_oracle.span_columns())


def test_adopted_duplicates_fold_like_a_recorded_run():
    columns = {"src": [2, 0, 2, 0], "dst": [1, 1, 1, 3], "size": [8, 8, 8, 8],
               "count": [1, 2, 3, 4]}
    trace = LogicalTrace.from_columns(
        {k: np.array(v) for k, v in columns.items()}, SPEC.attrs())
    got, attrs = trace.to_columns()
    assert {k: v.tolist() for k, v in got.items()} == {
        "src": [0, 0, 2], "dst": [1, 3, 1], "size": [8, 8, 8],
        "count": [2, 4, 4]}
    assert attrs["ticks"] == [6, 0, 4, 0, 0, 0]


# ----------------------------------------------------------------------
# archive attrs are validated, by section, attr and shape
# ----------------------------------------------------------------------

def _tampered(tmp_path, section, edit):
    golden = GOLDEN_DIR / "histogram.aptrc"
    footer = json.loads(json.dumps(read_footer(golden)[1]))
    edit(footer["sections"][section]["attrs"])
    return rewrite_footer(golden, footer, out=tmp_path / "bad.aptrc")


def test_short_ticks_attr_is_refused(tmp_path):
    path = _tampered(tmp_path, "logical", lambda a: a["ticks"].pop())
    with pytest.raises(ValueError, match=r"logical section attr 'ticks' "
                       r"has shape \(3,\), expected shape \(4,\)"):
        load_run(path)


def test_short_main_totals_attr_is_refused(tmp_path):
    path = _tampered(tmp_path, "papi", lambda a: a["main_totals"].pop())
    with pytest.raises(ValueError, match=r"papi section attr 'main_totals' "
                       r"has shape \(3, 2\), expected shape \(4, 2\)"):
        load_run(path)


def test_ragged_proc_totals_attr_is_refused(tmp_path):
    path = _tampered(tmp_path, "papi", lambda a: a["proc_totals"][1].pop())
    with pytest.raises(ValueError, match=r"papi section attr 'proc_totals' "
                       r"has a ragged list, expected shape \(4, 2\)"):
        load_run(path)


def test_event_without_its_column_is_refused(tmp_path):
    path = _tampered(tmp_path, "papi",
                     lambda a: a["events"].append("PAPI_L1_DCM"))
    with pytest.raises(ValueError, match=r"papi section lacks column "
                       r"'ev_2' for attr 'events'"):
        load_run(path)
