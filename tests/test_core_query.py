"""Tests for the declarative trace query language."""

import pytest

from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
from repro.core.query import Query, QueryError, parse, query_trace
from repro.machine import MachineSpec


@pytest.fixture
def logical():
    t = LogicalTrace(MachineSpec(2, 2))
    for _ in range(5):
        t.record(0, 1, 8)
    for _ in range(3):
        t.record(0, 3, 16)
    t.record(2, 0, 8)
    return t


@pytest.fixture
def physical():
    t = PhysicalTrace(4)
    t.record("local_send", 100, 0, 1, 0)
    t.record("local_send", 100, 0, 1, 0)
    t.record("nonblock_send", 200, 1, 3, 0)
    t.record("nonblock_progress", 8, 1, 3, 0)
    return t


# -------------------------------------------------------------- parsing


def test_parse_plain_metric():
    q = parse("sends")
    assert q == Query("sends")


def test_parse_full_query():
    q = parse("bytes where src == 0 and size >= 16 group by dst top 3")
    assert q.metric == "bytes"
    assert len(q.conditions) == 2
    assert q.conditions[0].field == "src" and q.conditions[0].value == 0
    assert q.conditions[1].op == ">="
    assert q.group_by == "dst"
    assert q.top == 3


def test_parse_kind_condition():
    q = parse("ops where kind == local_send")
    assert q.conditions[0].value == "local_send"


def test_parse_errors():
    for bad in (
        "",
        "frobnicate",
        "sends where flux == 1",
        "sends where src <> 1",
        "sends where src ==",
        "sends group dst",
        "sends group by flux",
        "sends top x",
        "sends trailing junk",
        "sends where kind < local_send",
        "sends where src == local_send",
    ):
        with pytest.raises(QueryError):
            parse(bad)


def test_lexer_rejects_stray_characters():
    """A character no token can match is an error naming char + column —
    ``findall`` used to skip it silently, so ``src == 0 @ group by dst``
    quietly parsed as ``src == 0 group by dst``."""
    with pytest.raises(QueryError) as exc:
        parse("sends where src == 0 @ group by dst")
    msg = str(exc.value)
    assert "'@'" in msg and "column 22" in msg
    for bad in (
        "sends where src == $1",
        "sends; drop",
        "sends where size == 0.5",
        "sends where src == 0 # comment",
    ):
        with pytest.raises(QueryError, match="unexpected character"):
            parse(bad)


def test_parse_negative_integer_literal():
    q = parse("sends where size > -1")
    assert q.conditions[0].value == -1
    assert parse("bytes where dst >= -12").conditions[0].value == -12


def test_top_still_rejects_negative():
    with pytest.raises(QueryError):
        parse("sends group by dst top -1")


# ------------------------------------------------------------ evaluation


def test_total_sends(logical):
    assert query_trace(logical, "sends") == 9


def test_where_filters(logical):
    assert query_trace(logical, "sends where src == 0") == 8
    assert query_trace(logical, "sends where size == 16") == 3
    assert query_trace(logical, "sends where src == 0 and dst != 1") == 3


def test_bytes_metric(logical):
    assert query_trace(logical, "bytes") == 5 * 8 + 3 * 16 + 8
    assert query_trace(logical, "bytes where dst == 3") == 48


def test_node_fields(logical):
    # node 0 hosts PEs 0-1; node 1 hosts PEs 2-3
    assert query_trace(logical, "sends where src_node != dst_node") == 3 + 1


def test_group_by_and_top(logical):
    ranked = query_trace(logical, "sends where src == 0 group by dst")
    assert ranked == [(1, 5), (3, 3)]
    assert query_trace(logical, "sends group by src top 1") == [(0, 8)]


def test_physical_queries(physical):
    assert query_trace(physical, "ops") == 4
    assert query_trace(physical, "ops where kind == local_send") == 2
    assert query_trace(physical, "bytes where kind != nonblock_progress") == 400
    # an unknown send-type name matches no row, so != matches them all
    assert query_trace(physical, "ops where kind != no_such_kind") == 4
    assert query_trace(physical, "ops where kind == no_such_kind") == 0
    # groups are labelled by send-type name; ties rank by name
    assert query_trace(physical, "ops group by kind") == [
        ("local_send", 2), ("nonblock_progress", 1), ("nonblock_send", 1)]


def test_kind_on_logical_trace_rejected(logical):
    with pytest.raises(QueryError):
        query_trace(logical, "sends where kind == local_send")
    with pytest.raises(QueryError):
        query_trace(logical, "sends group by kind")
    # an empty trace has no rows to trip over, and still rejects it
    empty = LogicalTrace(MachineSpec(2, 2))
    assert query_trace(empty, "sends where src_node == 0 group by dst") == []
    with pytest.raises(QueryError, match="does not exist on this trace"):
        query_trace(empty, "sends where kind == local_send")


def test_node_fields_on_physical_rejected(physical):
    with pytest.raises(QueryError, match="needs node info"):
        query_trace(physical, "ops where src_node == 0")
    with pytest.raises(QueryError, match="needs node info"):
        query_trace(physical, "ops group by dst_node")


def test_query_wrong_object():
    with pytest.raises(QueryError):
        query_trace(42, "sends")


def test_deterministic_tie_ranking(logical):
    # equal counts rank by stringified key for stability
    t = LogicalTrace(MachineSpec(1, 4))
    t.record(0, 1, 8)
    t.record(0, 2, 8)
    assert query_trace(t, "sends group by dst") == [(1, 1), (2, 1)]


def test_field_to_field_comparison(logical):
    """src == dst style comparisons (e.g. self-sends, intra-node traffic)."""
    t = LogicalTrace(MachineSpec(1, 4))
    t.record(0, 0, 8)  # self-send
    t.record(0, 1, 8)
    assert query_trace(t, "sends where src == dst") == 1
    assert query_trace(t, "sends where src != dst") == 1


def test_negative_values_evaluate_in_memory(logical):
    """`size > -1` must match everything, not raise or match nothing."""
    total = query_trace(logical, "sends")
    assert query_trace(logical, "sends where size > -1") == total
    assert query_trace(logical, "sends where size < -1") == 0
    assert (query_trace(logical, "bytes where dst >= -3 group by dst")
            == query_trace(logical, "bytes group by dst"))


def test_negative_values_evaluate_on_archive():
    """The archive-backed (vectorized) path accepts negatives too."""
    from pathlib import Path

    from repro.core.store.archive import Archive

    golden = Path(__file__).resolve().parent / "golden" / "histogram.aptrc"
    with Archive(golden) as archive:
        section = archive.section("logical")
        total = query_trace(section, "sends")
        assert total > 0
        assert query_trace(section, "sends where size > -1") == total
        assert query_trace(section, "sends where src <= -1") == 0
        with pytest.raises(QueryError):
            query_trace(section, "sends where src == 0 @ group by dst")
