"""Content-addressed keys + normalization behind the result cache, and
the arbiter's get → call → put dispatch over it."""

import pytest

from repro.core.query import QueryError, normalize, parse
from repro.serve import Arbiter, ServerConfig
from repro.serve.artifacts import diff_key, query_key


def test_normalize_collapses_cosmetic_variants():
    canonical = normalize("sends where src == 0 group by dst top 5")
    variants = [
        "sends  where   src==0 group by dst top 5",
        "SENDS WHERE SRC == 0 GROUP BY DST TOP 5",
        "sends where src ==0 group  by dst top 5",
    ]
    for variant in variants:
        assert normalize(variant) == canonical, variant
    # and canonical text is a fixed point
    assert normalize(canonical) == canonical


def test_normalize_keeps_semantic_differences_apart():
    assert normalize("sends where src == 0") != normalize("sends where dst == 0")
    assert normalize("sends") != normalize("bytes")
    assert normalize("sends group by dst top 5") \
        != normalize("sends group by dst top 6")


def test_normalize_drops_top_without_group_by():
    # `top` ranks group-by output; without one it changes nothing, so it
    # must not fragment the artifact store's cache keys either
    assert normalize("sends top 5") == normalize("sends")
    assert normalize("sends top 5") == normalize("sends top 6")


def test_canonical_renders_every_clause():
    q = parse("bytes where src != dst and size >= 64 group by kind top 3")
    assert q.canonical() == ("bytes where src != dst and size >= 64 "
                             "group by kind top 3")
    assert parse("ops").canonical() == "ops"


def test_normalize_rejects_bad_queries():
    for bad in ("", "sends where", "frobnicate", "sends where src @ 1"):
        with pytest.raises(QueryError):
            normalize(bad)


def test_query_key_tracks_every_component():
    base = query_key("f" * 64, "logical", "sends")
    assert len(base) == 64 and base == query_key("f" * 64, "logical", "sends")
    assert query_key("e" * 64, "logical", "sends") != base
    assert query_key("f" * 64, "physical", "sends") != base
    assert query_key("f" * 64, "logical", "bytes") != base


def test_diff_key_is_order_sensitive():
    a, b = "a" * 64, "b" * 64
    key = diff_key(a, b, "x", "y")
    assert key == diff_key(a, b, "x", "y")
    assert key != diff_key(b, a, "x", "y")  # diff(a,b) != diff(b,a)
    assert key != query_key(a, "logical", b)  # kinds don't collide
    # the report names both runs: other labels, other entry
    assert key != diff_key(a, b, "x-2", "y")
    assert key != diff_key(a, b, "x", "y-2")


def test_store_roundtrip_and_stats(tmp_path):
    arbiter = Arbiter(ServerConfig(data_dir=tmp_path, cache_max_bytes=1 << 20))
    key = query_key("f" * 64, "logical", "sends")
    calls = []

    def task(**kwargs):
        calls.append(kwargs)
        return {"result": 3}

    assert arbiter.dispatch(task, key, query="sends") == ({"result": 3}, False)
    assert arbiter.dispatch(task, key, query="sends") == ({"result": 3}, True)
    assert calls == [{"query": "sends"}]
    payload = arbiter.stats()["artifacts"]
    assert payload["entries"] == 1
    assert payload["bytes"] > 0
    assert payload["max_bytes"] == 1 << 20
    assert payload["hits"] == 1 and payload["stores"] == 1


def test_a_task_that_raises_propagates_and_is_not_stored(tmp_path):
    arbiter = Arbiter(ServerConfig(data_dir=tmp_path))
    key = diff_key("a" * 64, "b" * 64, "a", "b")

    def broken(**kwargs):
        raise RuntimeError("lost")

    with pytest.raises(RuntimeError, match="lost"):
        arbiter.dispatch(broken, key)
    assert arbiter.stats()["artifacts"]["entries"] == 0
    assert arbiter.dispatch(lambda: {"report": ""}, key) == ({"report": ""}, False)
