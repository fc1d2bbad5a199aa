"""Unit tests for the :mod:`repro.exec` parallel run engine.

Worker functions come from :mod:`repro.exec._selftest` — they must live
in an importable module because pooled runs execute them in spawned
child processes.  Pooled tests use ``jobs=2`` so they exercise real
spawning even on single-core CI runners (the pool multiplexes).
"""

import json

import pytest

from repro.check.parallel import run_audit_schedule
from repro.exec import ResultCache, cache_key_for, execute
from repro.exec._selftest import (
    boom,
    echo,
    mixed,
    touch_and_count,
    write_artifact,
)


def echo_points(n):
    return [(f"e{i}", {"value": i * 10}) for i in range(n)]


# ------------------------------------------------------------- key layer


def test_cache_key_is_deterministic_and_order_insensitive():
    a = cache_key_for(echo, {"x": 1, "y": 2})
    b = cache_key_for(echo, {"y": 2, "x": 1})
    assert a == b and len(a) == 64
    assert cache_key_for(echo, {"x": 1, "y": 3}) != a
    assert cache_key_for(write_artifact, {"x": 1, "y": 2}) != a


def test_cache_key_rejects_unserializable_kwargs():
    with pytest.raises(ValueError, match="JSON-serializable"):
        cache_key_for(echo, {"x": object()})


def test_cache_key_is_pinned():
    """The key material is ``{"fn": "module:qualname", "kwargs": ...}``;
    this digest was taken when workers were still named by dotted-path
    strings, so a result cache written back then still hits."""
    descriptor = {
        "kind": "histogram", "updates": 120, "table_size": 16, "nodes": 2,
        "pes_per_node": 2, "seed": 0,
        "conveyor": {"payload_words": 1, "buffer_items": 64, "slots": 2,
                     "topology": "auto", "self_send_bypass": False,
                     "item_header_bytes": 8, "buffer_header_bytes": 16},
    }
    kwargs = {"workload": descriptor, "schedule_index": 1, "schedules": 4,
              "tag": "s1", "store_equivalence": True, "fault_plan": None}
    assert cache_key_for(run_audit_schedule, kwargs) == (
        "539a03236d58f06185c1cd73bbe2b1603d21d4ba50ddbf39a63a9b5789263711")


def test_execute_rejects_bad_batches():
    with pytest.raises(ValueError, match="jobs"):
        execute(echo, echo_points(2), jobs=0)


# --------------------------------------------------------- inline/pooled


def test_inline_execution_preserves_order_and_values():
    records = execute(echo, echo_points(4), jobs=1)
    assert [r.tag for r in records] == ["e0", "e1", "e2", "e3"]
    assert [r.value["value"] for r in records] == [0, 10, 20, 30]
    assert all(r.ok and not r.cached for r in records)


def test_pooled_execution_matches_inline():
    """jobs=2 returns the same tags/values as jobs=1 — merge order is
    point order, never completion order."""
    inline = execute(echo, echo_points(5), jobs=1)
    pooled = execute(echo, echo_points(5), jobs=2)
    strip = lambda r: (r.tag, r.ok, r.value["value"])  # noqa: E731
    assert [strip(r) for r in inline] == [strip(r) for r in pooled]


def test_worker_exception_becomes_failure_record():
    points = [("ok", {"op": "echo", "value": 1}),
              ("bad", {"op": "boom", "message": "nope"}),
              ("ok2", {"op": "echo", "value": 2})]
    for jobs in (1, 2):
        records = execute(mixed, points, jobs=jobs)
        assert [r.ok for r in records] == [True, False, True]
        assert records[1].error == "RuntimeError: nope"
        assert records[1].value is None


def test_dead_worker_is_crash_isolated():
    """os._exit in a worker breaks the pool; the engine must attribute
    the death to its point and still complete every other point."""
    points = [("a", {"op": "echo", "value": 1}), ("killer", {"op": "die"}),
              ("b", {"op": "echo", "value": 2}),
              ("c", {"op": "echo", "value": 3})]
    records = execute(mixed, points, jobs=2)
    assert [r.tag for r in records] == ["a", "killer", "b", "c"]
    assert not records[1].ok
    assert "worker process died" in records[1].error
    assert [r.ok for r in records] == [True, False, True, True]
    assert records[3].value["value"] == 3


def test_artifacts_land_in_scratch_dir(tmp_path):
    points = [("w", {"name": "out.txt", "text": "hello"})]
    records = execute(write_artifact, points, jobs=2, scratch_dir=tmp_path)
    assert records[0].ok
    assert (tmp_path / "out.txt").read_text() == "hello"


# --------------------------------------------------------------- caching


def test_cache_hit_skips_rerun(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    scratch = tmp_path / "scratch"
    points = [("c", {"name": "side.txt"})]
    first = execute(touch_and_count, points, scratch_dir=scratch, cache=cache)
    assert first[0].value["runs"] == 1 and not first[0].cached
    # second execution: served from the cache, side-effect file restored
    # to its stored (length-1) state instead of being appended to
    second = execute(touch_and_count, points, scratch_dir=scratch,
                     cache=cache)
    assert second[0].cached and second[0].value["runs"] == 1
    assert (scratch / "side.txt").stat().st_size == 1
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_cache_restores_artifacts_elsewhere(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    points = [("w", {"name": "a.bin", "text": "payload"})]
    execute(write_artifact, points, scratch_dir=tmp_path / "one", cache=cache)
    rec, = execute(write_artifact, points, scratch_dir=tmp_path / "two",
                   cache=cache)
    assert rec.cached
    assert (tmp_path / "two" / "a.bin").read_text() == "payload"


def test_tampered_cache_entry_is_evicted_and_rerun(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    scratch = tmp_path / "scratch"
    kwargs = {"name": "a.txt", "text": "original"}
    execute(write_artifact, [("w", kwargs)], scratch_dir=scratch, cache=cache)
    key = cache_key_for(write_artifact, kwargs)
    (cache.root / key[:2] / key / "a.txt").write_text("poisoned")
    rec, = execute(write_artifact, [("w", kwargs)], scratch_dir=scratch,
                   cache=cache)
    assert rec.ok and not rec.cached  # demoted to a miss, re-executed
    assert (scratch / "a.txt").read_text() == "original"
    assert cache.stats.evictions == 1


def test_failures_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    execute(boom, [("b", {})], cache=cache)
    assert len(cache) == 0
    rec, = execute(boom, [("b", {})], cache=cache)
    assert not rec.ok and not rec.cached


def test_cache_accepts_plain_path(tmp_path):
    execute(echo, [("e", {"value": 7})], cache=tmp_path / "cache")
    manifests = list((tmp_path / "cache").glob("??/*/manifest.json"))
    assert len(manifests) == 1
    assert json.loads(manifests[0].read_text())["value"]["value"] == 7
