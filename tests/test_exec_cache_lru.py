"""Size-bounding (LRU) behavior of the `repro.exec` ResultCache."""

import os
import time

import pytest

from repro.exec.cache import ResultCache


def put_entry(cache: ResultCache, key: str, payload_bytes: int,
              tmp_path) -> None:
    art_dir = tmp_path / "arts"
    art_dir.mkdir(exist_ok=True)
    name = f"{key}.bin"
    (art_dir / name).write_bytes(b"x" * payload_bytes)
    assert cache.put(key, {"artifacts": [name], "n": key}, art_dir)


def age(cache: ResultCache, key: str, seconds_ago: float) -> None:
    """Backdate an entry's recency stamp (mtime drives LRU order)."""
    manifest = cache.root / key[:2] / key / "manifest.json"
    stamp = time.time() - seconds_ago
    os.utime(manifest, (stamp, stamp))


def keys_in(cache: ResultCache) -> set:
    return {key for key, _, _ in cache.entries()}


def k(i: int) -> str:
    return f"{i:02d}" + "e" * 62


def entry_size(tmp_path, payload_bytes: int = 1000) -> int:
    """Measure the real on-disk cost of one entry (payload + manifest)."""
    probe = ResultCache(tmp_path / "probe")
    put_entry(probe, k(99), payload_bytes, tmp_path)
    return probe.total_bytes()


def test_unbounded_by_default(tmp_path):
    cache = ResultCache(tmp_path / "c")
    for i in range(8):
        put_entry(cache, k(i), 1000, tmp_path)
    assert len(cache) == 8
    assert cache.stats.evictions == 0


def test_cap_evicts_oldest_first(tmp_path):
    one = entry_size(tmp_path)
    cache = ResultCache(tmp_path / "c", max_bytes=3 * one + one // 2)
    for i in range(3):
        put_entry(cache, k(i), 1000, tmp_path)
        age(cache, k(i), seconds_ago=100 - i)
    assert len(cache) == 3
    # entry 3 pushes the total over the cap → the oldest (0) is evicted
    put_entry(cache, k(3), 1000, tmp_path)
    survivors = keys_in(cache)
    assert k(0) not in survivors
    assert {k(1), k(2), k(3)} <= survivors
    assert cache.stats.evictions >= 1


def test_hit_refreshes_recency(tmp_path):
    one = entry_size(tmp_path)
    cache = ResultCache(tmp_path / "c", max_bytes=3 * one + one // 2)
    for i in range(3):
        put_entry(cache, k(i), 1000, tmp_path)
        age(cache, k(i), seconds_ago=100 - i)
    # touching the oldest entry makes it the newest…
    assert cache.get(k(0), tmp_path / "restore") is not None
    # …so the next overflow evicts k(1) instead
    put_entry(cache, k(3), 1000, tmp_path)
    survivors = keys_in(cache)
    assert k(0) in survivors
    assert k(1) not in survivors


def test_just_stored_entry_is_never_the_victim(tmp_path):
    cache = ResultCache(tmp_path / "c", max_bytes=100)
    put_entry(cache, k(0), 5000, tmp_path)  # alone over the cap
    assert keys_in(cache) == {k(0)}
    # a second oversized store replaces it rather than thrashing both
    put_entry(cache, k(1), 5000, tmp_path)
    assert keys_in(cache) == {k(1)}


def test_eviction_frees_real_bytes(tmp_path):
    cache = ResultCache(tmp_path / "c", max_bytes=10_000)
    for i in range(20):
        put_entry(cache, k(i), 2000, tmp_path)
    assert cache.total_bytes() <= 10_000
    assert len(cache) <= 5


def test_tampered_entry_evicts_and_count_stays_consistent(tmp_path):
    # evict-on-tamper (PR 4) and cap eviction share the accounting:
    # a tamper-evicted entry stops counting against the cap
    cache = ResultCache(tmp_path / "c", max_bytes=5000)
    put_entry(cache, k(0), 2000, tmp_path)
    put_entry(cache, k(1), 2000, tmp_path)
    victim = cache.root / k(0)[:2] / k(0) / f"{k(0)}.bin"
    victim.write_bytes(b"tampered")
    assert cache.get(k(0), tmp_path / "restore") is None  # miss + evict
    assert keys_in(cache) == {k(1)}
    # freed space means two more entries fit without touching k(1)
    put_entry(cache, k(2), 2000, tmp_path)
    assert k(1) in keys_in(cache)
    assert cache.stats.evictions == 1


def test_bad_max_bytes_rejected(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        ResultCache(tmp_path / "c", max_bytes=0)


def test_stats_bump_is_thread_safe(tmp_path):
    import threading

    cache = ResultCache(tmp_path / "c")
    n, rounds = 8, 500

    def worker():
        for _ in range(rounds):
            cache.stats.bump("hits")

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.stats.hits == n * rounds


# ----------------------------------------------------------------------
# running byte total: the store is walked only when the cap is crossed
# ----------------------------------------------------------------------

def count_walks(cache: ResultCache, monkeypatch) -> list:
    """Spy on ``cache.entries``; the returned list grows once per walk."""
    walks = []
    real = cache.entries

    def spy():
        walks.append(1)
        return real()

    monkeypatch.setattr(cache, "entries", spy)
    return walks


def disk_truth(cache: ResultCache) -> int:
    return ResultCache(cache.root).total_bytes()


def test_under_cap_puts_walk_the_store_at_most_once(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "c", max_bytes=1 << 30)
    walks = count_walks(cache, monkeypatch)
    put_entry(cache, k(0), 100, tmp_path)
    assert len(walks) == 1  # a fresh instance learns the total once
    for i in range(1, 200):
        put_entry(cache, f"{i:03d}" + "e" * 61, 100, tmp_path)
    assert len(walks) == 1
    assert cache._total == disk_truth(cache)
    assert cache.stats.evictions == 0


def test_crossing_the_cap_walks_once_and_evicts_by_mtime(tmp_path,
                                                         monkeypatch):
    one = entry_size(tmp_path)
    cache = ResultCache(tmp_path / "c", max_bytes=4 * one + one // 2)
    for i in range(4):
        put_entry(cache, k(i), 1000, tmp_path)
    # back-dated from outside, against store order: 2 is the oldest
    for i, ago in ((0, 50), (1, 40), (2, 100), (3, 30)):
        age(cache, k(i), seconds_ago=ago)
    walks = count_walks(cache, monkeypatch)
    put_entry(cache, k(4), 1000, tmp_path)
    assert len(walks) == 1
    assert keys_in(cache) == {k(0), k(1), k(3), k(4)}
    assert cache.stats.evictions == 1
    assert cache._total == disk_truth(cache)
    del walks[:]
    put_entry(cache, k(5), 1000, tmp_path)  # over again: 0 is next-oldest
    assert len(walks) == 1
    assert keys_in(cache) == {k(1), k(3), k(4), k(5)}


def test_total_is_relearned_after_replace_and_tamper(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "c", max_bytes=1 << 30)
    for i in range(3):
        put_entry(cache, k(i), 1000, tmp_path)
    walks = count_walks(cache, monkeypatch)
    put_entry(cache, k(1), 3000, tmp_path)  # same key, different size
    assert len(walks) == 1
    assert cache._total == disk_truth(cache)
    victim = cache.root / k(0)[:2] / k(0) / f"{k(0)}.bin"
    victim.write_bytes(b"tampered")
    assert cache.get(k(0), tmp_path / "restore") is None
    assert cache._total is None  # forgotten, not guessed
    put_entry(cache, k(3), 1000, tmp_path)
    assert len(walks) == 2
    assert cache._total == disk_truth(cache)
    put_entry(cache, k(4), 1000, tmp_path)
    assert len(walks) == 2  # known again: no walk


def test_populated_directory_is_capped_on_first_put(tmp_path):
    one = entry_size(tmp_path)
    writer = ResultCache(tmp_path / "c")
    for i in range(6):
        put_entry(writer, k(i), 1000, tmp_path)
        age(writer, k(i), seconds_ago=100 - i)
    cache = ResultCache(tmp_path / "c", max_bytes=3 * one + one // 2)
    put_entry(cache, k(6), 1000, tmp_path)
    assert keys_in(cache) == {k(4), k(5), k(6)}
    assert cache._total == disk_truth(cache) <= cache.max_bytes


def test_nested_artifacts_count_against_the_cap(tmp_path):
    art_dir = tmp_path / "arts"
    (art_dir / "sub").mkdir(parents=True)
    (art_dir / "sub" / "x.bin").write_bytes(b"x" * 1000)
    cache = ResultCache(tmp_path / "c", max_bytes=3500)
    for i in range(4):
        assert cache.put(k(i), {"artifacts": ["sub/x.bin"]}, art_dir)
        age(cache, k(i), seconds_ago=100 - i)
    assert all(size > 1000 for _, _, size in cache.entries())
    assert k(0) not in keys_in(cache) and k(3) in keys_in(cache)
    assert cache.total_bytes() <= 3500
    assert cache.get(k(3), tmp_path / "restore") is not None
    assert (tmp_path / "restore" / "sub" / "x.bin").stat().st_size == 1000


def test_concurrent_puts_keep_the_total_exact(tmp_path):
    import sys
    import threading

    cache = ResultCache(tmp_path / "c", max_bytes=1 << 30)
    art_dir = tmp_path / "arts"
    art_dir.mkdir()
    (art_dir / "a.bin").write_bytes(b"x" * 100)

    def worker(t: int) -> None:
        for i in range(200):
            assert cache.put(f"{t}{i:03d}" + "e" * 60,
                             {"artifacts": ["a.bin"], "n": i}, art_dir)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert cache.stats.stores == 400 and len(cache) == 400
    assert cache._total == disk_truth(cache)
