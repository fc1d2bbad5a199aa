"""Sharding + cross-process locking for the run registry.

The headline regression test spawns two *processes* that add runs
concurrently — before the shard locks, both read the same manifest and
the second save silently dropped the first's entries.
"""

import json
import multiprocessing as mp

import pytest

from repro.core.overall import OverallProfile
from repro.core.store.registry import RegistryError, RunRegistry, file_lock
from repro.core.store.writer import export_run
from repro.exec.pool import _spawn_environment


def make_archive(path, salt: int):
    """An archive whose content (and so fingerprint) depends on ``salt``."""
    overall = OverallProfile(4)
    overall.add_main(1, 7 + salt)
    overall.add_total(1, 50 + salt)
    return export_run(path, overall=overall, meta={"app": "demo", "salt": salt})


# top-level so multiprocessing's spawn start method can import it
def _adder(root, shards, worker, count, barrier, archive_dir):
    registry = RunRegistry(root, shards=shards)
    barrier.wait(timeout=30)
    for i in range(count):
        salt = worker * 1000 + i
        src = make_archive(archive_dir / f"w{worker}-{i}.aptrc", salt)
        registry.add(src, run_id=f"w{worker}-run-{i:03d}")


@pytest.mark.parametrize("shards", [1, 4])
def test_two_processes_add_concurrently_without_lost_updates(
        tmp_path, shards):
    root = tmp_path / "reg"
    count = 12
    ctx = mp.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_adder,
                    args=(root, shards, w, count, barrier, tmp_path))
        for w in range(2)
    ]
    with _spawn_environment():  # children never re-run our __main__
        for p in procs:
            p.start()
    for p in procs:
        p.join(120)
        assert p.exitcode == 0
    got = {info.run_id for info in RunRegistry(root).list()}
    want = {f"w{w}-run-{i:03d}" for w in range(2) for i in range(count)}
    assert got == want  # nothing lost, nothing duplicated
    for info in RunRegistry(root).list():
        assert info.path.exists()


def _identical_pusher(root, archive, barrier, out):
    registry = RunRegistry(root, shards=2)
    barrier.wait(timeout=30)
    info, created = registry.add_dedup(archive, run_id="the-run")
    out.put((info.run_id, created))


def test_concurrent_identical_uploads_register_once(tmp_path):
    root = tmp_path / "reg"
    archive = make_archive(tmp_path / "same.aptrc", salt=0)
    ctx = mp.get_context("spawn")
    barrier = ctx.Barrier(2)
    out = ctx.Queue()
    procs = [ctx.Process(target=_identical_pusher,
                         args=(root, archive, barrier, out))
             for _ in range(2)]
    with _spawn_environment():
        for p in procs:
            p.start()
    results = [out.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(30)
        assert p.exitcode == 0
    assert [rid for rid, _ in results] == ["the-run", "the-run"]
    assert sorted(created for _, created in results) == [False, True]
    assert len(RunRegistry(root).list()) == 1


def test_sharded_layout_and_operations(tmp_path):
    registry = RunRegistry(tmp_path / "reg", shards=4)
    ids = []
    for i in range(10):
        src = make_archive(tmp_path / f"a{i}.aptrc", salt=i)
        ids.append(registry.add(src, run_id=f"run-{i}").run_id)
    assert (tmp_path / "reg" / "registry.json").exists()
    manifests = sorted(p.name for p in (tmp_path / "reg").glob("manifest*"))
    assert manifests and all(m.startswith("manifest-") for m in manifests)
    # entries are spread over more than one shard for 10 ids
    assert len(manifests) > 1
    assert [i.run_id for i in registry.list()] == sorted(ids)
    assert registry.get("run-3").meta["salt"] == 3
    assert registry.resolve("run-7").run_id == "run-7"
    removed = registry.remove("run-3")
    assert not removed.path.exists()
    assert len(registry.list()) == 9
    with pytest.raises(RegistryError, match="unknown run"):
        registry.get("run-3")


def test_resolve_reads_one_shard_for_an_exact_id(tmp_path, monkeypatch):
    """An exact id can only live in its own shard: resolving it parses one
    manifest.  A prefix or an unknown id reads every shard, and the
    errors name the registry's runs as before."""
    registry = RunRegistry(tmp_path / "reg", shards=4)
    for i, rid in enumerate(("run-1", "run-10", "run-2", "other")):
        registry.add(make_archive(tmp_path / f"a{i}.aptrc", salt=i), run_id=rid)
    loads = []
    real = RunRegistry._load_shard
    monkeypatch.setattr(RunRegistry, "_load_shard",
                        lambda self, shard: loads.append(shard)
                        or real(self, shard))
    for rid in ("run-1", "run-10", "other"):
        loads.clear()
        assert registry.resolve(rid).run_id == rid
        assert loads == [registry.shard_of(rid)]
    loads.clear()
    assert registry.resolve("oth").run_id == "other"  # a unique prefix
    assert len(loads) == 1 + 4
    with pytest.raises(RegistryError) as unknown:
        registry.resolve("nope")
    assert str(unknown.value) == (
        "unknown run 'nope' (have ['other', 'run-1', 'run-10', 'run-2'])")
    with pytest.raises(RegistryError) as ambiguous:
        registry.resolve("run-")
    assert str(ambiguous.value) == (
        "ambiguous run 'run-': matches ['run-1', 'run-10', 'run-2']")
    empty = RunRegistry(tmp_path / "empty", shards=4)
    with pytest.raises(RegistryError) as none:
        empty.resolve("x")
    assert str(none.value) == "unknown run 'x' (have no runs)"


def test_shard_count_rediscovered_from_config(tmp_path):
    root = tmp_path / "reg"
    first = RunRegistry(root, shards=4)
    first.add(make_archive(tmp_path / "a.aptrc", salt=1), run_id="alpha")
    reopened = RunRegistry(root)  # no shard count passed
    assert reopened.shards == 4
    assert [i.run_id for i in reopened.list()] == ["alpha"]


def test_conflicting_shard_count_raises(tmp_path):
    root = tmp_path / "reg"
    RunRegistry(root, shards=4).add(
        make_archive(tmp_path / "a.aptrc", salt=1), run_id="alpha")
    with pytest.raises(RegistryError, match="cannot reopen"):
        RunRegistry(root, shards=8)
    # matching count is fine
    assert RunRegistry(root, shards=4).shards == 4


def test_legacy_single_shard_layout_unchanged(tmp_path):
    root = tmp_path / "reg"
    registry = RunRegistry(root)  # default single shard
    registry.add(make_archive(tmp_path / "a.aptrc", salt=1), run_id="alpha")
    assert (root / "manifest.json").exists()
    assert not (root / "registry.json").exists()  # legacy layout, no config
    data = json.loads((root / "manifest.json").read_text())
    assert "alpha" in data["runs"]
    # a legacy directory reopens as one shard
    assert RunRegistry(root).shards == 1


def test_legacy_registry_is_one_shard_whatever_is_asked(tmp_path):
    """A legacy registry (one manifest.json, no registry.json) has one
    shard: asking for more raises instead of listing nothing and
    stranding its runs behind a fresh sharded view."""
    root = tmp_path / "reg"
    RunRegistry(root).add(make_archive(tmp_path / "a.aptrc", salt=1),
                          run_id="alpha")
    with pytest.raises(RegistryError, match=r"has 1 shard\(s\); cannot "
                                            r"reopen with shards=4"):
        RunRegistry(root, shards=4)
    assert not (root / "registry.json").exists()
    reopened = RunRegistry(root, shards=1)
    reopened.add(make_archive(tmp_path / "b.aptrc", salt=2), run_id="beta")
    assert [i.run_id for i in RunRegistry(root).list()] == ["alpha", "beta"]


def test_bad_shard_count_rejected(tmp_path):
    with pytest.raises(RegistryError, match="shards"):
        RunRegistry(tmp_path / "reg", shards=0)


def test_file_lock_excludes_across_threads(tmp_path):
    import threading

    lock_path = tmp_path / "x.lock"
    counter = {"n": 0}

    def bump():
        for _ in range(200):
            with file_lock(lock_path):
                n = counter["n"]
                counter["n"] = n + 1

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter["n"] == 800


def test_threads_register_into_a_fresh_sharded_registry(tmp_path):
    """Serve registers uploads from worker threads of one process: their
    first saves into a new sharded registry each write ``registry.json``
    through a temp file, which must be theirs alone, or one ``os.replace``
    finds the other's temp already moved (``FileNotFoundError``)."""
    import sys
    import threading

    archives = [make_archive(tmp_path / f"a{i}.aptrc", salt=i)
                for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            registry = RunRegistry(tmp_path / f"reg{round_}", shards=4)
            barrier, errors = threading.Barrier(len(archives)), []

            def add(archive):
                barrier.wait(timeout=30)
                try:
                    registry.add_dedup(archive, move=False)
                except Exception as exc:  # recorded, asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=add, args=(a,))
                       for a in archives]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            assert errors == []
            assert len(RunRegistry(registry.root).list()) == len(archives)
    finally:
        sys.setswitchinterval(interval)


def test_dedup_requires_matching_fingerprint(tmp_path):
    registry = RunRegistry(tmp_path / "reg", shards=2)
    a = make_archive(tmp_path / "a.aptrc", salt=1)
    b = make_archive(tmp_path / "b.aptrc", salt=2)
    info, created = registry.add_dedup(a, run_id="night")
    assert created
    again, created2 = registry.add_dedup(a, run_id="night")
    assert not created2 and again.fingerprint == info.fingerprint
    with pytest.raises(RegistryError, match="already registered"):
        registry.add_dedup(b, run_id="night")  # same id, different bytes


def test_find_fingerprint(tmp_path):
    registry = RunRegistry(tmp_path / "reg", shards=2)
    a = make_archive(tmp_path / "a.aptrc", salt=1)
    info = registry.add(a, run_id="alpha")
    assert registry.find_fingerprint(info.fingerprint).run_id == "alpha"
    assert registry.find_fingerprint("0" * 64) is None
