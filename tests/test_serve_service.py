"""End-to-end tests for the ActorProf service (`repro.serve`).

Each test talks to a real server on a background thread through real
sockets — the same wire path `actorprof push` uses — so chunked
streaming, backpressure, and connection teardown are all exercised for
real, not mocked.
"""

import socket
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.logical import LogicalTrace
from repro.machine.spec import MachineSpec
from repro.core.store.registry import RunRegistry
from repro.core.store.writer import export_run
from repro.serve import (
    Backpressure,
    IngestLimits,
    ServeClient,
    ServeError,
    ServerConfig,
    ServerThread,
)


def make_archive(path, seed: int = 0, degraded: bool = False):
    """A small logical-trace archive whose bytes depend on ``seed``."""
    spec = MachineSpec(1, 4)
    trace = LogicalTrace(spec)
    trace.record(0, 1, 64 + seed)
    trace.record(0, 2, 128)
    trace.record(1, 2, 64 + seed)
    meta = {"app": "demo", "seed": seed}
    if degraded:
        meta["degraded"] = True
    return export_run(path, logical=trace, meta=meta)


@pytest.fixture()
def server(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0, shards=2,
                          workers=2, allow_shutdown=True)
    with ServerThread(config) as srv:
        yield srv


def raw_exchange(server, wire: bytes) -> bytes:
    """Send raw bytes on a fresh socket and read until the peer closes."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(wire)
        sock.shutdown(socket.SHUT_WR)  # EOF: nothing more is coming
        out = b""
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return out
            out += data


def test_health_banner_and_unknown_route(server):
    client = server.client()
    assert client.health() == {"ok": True}
    banner = client.request_json("GET", "/")
    assert banner["service"] == "actorprof"
    with pytest.raises(ServeError) as excinfo:
        client.request_json("GET", "/nope")
    assert excinfo.value.status == 404


def test_push_list_show_query_diff_roundtrip(server, tmp_path):
    client = server.client()
    a = make_archive(tmp_path / "a.aptrc", seed=1)
    b = make_archive(tmp_path / "b.aptrc", seed=2)
    pushed = client.push(a, run_id="alpha")
    assert pushed["run"] == "alpha" and pushed["created_run"]
    client.push(b, run_id="beta")

    assert [r["run"] for r in client.runs()] == ["alpha", "beta"]
    shown = client.show("alpha")
    assert shown["meta"]["app"] == "demo"
    assert "logical" in shown["sections"]
    assert not shown["degraded"]

    reply = client.query("alpha", "sends where src == 0")
    assert reply["result"] == 2
    assert reply["cached"] is False
    assert reply["query"] == "sends where src == 0"

    grouped = client.query("alpha", "bytes group by src top 2")
    assert isinstance(grouped["result"], list)

    report = client.diff("alpha", "beta")
    assert report["cached"] is False
    again = client.diff("alpha", "beta")
    assert again["cached"] is True
    assert again["report"] == report["report"]


def test_identical_queries_from_distinct_clients_share_artifacts(
        server, tmp_path):
    # the acceptance criterion: repeated identical queries across
    # *distinct* clients are served from the shared artifact store,
    # visible in the cache-hit counter — cosmetic spelling differences
    # included, since keys use the normalized query text
    first = server.client()
    second = ServeClient("127.0.0.1", server.port)
    first.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")

    before = first.stats()["artifacts"]
    miss = first.query("alpha", "sends where src == 0 group by dst")
    hit = second.query("alpha", "sends  WHERE src==0 group by  dst")
    assert miss["cached"] is False
    assert hit["cached"] is True
    assert hit["result"] == miss["result"]

    after = first.stats()["artifacts"]
    assert after["hits"] == before["hits"] + 1
    assert after["stores"] == before["stores"] + 1

    # the X-Cache header mirrors the flag
    status, headers, _ = second.request(
        "GET", "/runs/alpha/query?q=sends%20where%20src%20==%200%20"
               "group%20by%20dst")
    assert status == 200 and headers["x-cache"] == "hit"


def test_stats_artifact_totals_match_a_fresh_scan(server, tmp_path):
    # /stats reports what is on disk — one walk, off the event loop —
    # whatever the store's own running total has or has not seen
    from repro.exec.cache import ResultCache

    client = server.client()
    archive = make_archive(tmp_path / "a.aptrc", seed=3)
    client.push(archive, run_id="alpha")
    client.push(make_archive(tmp_path / "b.aptrc", seed=4), run_id="beta")
    for src in range(4):
        assert not client.query("alpha", f"sends where src == {src}")["cached"]
    assert client.query("alpha", "sends where src == 0")["cached"]
    assert not client.push(archive)["created_run"]  # re-push: deduped
    client.diff("alpha", "beta")
    assert client.query("alpha", "sends  WHERE src == 1")["cached"]

    stats = client.stats()["artifacts"]
    fresh = ResultCache(server.config.data_dir / "artifacts")
    assert stats["entries"] == len(fresh) == stats["stores"] == 5
    assert stats["bytes"] == fresh.total_bytes() > 0
    assert stats["hits"] == 2 and stats["evictions"] == 0
    assert stats["max_bytes"] == server.config.cache_max_bytes


def test_duplicate_upload_dedups_by_fingerprint(server, tmp_path):
    client = server.client()
    archive = make_archive(tmp_path / "a.aptrc", seed=7)
    first = client.push(archive)
    assert first["created_run"]
    assert first["run"] == f"run-{first['fingerprint'][:12]}"

    again = client.push(archive)  # same bytes, default id
    assert again["deduped"] and not again["created_run"]
    assert again["run"] == first["run"]

    renamed = client.push(archive, run_id="other-name")  # same bytes, new id
    assert renamed["deduped"] and renamed["run"] == first["run"]

    assert len(client.runs()) == 1
    stats = client.stats()["ingest"]
    assert stats["accepted"] == 1 and stats["deduped"] == 2


def test_ingest_hashes_once_and_registers_off_the_loop(
        server, tmp_path, monkeypatch):
    """The spool's digest is the registry's fingerprint: one ``POST
    /runs`` never rereads the upload to hash it, and registering (file
    lock, move, shard write) runs on a worker thread, not the loop."""
    import asyncio
    import hashlib

    import repro.core.store.registry

    rehashed, loops = [], []
    monkeypatch.setattr(repro.core.store.registry, "file_sha256",
                        lambda path: rehashed.append(path) or "0" * 64)
    add_dedup = RunRegistry.add_dedup

    def spy(self, *args, **kwargs):
        try:
            loops.append(asyncio.get_running_loop())
        except RuntimeError:  # no event loop runs on this thread
            loops.append(None)
        return add_dedup(self, *args, **kwargs)

    monkeypatch.setattr(RunRegistry, "add_dedup", spy)
    archive = make_archive(tmp_path / "a.aptrc", seed=3)
    pushed = server.client().push(archive, run_id="once")
    assert pushed["created_run"]
    assert pushed["fingerprint"] == hashlib.sha256(
        archive.read_bytes()).hexdigest()
    assert rehashed == [] and loops == [None]


def test_ingest_opens_the_upload_once(server, tmp_path, monkeypatch):
    """One ``POST /runs`` reads the spooled upload's footer once: the
    validation probe's metadata goes to the registry with it."""
    from repro.core.store.archive import Archive

    opened, init = [], Archive.__init__

    def spy(self, path):
        opened.append(Path(path))
        init(self, path)

    monkeypatch.setattr(Archive, "__init__", spy)
    pushed = server.client().push(make_archive(tmp_path / "a.aptrc", seed=4),
                                  run_id="one-open")
    assert pushed["created_run"] and pushed["meta"]["seed"] == 4
    assert [p.parent.name for p in opened] == ["spool"]


def test_malformed_chunk_table_upload_is_rejected(server, tmp_path):
    """An upload whose footer parses but whose chunk table does not
    check (here: row groups that disagree with the section's rows) is
    the client's fault at push time, and never enters the registry."""
    from tests.archive_tools import read_footer, rewrite_footer

    client = server.client()
    client.push(make_archive(tmp_path / "good.aptrc", seed=1), run_id="good")
    path = make_archive(tmp_path / "bad.aptrc", seed=2)
    _, footer = read_footer(path)
    footer["sections"]["logical"]["rows"] += 1
    with pytest.raises(ServeError) as excinfo:
        client.push(rewrite_footer(path, footer), run_id="bad")
    assert excinfo.value.status == 400
    assert "row groups disagree" in excinfo.value.message
    assert [run["run"] for run in client.runs()] == ["good"]
    assert client.stats()["ingest"]["rejected_corrupt"] == 1


def test_same_id_different_bytes_conflicts(server, tmp_path):
    client = server.client()
    client.push(make_archive(tmp_path / "a.aptrc", seed=1), run_id="night")
    with pytest.raises(ServeError) as excinfo:
        client.push(make_archive(tmp_path / "b.aptrc", seed=2),
                    run_id="night")
    assert excinfo.value.status == 409
    assert len(client.runs()) == 1


def test_truncated_chunked_upload_rejected_not_registered(server, tmp_path):
    client = server.client()
    payload = make_archive(tmp_path / "a.aptrc").read_bytes()
    head = (f"POST /runs HTTP/1.1\r\nHost: h\r\n"
            f"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            ).encode()
    # one real chunk, then the connection dies mid-stream
    partial = head + b"%x\r\n" % (len(payload) // 2) + payload[:100]
    assert raw_exchange(server, partial) == b""  # nothing to answer

    assert client.runs() == []
    assert client.stats()["ingest"]["accepted"] == 0
    spool = server.config.data_dir / "spool"
    assert not list(spool.glob("*.part"))  # partial spool file was deleted


def test_truncated_sized_upload_rejected(server, tmp_path):
    client = server.client()
    payload = make_archive(tmp_path / "a.aptrc").read_bytes()
    head = (f"POST /runs HTTP/1.1\r\nHost: h\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode()
    raw_exchange(server, head + payload[: len(payload) // 2])
    assert client.runs() == []


def test_garbage_upload_rejected_as_corrupt(server):
    client = server.client()
    with pytest.raises(ServeError) as excinfo:
        client.request_json("POST", "/runs", body=b"this is not an archive")
    assert excinfo.value.status == 400
    assert "archive" in excinfo.value.message
    assert client.stats()["ingest"]["rejected_corrupt"] == 1


def test_oversized_upload_rejected(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_archive_bytes=200))
    with ServerThread(config) as server:
        client = server.client()
        # declared oversize: rejected from the Content-Length alone
        with pytest.raises(ServeError) as excinfo:
            client.request_json("POST", "/runs", body=b"x" * 500)
        assert excinfo.value.status == 413
        # undeclared (chunked) oversize: cut off while streaming
        with pytest.raises(ServeError) as excinfo:
            client.request_json("POST", "/runs",
                                chunks=iter([b"x" * 150, b"y" * 150]))
        assert excinfo.value.status == 413
        assert client.stats()["ingest"]["rejected_oversize"] == 2
        assert client.runs() == []
        assert not list((config.data_dir / "spool").glob("*.part"))


def test_backpressure_engages_without_dropping_uploads(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=1,
                                              retry_after=0.05))
    with ServerThread(config) as server:
        client = server.client()
        payload = make_archive(tmp_path / "slow.aptrc", seed=1).read_bytes()
        small = make_archive(tmp_path / "small.aptrc", seed=2)

        # a slow upload parks on the single ingest slot: send the head
        # and the first chunk, then stall mid-stream
        head = (b"POST /runs?id=slow-run HTTP/1.1\r\nHost: h\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n")
        half = len(payload) // 2
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as slow:
            slow.sendall(head + b"%x\r\n" % half + payload[:half] + b"\r\n")
            # until the slow upload is admitted, small pushes succeed
            # (and dedup); once it holds the slot they must see 429
            saw_backpressure = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    client.request_json("POST", "/runs",
                                        body=small.read_bytes())
                except Backpressure as exc:
                    assert exc.retry_after > 0
                    saw_backpressure = True
                    break
                time.sleep(0.01)
            assert saw_backpressure

            # the stalled upload still completes — backpressure refused
            # new work without dropping admitted work
            rest = len(payload) - half
            slow.sendall(b"%x\r\n" % rest + payload[half:] + b"\r\n"
                         b"0\r\n\r\n")
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += slow.recv(1 << 16)
            assert b"201 Created" in reply

        runs = {r["run"] for r in client.runs()}
        assert "slow-run" in runs
        stats = client.stats()["ingest"]
        assert stats["rejected_backpressure"] >= 1
        # the freed slot accepts new pushes again
        assert "run" in client.push(small)


def test_push_retries_through_backpressure(tmp_path):
    # ServeClient.push sleeps Retry-After and retries; against a
    # freed-up server the first retry lands
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=1,
                                              retry_after=0.05))
    with ServerThread(config) as server:
        client = server.client()
        archives = [make_archive(tmp_path / f"r{i}.aptrc", seed=i)
                    for i in range(6)]
        with ThreadPoolExecutor(max_workers=6) as pool:
            replies = list(pool.map(lambda a: client.push(a), archives))
        assert len({r["run"] for r in replies}) == 6
        assert len(client.runs()) == 6


def test_push_storm_never_loses_the_early_429(tmp_path):
    # the gate answers 429 at admission and closes while the client is
    # still sending its body; the reply must survive that (no RST from
    # the server, no EPIPE out of the client), every time — twenty
    # six-pusher storms against a single ingest slot
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=1,
                                              retry_after=0.02))
    with ServerThread(config) as server:
        client = server.client()
        for storm in range(20):
            archives = [make_archive(tmp_path / f"s{storm}-{i}.aptrc",
                                     seed=6 * storm + i) for i in range(6)]
            with ThreadPoolExecutor(max_workers=6) as pool:
                replies = list(pool.map(
                    lambda a: client.push(a, retries=50), archives))
            assert len({r["run"] for r in replies}) == 6
        assert len(client.runs()) == 120
        assert client.stats()["ingest"]["rejected_backpressure"] > 0


def test_concurrent_ingest_storm_matches_serial_application(tmp_path):
    # acceptance criterion: after a concurrent storm the registry holds
    # exactly what serially registering the same archives would produce
    n = 16
    archives = [make_archive(tmp_path / f"r{i:02d}.aptrc", seed=i)
                for i in range(n)]
    config = ServerConfig(data_dir=tmp_path / "srv", port=0, shards=4,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=4,
                                              retry_after=0.02))
    with ServerThread(config) as server:
        client = server.client()
        with ThreadPoolExecutor(max_workers=n) as pool:
            replies = list(pool.map(
                lambda a: server.client().push(a, retries=100), archives))
        assert all(r["created_run"] for r in replies)
        stormed = {(r["run"], r["fingerprint"]) for r in client.runs()}
        stats = client.stats()["ingest"]
        assert stats["accepted"] == n

    serial = RunRegistry(tmp_path / "serial-reg", shards=4)
    expected = set()
    for archive in archives:
        info = serial.add(archive)  # same deterministic run-<fp12> ids?
        expected.add(info.fingerprint)
    # ids differ (serial uses filename stems) but the fingerprint sets —
    # the content — must match exactly, and every service id is the
    # deterministic run-<fp[:12]> of a serially computed fingerprint
    assert {fp for _, fp in stormed} == expected
    assert {rid for rid, _ in stormed} == {f"run-{fp[:12]}"
                                           for fp in expected}


def test_degraded_archive_accepted_and_flagged(server, tmp_path):
    client = server.client()
    pushed = client.push(make_archive(tmp_path / "d.aptrc", degraded=True),
                         run_id="crashy")
    assert pushed["degraded"] is True
    assert client.show("crashy")["degraded"] is True
    assert client.stats()["ingest"]["degraded"] == 1
    # degraded archives still answer queries
    assert client.query("crashy", "sends")["result"] == 3


def test_bad_query_and_unknown_run(server, tmp_path):
    client = server.client()
    client.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")
    for bad in ("sends where", "frobnicate", "sends where src @ 1"):
        with pytest.raises(ServeError) as excinfo:
            client.query("alpha", bad)
        assert excinfo.value.status == 400, bad
    with pytest.raises(ServeError) as excinfo:
        client.query("ghost", "sends")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.query("alpha", "sends", section="physical")  # not recorded
    assert excinfo.value.status == 400


def test_corrupt_chunk_is_the_clients_fault_not_a_500(server, tmp_path):
    """Push checks the footer only, so an archive whose chunk bytes the
    codec refuses gets registered; querying it is a located 400 — also
    when the bad chunk sits in a later row group, which the evaluator
    reaches only after folding the ones before it."""
    from repro.core.store.writer import ArchiveWriter
    from tests.archive_tools import read_footer, rewrite_footer

    layout = {"nodes": 1, "pes_per_node": 4, "n_pes": 4}
    path = tmp_path / "a.aptrc"
    with ArchiveWriter(path, meta=layout) as writer:
        section = writer.begin_section(
            "logical", ("src", "dst", "size", "count"), attrs=layout)
        for src in range(3):
            section.write_chunk({"src": [src] * 40, "dst": [1, 2] * 20,
                                 "size": list(range(8, 48)),
                                 "count": [1] * 40})
    _, footer = read_footer(path)
    footer["sections"]["logical"]["columns"]["size"][2][1] -= 1
    client = server.client()
    client.push(rewrite_footer(path, footer), run_id="bent")
    assert client.query("bent", "sends group by dst")["result"]  # no size
    assert client.query("bent", "bytes where src == 0")["result"]  # pruned
    with pytest.raises(ServeError) as excinfo:
        client.query("bent", "bytes group by dst")
    assert excinfo.value.status == 400
    assert "ArchiveError" in str(excinfo.value)
    assert "column 'size' chunk at offset" in str(excinfo.value)


def test_shutdown_endpoint_gated_and_clean(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=False)
    with ServerThread(config) as server:
        with pytest.raises(ServeError) as excinfo:
            server.client().shutdown()
        assert excinfo.value.status == 403

    config2 = ServerConfig(data_dir=tmp_path / "srv2", port=0,
                           allow_shutdown=True)
    server = ServerThread(config2)
    assert server.client().shutdown() == {"ok": True, "stopping": True}
    server._thread.join(15)
    assert not server._thread.is_alive()


def test_keep_alive_serves_sequential_requests(server):
    wire = (b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
    out = raw_exchange(server, wire)
    assert out.count(b'"ok": true') == 2
    assert out.count(b"200 OK") == 2


@pytest.mark.parametrize("verb", ["query", "viz", "diff"])
def test_failed_query_task_is_a_500_and_is_not_stored(verb, server, tmp_path,
                                                      monkeypatch):
    """A task that raises is the server's fault: a 500 naming the
    exception, counted in ``/stats`` errors and never stored, so once
    the task works again the same request is a miss; the server keeps
    answering throughout."""
    import json

    import repro.serve.tasks as tasks

    client = server.client()
    client.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")
    client.push(make_archive(tmp_path / "b.aptrc", seed=1), run_id="beta")

    def broken(**kwargs):
        raise RuntimeError("worker lost its archive")

    path = {"query": "/runs/alpha/query?q=sends",
            "viz": "/runs/alpha/viz/heatmap",
            "diff": "/diff?a=alpha&b=beta"}[verb]
    monkeypatch.setattr(tasks, f"run_{verb}_task", broken)
    before = client.stats()
    for attempt in (1, 2):
        status, headers, body = client.request("GET", path)
        assert status == 500
        assert "x-cache" not in headers
        assert json.loads(body) == {
            "error": f"{verb} failed: RuntimeError: worker lost its archive"}
        stats = client.stats()
        assert stats["errors"] == before["errors"] + attempt
        assert stats["artifacts"]["stores"] == before["artifacts"]["stores"]

    monkeypatch.undo()
    for cache in ("miss", "hit"):
        status, headers, _ = client.request("GET", path)
        assert status == 200 and headers["x-cache"] == cache
    assert client.stats()["errors"] == before["errors"] + 2


def test_cached_diff_names_the_runs_asked_for(tmp_path):
    """One archive registered twice (``a``, ``a-2``): the diff of
    ``a-2`` is not answered from the entry ``a``'s diff stored, whose
    report names ``a``."""
    registry = RunRegistry(tmp_path / "reg")
    a = make_archive(tmp_path / "a.aptrc", seed=1)
    registry.add(a)
    registry.add(a)
    registry.add(make_archive(tmp_path / "b.aptrc", seed=2))
    assert [i.run_id for i in registry.list()] == ["a", "a-2", "b"]
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          registry_root=tmp_path / "reg", shards=1)
    with ServerThread(config) as srv:
        client = srv.client()
        first = client.diff("a", "b")
        second = client.diff("a-2", "b")
        again = client.diff("a-2", "b")
    assert first["report"].startswith("== comparing 'a' (A) vs 'b' (B) ==")
    assert second["cached"] is False
    assert second["report"].startswith(
        "== comparing 'a-2' (A) vs 'b' (B) ==")
    assert again["cached"] is True and again["report"] == second["report"]


def test_concurrent_identical_misses_run_the_task_once(tmp_path,
                                                       monkeypatch):
    """Single-flight: while one miss of a key runs, identical requests
    wait for it and then read its stored entry — one task run, one
    store, N-1 hits, and every reply carries the same result."""
    import repro.serve.tasks as tasks

    n, runs, real = 4, [], tasks.run_query_task

    def slow(**kwargs):
        runs.append(kwargs)
        time.sleep(0.3)
        return real(**kwargs)

    config = ServerConfig(data_dir=tmp_path / "srv", port=0, workers=n)
    with ServerThread(config) as srv:
        client = srv.client()
        client.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")
        monkeypatch.setattr(tasks, "run_query_task", slow)
        with ThreadPoolExecutor(max_workers=n) as pool:
            replies = list(pool.map(
                lambda _: ServeClient("127.0.0.1", srv.port).query(
                    "alpha", "sends group by dst"), range(n)))
        artifacts = client.stats()["artifacts"]

    assert len(runs) == 1
    assert sorted(r["cached"] for r in replies) == [False] + [True] * (n - 1)
    assert all(r["result"] == replies[0]["result"] for r in replies)
    assert artifacts["stores"] == artifacts["entries"] == 1
    assert artifacts["hits"] == n - 1
