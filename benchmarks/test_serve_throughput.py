"""Benchmark: service throughput under a 32-client storm.

The serve acceptance bar: the arbiter must sustain >= 32 concurrent
clients pushing and querying, with backpressure (429 + Retry-After)
engaging under the constrained ingest gate without a single completed
upload being dropped, and repeat queries served from the shared
artifact store.

A second, quiet phase pins that an artifact *miss* costs what its query
costs, not a scan of the artifact store: the median of 40 one-at-a-time,
never-repeated selective misses with ~400 artifacts stored must stay
within 2x of the same with ~50 stored.  A ratio, not a timing, so it
holds on any machine.

Numbers land machine-readably in ``benchmarks/output/BENCH_serve.json``
(requests/sec, ingest MB/s, cache-hit counts, miss medians) so CI
history can chart them.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_serve_throughput.py -v -s
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.logical import LogicalTrace
from repro.core.store.writer import export_run
from repro.machine.spec import MachineSpec
from repro.serve import IngestLimits, ServerConfig, ServerThread

CLIENTS = 32
QUERIES_PER_CLIENT = 8
#: Distinct query texts cycled across clients — everything after the
#: first evaluation of each text is an artifact-store hit.
QUERY_POOL = [
    "sends",
    "bytes",
    "sends where src == 0",
    "sends group by dst top 4",
    "bytes where src != dst group by src top 4",
]
#: Quiet-miss phase: store sizes to measure at, and misses per median.
SMALL_STORE, LARGE_STORE, MISSES = 50, 400, 40


def make_archive(path, seed: int):
    """A few-KB archive whose contents (and fingerprint) vary by seed."""
    rng = random.Random(seed)
    spec = MachineSpec(2, 8)
    trace = LogicalTrace(spec)
    for _ in range(4000):
        src = rng.randrange(16)
        dst = rng.randrange(16)
        trace.record(src, dst, 8 * rng.randrange(1, 65))
    return export_run(path, logical=trace, meta={"app": "bench",
                                                 "seed": seed})


def test_serve_throughput_32_clients(tmp_path, outdir):
    archives = [make_archive(tmp_path / f"r{i:02d}.aptrc", seed=i)
                for i in range(CLIENTS)]
    total_bytes = sum(a.stat().st_size for a in archives)

    config = ServerConfig(
        data_dir=tmp_path / "srv", port=0, shards=4, workers=4,
        allow_shutdown=True,
        # a gate narrower than the client count, so the storm *must*
        # go through visible backpressure to finish
        ingest=IngestLimits(max_active=8, retry_after=0.02),
    )
    with ServerThread(config) as server:
        # -- ingest storm ---------------------------------------------
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            replies = list(pool.map(
                lambda a: server.client().push(a, retries=500), archives))
        t_ingest = time.perf_counter() - t0
        assert all(r["created_run"] for r in replies)
        run_ids = [r["run"] for r in replies]

        client = server.client()
        stats = client.stats()
        assert stats["ingest"]["accepted"] == CLIENTS  # nothing dropped
        rejected_429 = stats["ingest"]["rejected_backpressure"]
        assert rejected_429 >= 1, (
            "32 pushers through an 8-slot gate never saw backpressure"
        )

        # -- query storm ----------------------------------------------
        def query_worker(worker: int) -> int:
            mine = server.client()
            ok = 0
            for j in range(QUERIES_PER_CLIENT):
                run = run_ids[(worker + j) % len(run_ids)]
                text = QUERY_POOL[(worker + j) % len(QUERY_POOL)]
                reply = mine.query(run, text)
                assert reply["query"]  # parsed + evaluated
                ok += 1
            return ok

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            done = sum(pool.map(query_worker, range(CLIENTS)))
        t_query = time.perf_counter() - t0
        assert done == CLIENTS * QUERIES_PER_CLIENT

        stats = client.stats()
        hits = stats["artifacts"]["hits"]
        stores = stats["artifacts"]["stores"]
        # every (run, query) pair evaluates once; the rest are shared
        # artifact-store hits across distinct clients
        assert stores <= len(run_ids) * len(QUERY_POOL)
        assert hits >= done - len(run_ids) * len(QUERY_POOL)
        assert hits > 0

        # -- quiet misses against a small and a large store -----------
        texts = ((run, f"sends where src == {src} group by dst top {top}")
                 for top, src, run in itertools.product(
                     range(1, 17), range(16), run_ids[:8]))

        stored = stores  # artifacts in the store: one per miss so far

        def miss_ms() -> float:
            nonlocal stored
            run, text = next(texts)
            t0 = time.perf_counter()
            reply = client.query(run, text)
            lap = time.perf_counter() - t0
            assert reply["cached"] is False
            stored += 1
            return lap * 1e3

        def median_miss_at(target: int) -> tuple[float, int]:
            while stored < target:
                miss_ms()
            before = stored
            return statistics.median(miss_ms() for _ in range(MISSES)), before

        miss_small, n_small = median_miss_at(SMALL_STORE)
        miss_large, n_large = median_miss_at(LARGE_STORE)
        artifacts = client.stats()["artifacts"]
        assert artifacts["entries"] == stored and artifacts["evictions"] == 0
        assert miss_large <= 2 * miss_small, (
            f"a miss got slower with the store: {miss_small:.2f} ms at "
            f"{n_small} artifacts, {miss_large:.2f} ms at {n_large}"
        )

    ingest_mb_s = total_bytes / t_ingest / 1e6
    query_rps = done / t_query
    bench = {
        "bench": "serve_throughput",
        "concurrent_clients": CLIENTS,
        "ingest": {
            "archives": CLIENTS,
            "bytes": total_bytes,
            "seconds": round(t_ingest, 4),
            "mb_per_s": round(ingest_mb_s, 3),
            "pushes_per_s": round(CLIENTS / t_ingest, 2),
            "rejected_backpressure": rejected_429,
        },
        "query": {
            "requests": done,
            "seconds": round(t_query, 4),
            "requests_per_s": round(query_rps, 2),
            "artifact_hits": hits,
            "artifact_stores": stores,
        },
        "miss": {
            "misses_per_median": MISSES,
            "artifacts_small_store": n_small,
            "artifacts_large_store": n_large,
            "miss_ms_small_store": round(miss_small, 3),
            "miss_ms_large_store": round(miss_large, 3),
        },
    }
    out = outdir / "BENCH_serve.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"\n{CLIENTS} clients: ingest {ingest_mb_s:.2f} MB/s "
          f"({CLIENTS / t_ingest:.1f} pushes/s, {rejected_429} x 429), "
          f"queries {query_rps:.1f} req/s ({hits} cache hits), "
          f"quiet miss {miss_small:.2f} ms at {n_small} artifacts / "
          f"{miss_large:.2f} ms at {n_large} → {out}")
