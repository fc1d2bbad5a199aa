"""serve_mix: ``actorprof serve`` as its own process under a seeded mix.

Closed loop, two ``ServeClient`` threads.  The warm-up pushes the base
archives (phase A, ingest rate) and touches every repeat-pool item once,
so that in the timed iterations the cache class of every request is
known in advance: pool and fixed-viewport requests hit, never-repeated
queries and viewports miss.  The server is then stopped and its data
directory kept as the *primed* state.  Each timed iteration starts a
server on a copy of that state, pushes one new archive and asks for its
heatmap (time to first view), then replays one seeded slice of the
request mix (phase B).  Every slice therefore meets the same registry
and the same artifact store: an artifact miss costs a rescan of the
whole store (``ResultCache._enforce_cap``), so against one long-lived
server the same slice takes 0.9 s when it is the first and 1.9 s when it
is the eighteenth, and nothing measured is stationary.  The archives
are large enough that a miss is a real decode and a push a real
transfer.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro.api as api
from repro.core.store.lod import backfill_pyramid
from repro.serve import ServeClient, ServeError

import oracles
import synth
from harness import Ctx, Samples, Stat, Workload, percentile, stat

N_PES = 64
GROUPS = 16
CLIENT_THREADS = 2
#: Selective misses sent one at a time after each slice (``query_ms``).
QUIET_QUERIES = 10
VIEWS = ("gantt", "heatmap", "timeline")
#: Viewports over the synthetic runs' 10 000-cycle horizon.
WINDOWS = ((None, None), (0, 5000), (5000, 10_000), (2500, 7500))
#: Share of a slice per request class (must sum to 1).
MIX = (("pool", 0.50), ("unique", 0.25), ("viz", 0.10), ("meta", 0.10),
       ("repush", 0.05))
#: ``top N`` variants of one never-repeated (archive, k, metric) query.
TOPS = 8
SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


class Server:
    """One ``actorprof serve --port 0`` process.  It inherits the load
    generator's one-CPU affinity (child.py): in a closed loop the
    clients mostly wait while the server works, and one vCPU of a
    shared host is steadier than two."""

    def __init__(self, data_dir: Path, *extra: str) -> None:
        self.data_dir = data_dir
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(SRC_ROOT))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "--port", "0",
             "--data-dir", str(data_dir), "--workers", "2",
             "--allow-remote-shutdown", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env)
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"no server banner: {banner!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.stop()
            raise

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=60.0)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
                self.proc.wait(10)
            except (OSError, ServeError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class ServeMix(Workload):
    ARCHIVES, ROWS, SLICE, POOL = 8, 250_000, 150, 64
    SMOKE = (3, 16_000, 50, 12)
    #: Writing the slice's new archive and computing its oracles are the
    #: load generator's work, outside the measured pipeline.
    STAGES = ("first_view", "phase_b")

    def setup(self, ctx: Ctx) -> None:
        n_arch, self.rows, self.slice_len, pool = (
            self.SMOKE if ctx.smoke else
            (self.ARCHIVES, self.ROWS, self.SLICE, self.POOL))
        self.paths: list[Path] = []
        self.cols: list[dict] = []
        with ctx.span("build_archives"):
            for i in range(n_arch):
                path, chunks = self.build_archive(ctx, f"input-{i}", i)
                self.paths.append(path)
                self.cols.append(synth.flatten(chunks))
            # the archive every slice pushes as new: a restored server
            # has never seen it
            self.fresh, _ = self.build_archive(ctx, "fresh", n_arch)
        self.archive_bytes = sum(p.stat().st_size for p in self.paths)
        self.rng = np.random.default_rng([ctx.seed, 1 << 20])
        # repeat pool: thresholds on `size`, a family the unique class
        # never uses, so pool and unique keys cannot collide
        pool_specs = [(a, ("bytes", ("size", ">=", 8 * t), "src", 8))
                      for a in range(n_arch) for t in range(1, 65)]
        picks = self.rng.choice(len(pool_specs), size=pool, replace=False)
        self.pool = [self.query(*pool_specs[i]) for i in picks]
        self.fixed_viz = [(a, view, window) for a in range(min(2, n_arch))
                          for view in VIEWS for window in WINDOWS]
        self.unique = iter(self.rng.permutation(n_arch * N_PES * 2 * TOPS))
        self.quiet = iter(self.rng.permutation(n_arch * GROUPS * 2 * TOPS))
        self.windows = iter(range(1, 5000))
        self.ids: list = [None] * n_arch
        self.slices = 0
        self.ingest_mb_per_s = 0.0
        #: request latencies of the whole run by class, untraced and
        #: traced iterations apart (``self.latencies[ctx.tracing]``)
        self.latencies: tuple[dict, dict] = ({}, {})
        self.stats: dict = {}
        self.backpressure: dict = {}
        self.primed = ctx.workdir / "primed"
        with ctx.span("serve.start"):
            self.server = Server(ctx.workdir / "srv")

    def build_archive(self, ctx: Ctx, stem: str, index: int):
        rng = np.random.default_rng([ctx.seed, index])
        chunks = synth.make_chunks(rng, self.rows, GROUPS, N_PES,
                                   first_src=4 * index)
        path = synth.write_archive(ctx.workdir / f"{stem}.aptrc", chunks,
                                   N_PES, meta={"seed": ctx.seed,
                                                "index": index})
        backfill_pyramid(path)
        return path, chunks

    def query(self, archive: int, spec) -> tuple:
        """A query request with the numpy oracle's answer attached, so the
        load generator only compares."""
        return (archive, oracles.query_text(*spec),
                oracles.query_oracle(self.cols[archive], *spec))

    # -- the seeded request mix --------------------------------------------

    def unique_query(self, prunable: bool) -> tuple:
        """The next never-repeated query: `src == k` prunes to one row
        group, `dst == k` cannot and decodes them all."""
        rest, top = divmod(int(next(self.unique)), TOPS)
        rest, metric = divmod(rest, 2)
        archive, k = divmod(rest, N_PES)
        field, group = ("src", "dst") if prunable else ("dst", "src")
        return (f"query_miss_{field}", self.query(archive, (
            ("sends", "bytes")[metric], (field, "==", k), group, top + 1)))

    def make_slice(self) -> list:
        """``[(class, payload), ...]`` for one iteration: every slice has
        the same number of requests of each class (and as many prunable
        as unprunable misses), in a seeded order."""
        rng = self.rng
        n_arch = len(self.paths)
        schedule = []
        for kind, share in MIX:
            for n in range(round(share * self.slice_len)):
                if kind == "pool":
                    item = ("query_hit",
                            self.pool[rng.integers(len(self.pool))])
                elif kind == "unique":
                    item = self.unique_query(prunable=n % 2 == 0)
                elif kind == "viz" and n % 2 == 0:
                    item = ("viz_hit", self.fixed_viz[
                        rng.integers(len(self.fixed_viz))])
                elif kind == "viz":
                    item = ("viz_miss", (0, VIEWS[n // 2 % len(VIEWS)],
                                         (next(self.windows), 10_000)))
                elif kind == "meta":
                    item = ("meta", (n % 3, int(rng.integers(n_arch))))
                else:
                    item = ("dedup_push", int(rng.integers(n_arch)))
                schedule.append(item)
        return [schedule[i] for i in rng.permutation(len(schedule))]

    def quiet_query(self) -> tuple:
        """The next never-repeated query of ``query_ms``: `src == k` for
        a ``k`` the archive has, so each one prunes to exactly one row
        group and decodes it (three quarters of the mix's `src == k`
        queries name a ``k`` the archive lacks and decode nothing).
        ``top`` starts above the mix's, so the two never share a key."""
        rest, top = divmod(int(next(self.quiet)), TOPS)
        rest, metric = divmod(rest, 2)
        archive, group = divmod(rest, GROUPS)
        k = (4 * archive + group) % N_PES
        return ("query_miss_src", self.query(archive, (
            ("sends", "bytes")[metric], ("src", "==", k), "dst",
            TOPS + top + 1)))

    # -- one request -------------------------------------------------------

    def request(self, ctx: Ctx, client: ServeClient, kind: str,
                payload) -> float:
        """Issue one request of class ``kind``; returns its latency.
        The class fixes the expected ``X-Cache`` value."""
        ok = True
        detail = ""
        with ctx.span(f"serve.request.{kind}") as lap:
            try:
                if kind.startswith("query"):
                    archive, text, want = payload
                    reply = client.query(self.ids[archive], text)
                    ok = reply["cached"] == (kind == "query_hit")
                    detail = f"cached={reply['cached']}"
                    if reply["result"] != want:
                        ok, detail = False, "result != numpy oracle"
                elif kind.startswith("viz"):
                    archive, view, (t0, t1) = payload
                    svg, headers = client.viz(self.ids[archive], view,
                                              t0=t0, t1=t1)
                    ok = (headers.get("x-cache") == kind[4:]
                          and oracles.svg_ok(svg))
                    detail = f"x-cache={headers.get('x-cache')}"
                elif kind == "meta":
                    which, archive = payload
                    if which == 0:
                        ok = client.health() == {"ok": True}
                    elif which == 1:
                        ok = len(client.runs()) >= len(self.ids)
                    else:
                        shown = client.show(self.ids[archive])
                        ok = (shown["sections"]["logical"]["rows"]
                              == len(self.cols[archive]["src"]))
                else:
                    reply = client.push(self.paths[payload])
                    ok = (reply["deduped"]
                          and reply["run"] == self.ids[payload])
            except (OSError, ServeError) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        ctx.check(f"serve {kind}", ok, detail)
        return lap.dur

    def push(self, ctx: Ctx, client: ServeClient, path: Path):
        """Push a new archive; returns ``(run id or None, latency)``."""
        run_id = None
        with ctx.span("serve.request.push") as lap:
            try:
                reply = client.push(path)
                run_id = reply["run"]
                ok = reply["created_run"]
            except (OSError, ServeError) as exc:
                ok = False
                print(f"push failed: {exc}", file=sys.stderr)
        ctx.check("serve push", ok)
        return run_id, lap.dur

    def drive(self, server: Server, items: list, work) -> float:
        """Closed loop: ``CLIENT_THREADS`` threads share ``items``; each
        takes the next one when its previous call returned."""
        cursor = iter(items)
        lock = threading.Lock()
        crashed: list[BaseException] = []

        def loop() -> None:
            client = server.client()
            try:
                while True:
                    with lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    work(client, item)
            except BaseException as exc:  # re-raised on the caller below
                crashed.append(exc)

        threads = [threading.Thread(target=loop)
                   for _ in range(CLIENT_THREADS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if crashed:
            raise crashed[0]
        return time.perf_counter() - t0

    # -- one iteration -----------------------------------------------------

    def prime(self, ctx: Ctx) -> None:
        """Phase A (push the base archives, two pushers) and one touch of
        every pool and fixed-viewport item; runs in the warm-up and
        leaves the stopped server's data directory as ``self.primed``."""
        def push(client: ServeClient, i: int) -> None:
            self.ids[i], _ = self.push(ctx, client, self.paths[i])

        with ctx.span("phase_a"):
            wall = self.drive(self.server, list(range(len(self.paths))), push)
        self.ingest_mb_per_s = self.archive_bytes / 1e6 / wall
        fill = ([("query_miss_pool", item) for item in self.pool]
                + [("viz_miss", item) for item in self.fixed_viz])
        with ctx.span("prime_cache"):
            self.drive(self.server, fill,
                       lambda client, item: self.request(ctx, client, *item))
        data_dir = self.server.data_dir
        self.close()
        data_dir.rename(self.primed)

    def restart(self, ctx: Ctx) -> Server:
        """A server on a copy of the primed state, with one request of
        each cached class already answered (connections, lazy imports)."""
        self.close()
        data_dir = ctx.workdir / "srv"
        shutil.rmtree(data_dir, ignore_errors=True)
        with ctx.span("serve.restart"):
            shutil.copytree(self.primed, data_dir)
            self.server = Server(data_dir)
        self.drive(self.server, [
            ("query_hit", self.pool[0]), ("viz_hit", self.fixed_viz[0]),
            ("meta", (0, 0)), ("meta", (1, 0)), ("meta", (2, 0)),
            ("query_hit", self.pool[-1])],
            lambda client, item: self.request(ctx, client, *item))
        return self.server

    def iterate(self, ctx: Ctx) -> None:
        if self.ids[0] is None:
            self.prime(ctx)
        server = self.restart(ctx)
        self.slices += 1
        fresh = self.fresh
        schedule = self.make_slice()
        self.last_unique = [p for kind, p in schedule
                            if kind == "query_miss_dst"]
        quiet = [self.quiet_query() for _ in range(QUIET_QUERIES)]
        # the warm-up slice (iteration -1) is not part of the run
        latencies = ({} if ctx.iteration < 0
                     else self.latencies[ctx.tracing])
        client = server.client()

        def one(client: ServeClient, item) -> None:
            latencies.setdefault(item[0], []).append(
                self.request(ctx, client, *item))

        with ctx.span("first_view"):
            run_id, push_s = self.push(ctx, client, fresh)
            latencies.setdefault("push", []).append(push_s)
            with ctx.span("serve.request.viz_miss"):
                svg, headers = client.viz(run_id, "heatmap")
        with ctx.span("phase_b"):
            wall_b = self.drive(server, schedule, one)
        # the selective miss again with nothing else in flight: what the
        # in-process workloads report as ``query_ms``, over HTTP
        with ctx.span("phase_quiet"):
            latencies.setdefault("quiet", []).extend(
                self.request(ctx, client, *item) for item in quiet)
        ctx.check("first view is a miss and parses",
                  headers.get("x-cache") == "miss" and oracles.svg_ok(svg))
        ctx.value("core.viz.svg_bytes.heatmap", len(svg.encode("utf-8")))
        ctx.value("serve_req_per_s", len(schedule) / wall_b)
        ctx.value("serve.peak_rss_mb", server.peak_rss_mb())

    # -- trace-only ----------------------------------------------------------

    def probe(self, ctx: Ctx) -> None:
        """In-process cost of the texts the slice's full-decode misses
        sent, so the service's own share of a miss can be separated from
        the query."""
        laps = []
        for archive, text, want in self.last_unique:
            with ctx.span("api.run.query") as lap:
                with api.open_run(self.paths[archive]) as run:
                    got = run.query(text)
            laps.append(lap.dur)
            ctx.check(f"in-process {text!r}", oracles.as_pairs(got) == want)
        ctx.value("inprocess_query_p50_ms", statistics.median(laps) * 1e3)

    def finish(self, ctx: Ctx) -> None:
        self.stats = self.server.client().stats()
        self.close()
        if ctx.trace_run:
            self.phase_c(ctx)

    def phase_c(self, ctx: Ctx) -> None:
        """Two pushers through a one-slot ingest gate.  Failures here are
        reported per layer only (``serve.bp_push_failed``): the seed
        commit has a known early-close race on 429 (ROADMAP item 1) that
        must not leak into ``failed``."""
        server = Server(ctx.workdir / "srv-backpressure",
                        "--max-active-ingests", "1", "--retry-after", "0.02")
        failed = []
        try:
            def push(client: ServeClient, path: Path) -> None:
                try:
                    client.push(path, retries=500)
                except (OSError, ServeError) as exc:
                    failed.append(repr(exc))

            with ctx.span("phase_c"):
                self.drive(server, self.paths, push)
            stats = server.client().stats()
        finally:
            server.stop()
        self.backpressure = {
            "serve.bp_push_attempted": len(self.paths),
            "serve.bp_push_failed": len(failed),
            "serve.bp_429": stats["ingest"]["rejected_backpressure"],
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- summaries -----------------------------------------------------------

    def p50_ms(self, label: str, traced: bool = False) -> Stat:
        """Median latency of one request class over the whole run."""
        return stat(v * 1e3 for v in self.latencies[traced][label])

    def quiet_query_ms(self, traced: bool = False) -> Stat:
        """``query_ms``: the 10th percentile of the run's quiet laps.
        Unlike an in-process call they have no hard floor (sockets,
        thread wake-ups, the artifact store's files): the fastest of 170
        moves by 9 % from run to run, the 10th percentile by 3 %."""
        laps = [v * 1e3 for v in self.latencies[traced]["quiet"]]
        return Stat(percentile(laps, 10), len(laps),
                    percentile(laps, 25), percentile(laps, 75))

    def e2e(self, plain: Samples) -> dict:
        return {
            "pipeline_wall_s": self.pipeline_wall(plain),
            "throughput_per_s": plain.best_rate("serve_req_per_s"),
            "time_to_first_view_s": plain.best("first_view"),
            "query_ms": self.quiet_query_ms(),
            # the server's high-water mark after one slice (not the load
            # generator's); which two requests happen to overlap in the
            # two workers moves it by a fifth from slice to slice
            "peak_rss_mb": plain.med("serve.peak_rss_mb"),
            "first_view_svg_mb": plain.med("core.viz.svg_bytes.heatmap", 1e-6),
            "archive_bytes": stat([self.archive_bytes]),
        }

    def layers(self, plain: Samples, traced: Samples) -> dict:
        artifacts, ingest = self.stats["artifacts"], self.stats["ingest"]
        lookups = artifacts["hits"] + artifacts["misses"]
        all_traced = [v for kind, vs in self.latencies[True].items()
                      if kind != "quiet" for v in vs]
        out = {
            "serve_req_per_s": plain.best_rate("serve_req_per_s"),
            "serve_miss_p50_ms": self.p50_ms("query_miss_dst"),
            "pruned_query_ms": self.quiet_query_ms(),
            "serve_ingest_mb_per_s": stat([self.ingest_mb_per_s]),
            "serve.p99_ms": Stat(
                percentile(all_traced, 99) * 1e3, len(all_traced),
                percentile(all_traced, 25) * 1e3,
                percentile(all_traced, 75) * 1e3),
            "serve.miss_overhead_ms": stat([
                self.p50_ms("query_miss_dst", traced=True).value
                - traced.med("inprocess_query_p50_ms").value]),
            "serve.artifact_hit_ratio": stat([artifacts["hits"] / lookups]),
            "serve.artifact_evictions": stat([artifacts["evictions"]]),
            "serve.workers_dispatched":
                stat([self.stats["workers"]["dispatched"]]),
            "serve.rejected_429": stat([ingest["rejected_backpressure"]]),
            "serve.errors": stat([self.stats["errors"]]),
            "serve.bytes_ingested": stat([ingest["bytes_ingested"]]),
            "core.viz.svg_bytes.heatmap":
                traced.exact("core.viz.svg_bytes.heatmap"),
        }
        for label in ("push", "dedup_push", "query_hit", "viz_miss",
                      "viz_hit", "meta"):
            out[f"serve.{label}_p50_ms"] = self.p50_ms(label, traced=True)
        out.update({k: stat([v]) for k, v in self.backpressure.items()})
        return out

    def checks(self) -> dict:
        return {"archives": len(self.paths), "slices": self.slices,
                "archive_sha256": [oracles.sha256_of(p) for p in self.paths]}
