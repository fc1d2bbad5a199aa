"""The arbiter: the service's supervising event loop.

Following pulsar's Arbiter/Actor split (SNIPPETS.md snippets 2–3), the
process is divided into one IO-bound supervisor and a pool of CPU-bound
workers:

* The **arbiter** owns the listening socket and the asyncio event loop.
  It only ever does IO-shaped work — parsing requests, spooling upload
  chunks to disk, reading manifests — so thousands of idle connections
  cost nothing.
* **Query/diff/viz execution** is CPU-bound: :meth:`Arbiter.dispatch`
  runs on one of ``workers`` long-lived pool threads and is get → call
  → put on the size-bounded result cache under a content-addressed
  key (:mod:`repro.serve.artifacts`), so repeats skip the task.  A task
  that raises propagates to its handler and is never stored.

Registry mutations take the sharded registry's file locks, so external
``actorprof runs`` invocations and a running service can share one
registry directory safely.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.store.registry import RunRegistry
from repro.exec import ResultCache
from repro.serve.http import (
    HttpError,
    TruncatedBody,
    discard_unread,
    read_request,
    send_json,
)
from repro.serve.ingest import IngestGate, IngestLimits

log = logging.getLogger("repro.serve")


@dataclass
class ServerConfig:
    """Everything an :class:`Arbiter` needs to run."""

    #: Service state root: registry, artifact store, and spool live here.
    data_dir: Path = Path("actorprof-serve")
    host: str = "127.0.0.1"
    #: TCP port; 0 picks a free port (read it back from ``Arbiter.port``).
    port: int = 8750
    #: Registry manifest shards (write concurrency; see store docs).
    shards: int = 4
    #: Worker pool width for query/diff execution.
    workers: int = 4
    #: Artifact-store LRU cap; ``None`` disables eviction.
    cache_max_bytes: int | None = 256 * 1024 * 1024
    ingest: IngestLimits = field(default_factory=IngestLimits)
    #: Allow ``POST /shutdown`` (tests, CI smoke); off for real serving.
    allow_shutdown: bool = False
    #: Override the registry location (default: ``data_dir / "runs"``).
    registry_root: Path | None = None

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")


class Arbiter:
    """Supervises the listening socket, ingest gate, and worker pool."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        root = config.data_dir
        self.registry = RunRegistry(config.registry_root or root / "runs",
                                    shards=config.shards)
        self.cache = ResultCache(root / "artifacts",
                                 max_bytes=config.cache_max_bytes)
        self.spool_dir = root / "spool"
        self.gate = IngestGate(limits=config.ingest)
        self.requests = 0
        self.errors = 0
        self.dispatched = 0
        self._pool = ThreadPoolExecutor(max_workers=config.workers,
                                        thread_name_prefix="apserve")
        #: key -> the future of the one dispatch of that key now running
        self._inflight: dict[str, asyncio.Future] = {}
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self.port: int | None = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self.config.data_dir.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("actorprof service listening on %s:%d (%d workers, "
                 "%d registry shards)", self.config.host, self.port,
                 self.config.workers, self.registry.shards)

    async def serve_forever(self) -> None:
        """Start, then run until :meth:`request_shutdown` (or cancel)."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)
        log.info("actorprof service stopped")

    # -- worker dispatch --------------------------------------------------

    def dispatch(self, task, key: str, **kwargs) -> tuple[dict, bool]:
        """``(value, cached)``: the cached value under ``key``, or
        ``task(**kwargs)`` stored under it.  Runs on a pool thread
        (:meth:`submit`); an exception propagates and stores nothing."""
        value = self.cache.get(key)
        if value is not None:
            return value, True
        value = task(**kwargs)
        self.cache.put(key, value)
        return value, False

    async def submit(self, task, key: str, **kwargs) -> tuple[dict, bool]:
        """Await :meth:`dispatch` on the worker pool, one run per key at
        a time (single-flight).  A request for a key whose dispatch is in
        flight waits for it and then dispatches: it reads the stored
        entry, or, if that run raised and stored nothing, runs the task.
        """
        self.dispatched += 1
        loop = asyncio.get_running_loop()

        def call():
            return self.dispatch(task, key, **kwargs)

        while (running := self._inflight.get(key)) is not None:
            await asyncio.wait({running})  # never cancels the other's run
            if not running.cancelled() and running.exception() is None:
                return await loop.run_in_executor(self._pool, call)
        future = self._inflight[key] = loop.run_in_executor(self._pool, call)
        # registered before any waiter's callback: the key is free again
        # by the time a waiter wakes up
        future.add_done_callback(lambda _: self._inflight.pop(key))
        return await future

    # -- connection handling ----------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        from repro.serve.handlers import handle

        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await self._send_error(writer, exc)
                    break
                if request is None:
                    break
                self.requests += 1
                try:
                    await handle(self, request, reader, writer)
                except TruncatedBody:
                    break  # peer is gone; nothing to answer
                except HttpError as exc:
                    self.errors += 1
                    await self._send_error(writer, exc)
                except Exception:
                    self.errors += 1
                    log.exception("unhandled error serving %s %s",
                                  request.method, request.path)
                    await self._send_error(
                        writer, HttpError(500, "internal server error"))
                if not request.body_consumed:
                    # replied without reading the whole body: let the
                    # reply reach the client before the close resets it
                    await discard_unread(
                        reader, self.config.ingest.max_archive_bytes)
                    break
                if not request.keep_alive():
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send_error(self, writer: asyncio.StreamWriter,
                          exc: HttpError) -> None:
        try:
            await send_json(writer, exc.status, {"error": exc.message},
                            headers=exc.headers)
        except (ConnectionError, OSError):
            pass

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict:
        sizes = [size for _, _, size in self.cache.entries()]  # one walk
        return {
            "requests": self.requests,
            "errors": self.errors,
            "ingest": self.gate.stats.to_dict(),
            "artifacts": {**self.cache.stats.to_dict(), "entries": len(sizes),
                          "bytes": sum(sizes),
                          "max_bytes": self.cache.max_bytes},
            "registry": {
                "runs": len(self.registry.list()),
                "shards": self.registry.shards,
            },
            "workers": {
                "count": self.config.workers,
                "dispatched": self.dispatched,
            },
        }


def run(config: ServerConfig) -> int:
    """Blocking entry point for ``actorprof serve``."""
    arbiter = Arbiter(config)

    async def main() -> None:
        await arbiter.start()
        print(f"actorprof service on http://{arbiter.config.host}:"
              f"{arbiter.port}  (data: {arbiter.config.data_dir})")
        await arbiter.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0
