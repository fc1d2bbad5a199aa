"""Endpoint handlers for the ActorProf service.

Routes::

    GET  /                      service banner + endpoint list
    GET  /healthz               liveness probe
    GET  /stats                 counters (ingest, artifact cache, workers)
    GET  /runs                  registered runs
    GET  /runs/{id}             one run's metadata + sections
    POST /runs[?id=…]           streaming .aptrc ingest (chunked or sized)
    GET  /runs/{id}/query?q=…[&section=logical]   declarative trace query
    GET  /diff?a=…&b=…          side-by-side run comparison
    POST /shutdown              graceful stop (only with allow_shutdown)

Responses are JSON.  Ingest replies 201 for a newly registered run,
200 when the archive's fingerprint was already registered (dedup — the
upload is idempotent), 400 for truncated/corrupt bytes, 409 for a run
id claimed by *different* bytes, 413 past the size cap, and 429 +
``Retry-After`` under backpressure.  Query/diff responses carry a
``cached`` flag (and ``X-Cache: hit|miss`` header) wired to the shared
artifact store.
"""

from __future__ import annotations

import asyncio
import logging

from repro.core.query import QueryError, normalize
from repro.core.store.archive import Archive, ArchiveError
from repro.core.store.registry import RegistryError, RunInfo
from repro.serve.http import HttpError, Request, read_body, send_json
from repro.serve.ingest import spool_upload

log = logging.getLogger("repro.serve")

_ENDPOINTS = [
    "GET /", "GET /healthz", "GET /stats", "GET /runs", "GET /runs/{id}",
    "POST /runs[?id=ID]", "GET /runs/{id}/query?q=QUERY[&section=SECTION]",
    "GET /runs/{id}/viz/{gantt|heatmap|timeline}[?t0=T0&t1=T1&res=RES]",
    "GET /diff?a=RUN&b=RUN", "POST /shutdown",
]


async def handle(arbiter, request: Request, reader, writer) -> None:
    """Route one request; raises :class:`HttpError` for error replies."""
    method, path = request.method, request.path
    segments = [s for s in path.split("/") if s]
    if path in ("/", "/healthz") and method == "GET":
        payload = ({"ok": True} if path == "/healthz" else
                   {"service": "actorprof", "endpoints": _ENDPOINTS})
        await send_json(writer, 200, payload)
    elif path == "/stats" and method == "GET":
        await send_json(writer, 200, await asyncio.to_thread(arbiter.stats))
    elif path == "/runs" and method == "GET":
        await _list_runs(arbiter, writer)
    elif path == "/runs" and method == "POST":
        await _ingest(arbiter, request, reader, writer)
    elif len(segments) == 2 and segments[0] == "runs" and method == "GET":
        await _show_run(arbiter, segments[1], writer)
    elif (len(segments) == 3 and segments[0] == "runs"
          and segments[2] == "query" and method == "GET"):
        await _query(arbiter, request, segments[1], writer)
    elif (len(segments) == 4 and segments[0] == "runs"
          and segments[2] == "viz" and method == "GET"):
        await _viz(arbiter, request, segments[1], segments[3], writer)
    elif path == "/diff" and method == "GET":
        await _diff(arbiter, request, writer)
    elif path == "/shutdown" and method == "POST":
        await _shutdown(arbiter, request, reader, writer)
    else:
        raise HttpError(404, f"no route for {method} {path}")


def _run_payload(info: RunInfo, sections: dict | None = None) -> dict:
    payload = {
        "run": info.run_id,
        "created": info.created,
        "size_bytes": info.size_bytes,
        "fingerprint": info.fingerprint,
        "meta": info.meta,
        "degraded": bool(info.meta.get("degraded")),
    }
    if sections is not None:
        payload["sections"] = sections
    return payload


def _registry_call(fn, *args):
    """Translate registry failures into HTTP error replies."""
    try:
        return fn(*args)
    except RegistryError as exc:
        status = 404 if "unknown run" in str(exc) else 409
        raise HttpError(status, str(exc)) from None


async def _list_runs(arbiter, writer) -> None:
    infos = await asyncio.to_thread(arbiter.registry.list)
    await send_json(writer, 200, {"runs": [_run_payload(i) for i in infos]})


async def _show_run(arbiter, ref: str, writer) -> None:
    info = _registry_call(arbiter.registry.resolve, ref)

    def sections() -> dict:
        with Archive(info.path) as archive:
            return {name: {"rows": archive.section(name).rows,
                           "columns": list(archive.section(name).columns)}
                    for name in archive.sections}

    try:
        payload = _run_payload(info, await asyncio.to_thread(sections))
    except (OSError, ArchiveError) as exc:
        raise HttpError(500, f"cannot open archive for {info.run_id}: "
                             f"{exc}") from None
    await send_json(writer, 200, payload)


# -- ingest ---------------------------------------------------------------

async def _ingest(arbiter, request: Request, reader, writer) -> None:
    if not request.has_body:
        raise HttpError(400, "POST /runs needs an archive body "
                             "(Content-Length or chunked)")
    gate = arbiter.gate
    reservation = gate.admit(request.content_length)
    part = None
    try:
        try:
            part, fingerprint, nbytes = await spool_upload(
                request, reader, arbiter.spool_dir, gate.limits)
        except HttpError as exc:
            if exc.status == 413:
                gate.stats.rejected_oversize += 1
            elif exc.status == 400:
                gate.stats.rejected_corrupt += 1
            raise

        # Fingerprint-level dedup: a byte-identical archive is already
        # served by its existing registration, whatever it was named.
        existing = await asyncio.to_thread(
            arbiter.registry.find_fingerprint, fingerprint)
        if existing is not None:
            gate.stats.deduped += 1
            await send_json(writer, 200, dict(
                _run_payload(existing), deduped=True, created_run=False))
            return

        # Validate before registering, chunk tables too: a corrupt body
        # must never enter the registry.  Degraded archives (PR-2 salvage
        # of a crashed run) parse fine and are accepted, flagged as such.
        def probe() -> dict:
            with Archive(part) as archive:
                for name in archive.sections:
                    archive.section(name).n_chunks  # builds + checks its table
                return dict(archive.meta)

        try:
            meta = await asyncio.to_thread(probe)
        except (OSError, ArchiveError) as exc:
            gate.stats.rejected_corrupt += 1
            raise HttpError(
                400, f"upload is not a loadable .aptrc archive: {exc}"
            ) from None

        run_id = (request.params.get("id")
                  or request.headers.get("x-run-id")
                  or f"run-{fingerprint[:12]}")
        info, created = await asyncio.to_thread(
            _registry_call, lambda: arbiter.registry.add_dedup(
                part, run_id=run_id, move=True, fingerprint=fingerprint,
                meta=meta))
        part = None  # consumed by move (or deleted by dedup)
        if created:
            gate.stats.accepted += 1
            gate.stats.bytes_ingested += nbytes
            if meta.get("degraded"):
                gate.stats.degraded += 1
        else:
            gate.stats.deduped += 1
        await send_json(writer, 201 if created else 200, dict(
            _run_payload(info), deduped=not created, created_run=created))
    finally:
        gate.release(reservation)
        if part is not None:
            part.unlink(missing_ok=True)


# -- query / diff ---------------------------------------------------------

async def _submit(arbiter, verb: str, client_faults: tuple, task, key: str,
                  **kwargs) -> tuple[dict, bool]:
    """``(value, cached)`` of ``task`` through the arbiter.  A task that
    raises is a 400 when its exception's exact type is one of
    ``client_faults`` (the client's query or archive), else a 500 whose
    traceback is logged."""
    try:
        return await arbiter.submit(task, key, **kwargs)
    except Exception as exc:
        status = 400 if type(exc) in client_faults else 500
        if status == 500:
            log.exception("%s task failed", verb)
        raise HttpError(status, f"{verb} failed: {type(exc).__name__}: "
                                f"{exc}") from None


async def _query(arbiter, request: Request, ref: str, writer) -> None:
    from repro.serve import tasks
    from repro.serve.artifacts import query_key

    text = request.params.get("q")
    if not text:
        raise HttpError(400, "query endpoint needs ?q=QUERY")
    section = request.params.get("section", "logical")
    try:
        canonical = normalize(text)
    except QueryError as exc:
        raise HttpError(400, f"bad query: {exc}") from None
    info = _registry_call(arbiter.registry.resolve, ref)
    value, cached = await _submit(
        arbiter, "query", (QueryError, ArchiveError), tasks.run_query_task,
        query_key(info.fingerprint, section, canonical),
        archive=str(info.path), section=section, query=canonical)
    await send_json(writer, 200, {
        "run": info.run_id, "section": section, "query": canonical,
        "result": value["result"], "cached": cached,
    }, headers={"X-Cache": "hit" if cached else "miss"})


async def _viz(arbiter, request: Request, ref: str, view: str,
               writer) -> None:
    """LOD-backed SVG render of one run's viewport.

    Replies are ``image/svg+xml`` with ``X-Cache`` (artifact store),
    ``X-Lod-Level`` (pyramid level used) and ``X-Viewport`` (snapped
    window) headers — everything a pan/zoom client needs to refine.
    """
    from repro.core.store.lod import LodError
    from repro.core.viz.lodviews import VIEWS
    from repro.serve import tasks
    from repro.serve.artifacts import viz_key
    from repro.serve.http import response_bytes

    if view not in VIEWS:
        raise HttpError(
            404, f"unknown viz view {view!r}; want one of {VIEWS}")

    def int_param(name: str) -> int | None:
        raw = request.params.get(name)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, f"{name} must be an integer, "
                                 f"got {raw!r}") from None

    t0, t1, res = int_param("t0"), int_param("t1"), int_param("res")
    if res is not None and res < 1:
        raise HttpError(400, "res must be a positive integer")
    info = _registry_call(arbiter.registry.resolve, ref)
    value, cached = await _submit(
        arbiter, "viz", (LodError, ArchiveError, ValueError),
        tasks.run_viz_task, viz_key(info.fingerprint, view, t0, t1, res),
        archive=str(info.path), view=view, t0=t0, t1=t1, res=res)
    writer.write(response_bytes(
        200, value["svg"].encode("utf-8"), content_type="image/svg+xml",
        headers={"X-Cache": "hit" if cached else "miss",
                 "X-Lod-Level": str(value["level"]),
                 "X-Viewport": f"{value['t0']}-{value['t1']}",
                 "X-Horizon": str(value["horizon"])}))
    await writer.drain()


async def _diff(arbiter, request: Request, writer) -> None:
    from repro.serve import tasks
    from repro.serve.artifacts import diff_key

    ref_a, ref_b = request.params.get("a"), request.params.get("b")
    if not ref_a or not ref_b:
        raise HttpError(400, "diff endpoint needs ?a=RUN&b=RUN")
    info_a = _registry_call(arbiter.registry.resolve, ref_a)
    info_b = _registry_call(arbiter.registry.resolve, ref_b)
    value, cached = await _submit(
        arbiter, "diff", (), tasks.run_diff_task,
        diff_key(info_a.fingerprint, info_b.fingerprint, info_a.run_id,
                 info_b.run_id),
        archive_a=str(info_a.path), archive_b=str(info_b.path),
        label_a=info_a.run_id, label_b=info_b.run_id)
    await send_json(writer, 200, {
        "a": info_a.run_id, "b": info_b.run_id,
        "report": value["report"], "cached": cached,
    }, headers={"X-Cache": "hit" if cached else "miss"})


async def _shutdown(arbiter, request: Request, reader, writer) -> None:
    if request.has_body:  # drain a (small) body so the reply is clean
        await read_body(reader, request, 4096)
    if not arbiter.config.allow_shutdown:
        raise HttpError(403, "shutdown over HTTP is disabled "
                             "(start with --allow-remote-shutdown)")
    await send_json(writer, 200, {"ok": True, "stopping": True})
    arbiter.request_shutdown()
