"""A small blocking client for the ActorProf service.

Used by ``actorprof push``, the tests, and the throughput benchmark.
Hand-rolled on :mod:`socket` (one connection per request) so it can
exercise the server's real wire behavior: chunked streaming uploads,
429 + ``Retry-After`` backpressure, and — in tests — deliberately
truncated bodies.

Backpressure is a first-class outcome, not an error: :meth:`push`
sleeps for the server's advertised ``Retry-After`` and retries, so a
storm of pushing clients self-paces instead of dropping uploads.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path
from typing import Iterable


class ServeError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class Backpressure(ServeError):
    """429: the ingest queue is full; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ServeClient:
    """Talk to one ActorProf service instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8750,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- wire -------------------------------------------------------------

    def request(self, method: str, path: str, body: bytes | None = None,
                chunks: Iterable[bytes] | None = None,
                headers: dict[str, str] | None = None,
                ) -> tuple[int, dict[str, str], bytes]:
        """One request/response exchange on a fresh connection."""
        head = [f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                "Connection: close"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        if chunks is not None:
            head.append("Transfer-Encoding: chunked")
        elif body is not None:
            head.append(f"Content-Length: {len(body)}")
        wire_head = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout) as sock:
            try:
                sock.sendall(wire_head)
                if chunks is not None:
                    for chunk in chunks:
                        if chunk:
                            sock.sendall(
                                b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                    sock.sendall(b"0\r\n\r\n")
                elif body is not None:
                    sock.sendall(body)
            except (BrokenPipeError, ConnectionResetError) as send_error:
                # the server stopped reading — it has answered early
                # (429 at admission, 413) and closed: stop sending and
                # go read that answer; only without one is this fatal
                try:
                    return self._read_response(sock)
                except (ServeError, OSError):
                    raise send_error from None
            return self._read_response(sock)

    def _read_response(self, sock: socket.socket
                       ) -> tuple[int, dict[str, str], bytes]:
        raw = b""
        while b"\r\n\r\n" not in raw:
            data = sock.recv(1 << 16)
            if not data:
                raise ServeError(0, "connection closed before response head")
            raw += data
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            status = int(lines[0].split(" ")[1])
        except (IndexError, ValueError):
            raise ServeError(0, f"malformed status line {lines[0]!r}") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body = rest
        while len(body) < length:
            data = sock.recv(1 << 16)
            if not data:
                raise ServeError(0, "connection closed mid-response-body")
            body += data
        return status, headers, body[:length]

    def request_json(self, method: str, path: str, **kwargs) -> dict:
        status, headers, body = self.request(method, path, **kwargs)
        try:
            payload = json.loads(body) if body else {}
        except ValueError:
            payload = {"error": body.decode("latin-1", "replace")}
        if status == 429:
            raise Backpressure(payload.get("error", "backpressure"),
                               float(headers.get("retry-after", 1.0)))
        if status >= 400:
            raise ServeError(status, payload.get("error", f"status {status}"))
        return payload

    # -- API --------------------------------------------------------------

    def health(self) -> dict:
        return self.request_json("GET", "/healthz")

    def stats(self) -> dict:
        return self.request_json("GET", "/stats")

    def runs(self) -> list[dict]:
        return self.request_json("GET", "/runs")["runs"]

    def show(self, run: str) -> dict:
        return self.request_json("GET", f"/runs/{run}")

    def push(self, archive_path: str | Path, run_id: str | None = None,
             chunk_size: int = 64 * 1024, retries: int = 8) -> dict:
        """Stream an archive up; waits out backpressure, then retries.

        Raises :class:`Backpressure` only after ``retries`` rounds of
        429 — by then the server has been saturated for a while and the
        caller should know.
        """
        archive_path = Path(archive_path)
        path = "/runs" + (f"?id={run_id}" if run_id else "")

        def chunks() -> Iterable[bytes]:
            with open(archive_path, "rb") as f:
                yield from iter(lambda: f.read(chunk_size), b"")

        for attempt in range(retries + 1):
            try:
                return self.request_json("POST", path, chunks=chunks())
            except Backpressure as exc:
                if attempt == retries:
                    raise
                time.sleep(exc.retry_after)
        raise AssertionError("unreachable")

    def query(self, run: str, query: str, section: str = "logical") -> dict:
        from urllib.parse import quote

        return self.request_json(
            "GET", f"/runs/{quote(run)}/query?section={quote(section)}"
                   f"&q={quote(query)}")

    def viz(self, run: str, view: str, t0: int | None = None,
            t1: int | None = None, res: int | None = None,
            ) -> tuple[str, dict[str, str]]:
        """Fetch one LOD viz SVG; returns ``(svg_text, headers)``.

        The headers carry ``x-cache`` (artifact-store hit/miss),
        ``x-lod-level`` and ``x-viewport`` for drill-down clients.
        """
        from urllib.parse import quote

        params = "&".join(f"{k}={v}" for k, v in
                          (("t0", t0), ("t1", t1), ("res", res))
                          if v is not None)
        path = f"/runs/{quote(run)}/viz/{quote(view)}"
        if params:
            path += f"?{params}"
        status, headers, body = self.request("GET", path)
        if status >= 400:
            try:
                message = json.loads(body).get("error", f"status {status}")
            except ValueError:
                message = body.decode("latin-1", "replace")
            raise ServeError(status, message)
        return body.decode("utf-8"), headers

    def diff(self, run_a: str, run_b: str) -> dict:
        from urllib.parse import quote

        return self.request_json(
            "GET", f"/diff?a={quote(run_a)}&b={quote(run_b)}")

    def shutdown(self) -> dict:
        return self.request_json("POST", "/shutdown")
