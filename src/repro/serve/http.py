"""A minimal HTTP/1.1 layer over :mod:`asyncio` streams.

The service hand-rolls its protocol on purpose: the repo takes no new
hard dependencies, and the ingest path needs *streaming* body access —
chunked uploads must spill to disk as they arrive, never buffer whole
archives in memory — which the stdlib's ``http.server`` machinery does
not offer over asyncio.

Scope is deliberately small: request line + headers, bodies via
``Content-Length`` or ``Transfer-Encoding: chunked``, JSON responses,
keep-alive.  Anything outside that scope is a 4xx, not a crash.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bound on the request line + headers block.
MAX_HEAD_BYTES = 64 * 1024
#: Largest single chunk-size line we accept in a chunked body.
_MAX_CHUNK_LINE = 256
#: Longest an early-reply connection lingers discarding the unread body.
_LINGER_SECONDS = 2.0

REASONS = {
    200: "OK", 201: "Created", 204: "No Content",
    400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """An error that maps directly to an HTTP error response."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


class TruncatedBody(HttpError):
    """The peer closed the connection before the body was complete."""

    def __init__(self, message: str = "request body truncated") -> None:
        super().__init__(400, message)


@dataclass
class Request:
    """One parsed request head; the body stays on the stream."""

    method: str
    target: str
    path: str
    params: dict[str, str]
    headers: dict[str, str]
    version: str = "HTTP/1.1"
    #: False while body bytes may remain unread on the stream — a
    #: half-consumed body poisons keep-alive, so the connection loop
    #: closes unless this ends up True.
    body_consumed: bool = field(default=True, compare=False)

    @property
    def content_length(self) -> int | None:
        raw = self.headers.get("content-length")
        if raw is None:
            return None
        try:
            n = int(raw)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {raw!r}") from None
        if n < 0:
            raise HttpError(400, f"bad Content-Length {raw!r}")
        return n

    @property
    def chunked(self) -> bool:
        return (self.headers.get("transfer-encoding", "")
                .lower().strip() == "chunked")

    @property
    def has_body(self) -> bool:
        return self.chunked or bool(self.content_length)

    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request head; ``None`` on a clean EOF before any byte."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal
        raise TruncatedBody("connection closed mid-request-head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large") from None
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    params = {k: v for k, v in parse_qsl(split.query, keep_blank_values=True)}
    request = Request(method=method.upper(), target=target,
                      path=unquote(split.path) or "/", params=params,
                      headers=headers, version=version)
    if request.has_body:
        request.body_consumed = False
    return request


async def iter_body(reader: asyncio.StreamReader, request: Request,
                    max_bytes: int):
    """Yield the request body as it arrives, without buffering it whole.

    Enforces ``max_bytes`` *while streaming* (so an oversized chunked
    upload is cut off at the limit, not after), raises
    :class:`TruncatedBody` if the peer disappears mid-body, and marks
    the request consumed only when the body completed cleanly.
    """
    limit_error = HttpError(
        413, f"request body exceeds the {max_bytes:,}-byte limit")
    total = 0
    if request.chunked:
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                raise TruncatedBody("chunked body truncated") from None
            if len(line) > _MAX_CHUNK_LINE:
                raise HttpError(400, "oversized chunk-size line")
            size_text = line.strip().split(b";", 1)[0]
            try:
                size = int(size_text, 16)
            except ValueError:
                raise HttpError(
                    400, f"bad chunk size {size_text!r}") from None
            if size == 0:
                try:  # trailer section: discard until the blank line
                    while (await reader.readuntil(b"\r\n")) != b"\r\n":
                        pass
                except (asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError):
                    raise TruncatedBody("chunked trailer truncated") from None
                break
            total += size
            if total > max_bytes:
                raise limit_error
            try:
                data = await reader.readexactly(size)
                if await reader.readexactly(2) != b"\r\n":
                    raise HttpError(400, "chunk missing CRLF terminator")
            except asyncio.IncompleteReadError:
                raise TruncatedBody("chunked body truncated") from None
            yield data
    else:
        length = request.content_length or 0
        if length > max_bytes:
            raise limit_error
        remaining = length
        while remaining:
            data = await reader.read(min(remaining, 1 << 16))
            if not data:
                raise TruncatedBody("body shorter than Content-Length")
            remaining -= len(data)
            yield data
    request.body_consumed = True


async def discard_unread(reader: asyncio.StreamReader,
                         max_bytes: int) -> None:
    """Swallow what the peer is still sending, before an early close.

    A reply sent before the request body was read (429 at admission, 413
    on a declared length) is followed by a close; closing a socket with
    unread bytes makes the kernel answer with RST, which can destroy the
    reply before the client — still busy sending — ever reads it.  So
    read and drop the rest, until the peer closes, ``max_bytes`` have
    gone by, or :data:`_LINGER_SECONDS` have passed.
    """
    async def discard() -> None:
        remaining = max_bytes
        while remaining > 0:
            data = await reader.read(min(remaining, 1 << 16))
            if not data:
                return
            remaining -= len(data)

    try:
        await asyncio.wait_for(discard(), timeout=_LINGER_SECONDS)
    except (asyncio.TimeoutError, ConnectionError):
        pass


async def read_body(reader: asyncio.StreamReader, request: Request,
                    max_bytes: int) -> bytes:
    """Read and return the whole body (small payloads only)."""
    pieces = []
    async for chunk in iter_body(reader, request, max_bytes):
        pieces.append(chunk)
    return b"".join(pieces)


def response_bytes(status: int, body: bytes,
                   content_type: str = "application/json",
                   headers: dict[str, str] | None = None) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def send_json(writer: asyncio.StreamWriter, status: int, payload,
                    headers: dict[str, str] | None = None) -> None:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    writer.write(response_bytes(status, body, headers=headers))
    await writer.drain()
