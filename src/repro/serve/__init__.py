"""``repro.serve`` — ActorProf as a long-running trace service.

The ROADMAP's "millions of users" path: an asyncio arbiter/worker
service (pulsar direction, SNIPPETS.md snippets 2–3) that accepts
streaming chunked ``.aptrc`` ingest from many concurrent runs — with
explicit 429 backpressure when the spill buffer fills — registers
archives into the sharded, file-locked run registry, and serves
list/show/query/diff/viz over HTTP, each query, diff or render a plain
task called on a worker thread pool.  Identical queries from different
clients are answered from a content-addressed, size-bounded result cache
keyed on archive fingerprint + normalized query text.

Start one with ``actorprof serve``; feed it with ``actorprof push``.
See ``docs/SERVICE.md`` for the wire contract.
"""

from repro.serve.arbiter import Arbiter, ServerConfig, run
from repro.serve.artifacts import diff_key, query_key
from repro.serve.background import ServerThread
from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.ingest import IngestLimits

__all__ = [
    "Arbiter",
    "Backpressure",
    "IngestLimits",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerThread",
    "diff_key",
    "query_key",
    "run",
]
