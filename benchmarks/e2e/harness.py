"""Run-side machinery shared by every workload: spans, checks, samples.

One :class:`Ctx` lives for one run of one workload.  Workload code wraps
every call into a layer in ``ctx.span(name)``; the span's duration is
always added to the current iteration's sample (that is where timing
metrics come from), and — only while ``ctx.tracing`` is on — the full
span record (start, end, parent, thread, iteration) is kept in memory
for the Chrome trace and the self-time table.  Oracles report through
``ctx.check``; every check is one attempted operation.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Stat:
    """The reported ``value`` of ``n`` samples, with their quartiles."""

    value: float
    n: int
    q1: float
    q3: float

    def as_dict(self) -> dict:
        return {"value": self.value, "n": self.n, "q1": self.q1, "q3": self.q3}


def stat(values, pick=statistics.median, method: str = "exclusive") -> Stat:
    """``pick`` (median by default) of the samples, beside the quartiles
    ``statistics.quantiles`` gives (``exclusive`` is its default and what
    the driver uses across runs; ``inclusive`` never leaves the data's
    range, which suits the handful of iterations inside one run)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return Stat(values[0], 1, values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return Stat(pick(values), len(values), q1, q3)


def own_peak_rss_mb() -> float:
    """This process's high-water mark (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(int(-(-p * len(ordered) // 100)), 1)
    return ordered[rank - 1]


class _Span:
    __slots__ = ("dur",)

    def __init__(self) -> None:
        self.dur = 0.0


class Ctx:
    """State of one run: tracing switch, samples, spans, check counts."""

    def __init__(self, *, seed: int, smoke: bool, workdir: Path,
                 trace_run: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        #: Is this a ``--trace 1`` run (layer probes, phase C) at all?
        self.trace_run = trace_run
        #: Are span records being kept right now?
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.iteration = -1
        self.peak_rss_mb = 0.0
        self.sample: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args):
        """Time one call into a layer; nests via a per-thread stack."""
        span = _Span()
        stack = None
        if self.tracing:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span
        finally:
            end = time.perf_counter()
            span.dur = end - start
            with self._lock:
                self.sample[name] += span.dur
            if stack is not None:
                stack.pop()
                self.spans.append({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start - self._t0, "end": end - self._t0,
                    "tid": threading.get_ident(),
                    "iteration": self.iteration, **args,
                })

    def value(self, name: str, v: float) -> None:
        """Record a count or derived number for the current iteration."""
        self.sample[name] = v

    # -- oracles ----------------------------------------------------------

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        """One attempted operation; a false ``ok`` is a failed one."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                message = f"{what}: {detail}" if detail else what
                if len(self.failures) < 20:
                    self.failures.append(message)
                print(f"CHECK FAILED {message}", file=sys.stderr)
        return bool(ok)

    # -- trace output -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part children cover."""
        child_total: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child_total[s["id"]]
        return dict(out)

    def write_chrome_trace(self, path: Path, workload: str) -> None:
        """Spans as Chrome-trace complete events (``chrome://tracing``,
        Perfetto); span id / parent / iteration ride in ``args``."""
        tids = {tid: i for i, tid in
                enumerate(sorted({s["tid"] for s in self.spans}))}
        known = ("id", "parent", "name", "start", "end", "tid")
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": tids[s["tid"]],
            "ts": round(s["start"] * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "args": {"id": s["id"], "parent": s["parent"],
                     **{k: v for k, v in s.items() if k not in known}},
        } for s in self.spans]
        events.append({"name": "process_name", "ph": "M", "pid": 1,
                       "args": {"name": f"benchmarks/e2e {workload}"}})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))


class Samples:
    """The per-iteration samples of one pass, with summary helpers."""

    def __init__(self, ctx: Ctx, rows: list[dict]) -> None:
        self.ctx = ctx
        self.rows = rows

    def has(self, name: str) -> bool:
        return any(name in r for r in self.rows)

    def values(self, name: str) -> list[float]:
        return [r[name] for r in self.rows if name in r]

    def med(self, name: str, scale: float = 1.0) -> Stat:
        """Median over iterations: sizes, counts, distributions."""
        return stat((v * scale for v in self.values(name)),
                    method="inclusive")

    def best(self, name: str, scale: float = 1.0) -> Stat:
        """Fastest iteration of a timing.  On this shared 2-vCPU sandbox
        the same iteration takes 0.80 s or 1.25 s depending on what the
        host is doing; interference only ever adds time, so the minimum
        repeats within ~2 % run to run where the median wanders by 15 %.
        Differences and ratios of layers are taken between these."""
        return stat((v * scale for v in self.values(name)), pick=min,
                    method="inclusive")

    def best_sum(self, names) -> Stat:
        """Sum of the fastest lap of each of ``names``: the wall of a
        pipeline whose stages run one after another.  The fastest whole
        iteration needs every stage undisturbed at once, which in a
        noisy spell no iteration of a run manages; each stage alone
        finds its quiet lap far sooner, so this repeats from run to run
        where the fastest iteration does not.  The quartiles are those
        of the per-iteration sums."""
        sums = [sum(r[n] for n in names) for r in self.rows]
        q = stat(sums, method="inclusive")
        return Stat(sum(min(self.values(n)) for n in names), q.n, q.q1, q.q3)

    def best_rate(self, name: str, scale: float = 1.0) -> Stat:
        """Highest per-iteration rate — the rate of the fastest iteration."""
        return stat((v * scale for v in self.values(name)), pick=max,
                    method="inclusive")

    def exact(self, name: str) -> Stat:
        """A count that must be identical on every iteration."""
        values = self.values(name)
        self.ctx.check(f"exact {name}", len(set(values)) == 1,
                       f"varies across iterations: {sorted(set(values))}")
        return stat(values, method="inclusive")


class Workload:
    """What ``child.py`` drives; ``setup`` and ``iterate`` are the
    workload, the rest has defaults.  ``e2e(plain)`` and
    ``layers(plain, traced)`` turn the samples into metrics and
    ``checks()`` returns the informational digests."""

    #: The spans that make up ``pipeline_wall_s``: the calls into the
    #: program, one after another, without the oracles between them.
    STAGES: tuple = ()

    def pipeline_wall(self, samples: "Samples") -> Stat:
        return samples.best_sum(self.STAGES)

    def setup(self, ctx: Ctx) -> None:
        """Generate inputs from ``ctx.seed``; timed as part of ``setup_s``."""

    def iterate(self, ctx: Ctx) -> None:
        """One pass through the pipeline, every layer call in a span."""
        raise NotImplementedError

    def probe(self, ctx: Ctx) -> None:
        """Traced pass only: extra calls that isolate single layers."""

    def finish(self, ctx: Ctx) -> None:
        """After the last iteration (one-off measurements)."""

    def close(self) -> None:
        """Stop whatever ``setup`` started; runs on every exit path."""

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()


def run_loop(workload: Workload, ctx: Ctx, seconds: float, trace: bool,
             min_rounds: int) -> tuple[Samples, Samples | None]:
    """Warm up once, then repeat rounds until ``seconds`` are used.

    A round is one untraced iteration; under ``trace`` it is followed by
    one traced iteration and the workload's layer probes, so the traced
    pass has its own untraced baseline from the same process.
    Returns ``(untraced samples, traced samples or None)``.
    """
    plain: list[dict] = []
    traced: list[dict] = []

    def iteration(index: int, tracing: bool) -> dict:
        ctx.iteration = index
        ctx.tracing = tracing
        ctx.sample = defaultdict(float)
        try:
            with ctx.span("iteration"):
                workload.iterate(ctx)
            if tracing:
                with ctx.span("probes"):
                    workload.probe(ctx)
        except Exception:  # an operation raised: count it, keep measuring
            traceback.print_exc()
            ctx.check("iteration raised", False,
                      traceback.format_exc(limit=1).strip().splitlines()[-1])
            ctx.sample["failed_iteration"] = 1.0
        finally:
            ctx.tracing = False
        gc.collect()  # a finished World is cyclic garbage: free it now
        return dict(ctx.sample)

    iteration(-1, trace)  # warm-up: caches, lazy imports, pyc
    ctx.spans.clear()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        t0 = time.perf_counter()
        sample = iteration(rounds, False)
        if "failed_iteration" not in sample:
            plain.append(sample)
        if trace:
            sample = iteration(rounds, True)
            if "failed_iteration" not in sample:
                traced.append(sample)
        rounds += 1
        if rounds == min_rounds:
            # sampled after a fixed number of iterations, not at exit:
            # arenas keep growing a little per iteration, and how many
            # iterations fit in the window depends on the machine
            ctx.peak_rss_mb = workload.peak_rss_mb()
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - t0) > deadline:
            break
    return Samples(ctx, plain), (Samples(ctx, traced) if trace else None)
