"""Happens-before DAG reconstruction and critical-path analysis.

One profiled run leaves behind (a) the MAIN/PROC region spans of the
timeline trace, (b) per-transfer ``(issue, arrival)`` pairs from the
Conveyors flush path, (c) wait intervals from the scheduler / ``quiet``
observation seams, and (d) collective join records.  :func:`build_dag`
stitches them into an event DAG whose nodes are ``(pe, timestamp)``
breakpoints:

* consecutive breakpoints on one PE are linked by an **intra** edge whose
  weight is the elapsed cycles, categorized MAIN / PROC(mailbox) / COMM —
  or **WAIT** with weight zero when the interval is covered by an
  observed wait (waits are *elastic*: they shrink when their cause does),
* each wire transfer adds a **net** edge from its issue breakpoint on the
  sender to its arrival breakpoint on the receiver, decomposed into
  latency + per-byte cycles (+ a rigid residue for injected fault delay),
* each collective adds a pseudo **join** node fed by every participant's
  arrival breakpoint and releasing every participant at the recorded
  release time,
* a ``quiet`` wait adds net edges from the waiter's own pending transfer
  issues to the wait's end (a PE's quiet completes when its *own* puts
  land).

A forward (longest-path) pass over this DAG with all scale factors at
1.0 reproduces every recorded timestamp exactly; re-running it under a
:class:`~repro.whatif.perturb.Scales` yields the *predicted* virtual
T_TOTAL without re-executing the program.  The backward pass extracts the
critical path and attributes its cycles to regions / mailboxes / network
components, which is what the bottleneck ranking is built from.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

from repro.core.timeline import FINISH, REGIONS, SPAN_COLUMNS
from repro.machine.cost import CostModel
from repro.whatif.perturb import Scales

#: Intra-edge categories (WAIT edges are elastic: always weight zero).
CATEGORIES = ("MAIN", "PROC", "COMM", "WAIT")


@dataclass(frozen=True)
class Transfer:
    """One wire transfer (a flushed conveyor buffer)."""

    kind: str  # "local_send" | "nonblock_send"
    nbytes: int
    src: int
    dst: int
    issue: int
    arrival: int
    #: Decomposition of ``arrival - issue``: scalable latency part,
    #: scalable per-byte part, rigid residue (injected fault delay).
    latency: int = 0
    byte_cycles: int = 0
    resid: int = 0


@dataclass(frozen=True)
class CollectiveJoin:
    """One rendezvous: all participants in, one release out."""

    kind: str
    seq: int
    arrivals: tuple[tuple[int, int], ...]  # (pe, arrival clock)
    release: int

    @property
    def weight(self) -> int:
        return self.release - max(t for _, t in self.arrivals)


class DagRecorder:
    """Collects the raw DAG events during one profiled run.

    The three ``note_*`` methods are the targets of the runtime's
    observation seams (scheduler ``wait_observer``, shmem ``wait_sink`` /
    ``coll_sink``, conveyor transfer sink); they only append to lists.
    """

    __slots__ = ("transfers", "waits", "collectives")

    def __init__(self) -> None:
        self.transfers: list[Transfer] = []
        self.waits: list[tuple[int, int, int, str]] = []
        self.collectives: list[CollectiveJoin] = []

    def note_transfer(self, kind: str, nbytes: int, src: int, dst: int,
                      issue: int, arrival: int) -> None:
        self.transfers.append(
            Transfer(kind, nbytes, src, dst, issue, arrival)
        )

    def note_wait(self, pe: int, start: int, end: int, reason: str) -> None:
        self.waits.append((pe, start, end, reason))

    def note_collective(self, kind: str, seq: int, arrivals: dict[int, int],
                        release: int) -> None:
        self.collectives.append(CollectiveJoin(
            kind, seq, tuple(sorted(arrivals.items())), release
        ))


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of possibly-overlapping ``[start, end)`` intervals."""
    out: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            prev = out[-1]
            out[-1] = (prev[0], max(prev[1], end))
        else:
            out.append((start, end))
    return out


def _interval_label(point: float, starts: list[int],
                    intervals: list[tuple[int, int, str, int]]) -> tuple[str, int] | None:
    """Label of the interval containing ``point`` (bisect over starts)."""
    i = bisect.bisect_right(starts, point) - 1
    if i >= 0:
        start, end, label, mailbox = intervals[i]
        if start <= point < end:
            return label, mailbox
    return None


@dataclass
class PathEdge:
    """One edge of the extracted critical path, for reporting."""

    pe: int  # owning PE (dst PE for net edges, -1 for collectives)
    kind: str  # "intra" | "net" | "coll"
    category: str  # MAIN / PROC / COMM / WAIT / net / collective
    mailbox: int
    weight: int
    src_pe: int = -1  # net edges: the sender
    nbytes: int = 0


@dataclass
class EventDag:
    """The reconstructed happens-before DAG of one run."""

    n_pes: int
    cost: CostModel
    clocks: list[int]
    node_pe: list[int] = field(default_factory=list)  # -1 for join nodes
    node_time: list[int] = field(default_factory=list)
    #: edge specs: ("intra", pe, category, mailbox, dt) |
    #: ("net", transfer_idx) | ("coll", join_idx) | ("zero",)
    edges: list[tuple] = field(default_factory=list)
    edge_src: list[int] = field(default_factory=list)
    edge_dst: list[int] = field(default_factory=list)
    transfers: list[Transfer] = field(default_factory=list)
    collectives: list[CollectiveJoin] = field(default_factory=list)
    terminal: list[int] = field(default_factory=list)  # node id per pe
    _topo: list[int] | None = None
    _in_edges: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_time)

    def _incoming(self) -> list[list[int]]:
        if self._in_edges is None:
            incoming: list[list[int]] = [[] for _ in range(self.n_nodes)]
            for idx, dst in enumerate(self.edge_dst):
                incoming[dst].append(idx)
            self._in_edges = incoming
        return self._in_edges

    def _topo_order(self) -> list[int]:
        """Deterministic topological order (Kahn, ready-heap by time)."""
        if self._topo is not None:
            return self._topo
        n = self.n_nodes
        indeg = [0] * n
        for dst in self.edge_dst:
            indeg[dst] += 1
        succ: list[list[int]] = [[] for _ in range(n)]
        for idx, src in enumerate(self.edge_src):
            succ[src].append(idx)
        ready = [(self.node_time[i], i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            _, node = heapq.heappop(ready)
            order.append(node)
            for e in succ[node]:
                dst = self.edge_dst[e]
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    heapq.heappush(ready, (self.node_time[dst], dst))
        if len(order) < n:
            # Degenerate zero-length tie loop (two simultaneous local
            # deliveries in both directions).  Break it by recorded time;
            # all edges involved have weight zero so timing is unaffected.
            seen = set(order)
            rest = sorted(
                (self.node_time[i], i) for i in range(n) if i not in seen
            )
            order.extend(i for _, i in rest)
        self._topo = order
        return order

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------

    def edge_weight(self, idx: int, scales: Scales) -> float:
        spec = self.edges[idx]
        kind = spec[0]
        if kind == "intra":
            _, pe, category, mailbox, dt = spec
            if category == "WAIT":
                return 0.0
            return dt * scales.region_factor(pe, category, mailbox)
        if kind == "net":
            t = self.transfers[spec[1]]
            w = (t.latency * scales.factor("net.latency")
                 + t.byte_cycles * scales.factor("net.bytes") + t.resid)
            return max(0.0, w)
        if kind == "coll":
            return self.collectives[spec[1]].weight * scales.factor("collective")
        return 0.0

    # ------------------------------------------------------------------
    # forward pass: predicted completion times under perturbed costs
    # ------------------------------------------------------------------

    def predict_times(self, scales: Scales | None = None) -> list[float]:
        """Longest-path completion time of every node under ``scales``."""
        scales = scales or Scales()
        if scales.replay_only:
            raise ValueError(
                "buffer-size scales reshape the event DAG and cannot be "
                "predicted from the baseline; replay them instead"
            )
        times = [0.0] * self.n_nodes
        incoming = self._incoming()
        for node in self._topo_order():
            best = 0.0
            for e in incoming[node]:
                t = times[self.edge_src[e]] + self.edge_weight(e, scales)
                if t > best:
                    best = t
            times[node] = best
        return times

    def predict_total(self, scales: Scales | None = None) -> float:
        """Predicted virtual T_TOTAL (max PE completion) under ``scales``."""
        times = self.predict_times(scales)
        return max((times[t] for t in self.terminal), default=0.0)

    # ------------------------------------------------------------------
    # critical path
    # ------------------------------------------------------------------

    def critical_path(self) -> list[PathEdge]:
        """The binding chain of edges ending at the slowest PE's finish.

        Computed at neutral scales, where the forward pass reproduces the
        recorded timestamps — so the path is the run's *actual* critical
        path, and its total weight equals the observed T_TOTAL.
        """
        neutral = Scales()
        times = [0.0] * self.n_nodes
        best_in = [-1] * self.n_nodes
        incoming = self._incoming()
        for node in self._topo_order():
            best = 0.0
            pick = -1
            for e in incoming[node]:
                t = times[self.edge_src[e]] + self.edge_weight(e, neutral)
                if t > best:
                    best, pick = t, e
            times[node] = best
            best_in[node] = pick
        sink = max(self.terminal, key=lambda n: (times[n], -self.node_pe[n]),
                   default=-1)
        path: list[PathEdge] = []
        node = sink
        while node >= 0 and best_in[node] >= 0:
            e = best_in[node]
            spec = self.edges[e]
            if spec[0] == "intra":
                _, pe, category, mailbox, dt = spec
                weight = 0 if category == "WAIT" else dt
                path.append(PathEdge(pe, "intra", category, mailbox, weight))
            elif spec[0] == "net":
                t = self.transfers[spec[1]]
                path.append(PathEdge(
                    t.dst, "net", "net", -1, t.arrival - t.issue,
                    src_pe=t.src, nbytes=t.nbytes,
                ))
            elif spec[0] == "coll":
                join = self.collectives[spec[1]]
                path.append(PathEdge(-1, "coll", "collective", -1, join.weight))
            node = self.edge_src[e]
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def work(self) -> int:
        """Total cycles of all busy edges (compute + network + joins)."""
        total = self.cpu_work()
        for t in self.transfers:
            total += max(0, t.arrival - t.issue)
        for c in self.collectives:
            total += c.weight
        return total

    def cpu_work(self) -> int:
        """Total busy compute cycles across all PEs (no waits)."""
        total = 0
        for spec in self.edges:
            if spec[0] == "intra" and spec[2] != "WAIT":
                total += spec[4]
        return total

    def region_totals(self) -> dict[str, int]:
        """DAG-wide busy cycles per category (plus elastic WAIT cycles)."""
        out = {c: 0 for c in CATEGORIES}
        for spec in self.edges:
            if spec[0] != "intra":
                continue
            _, pe, category, mailbox, dt = spec
            out[category] += dt
        return out

    def mailbox_totals(self) -> dict[int, int]:
        """DAG-wide PROC cycles per mailbox id."""
        out: dict[int, int] = {}
        for spec in self.edges:
            if spec[0] == "intra" and spec[2] == "PROC":
                out[spec[3]] = out.get(spec[3], 0) + spec[4]
        return dict(sorted(out.items()))

    def parallelism_profile(self, buckets: int = 32) -> list[float]:
        """Average number of busy PEs per time bucket over [0, T_TOTAL)."""
        horizon = max(self.clocks, default=0)
        if horizon <= 0:
            return [0.0] * buckets
        width = horizon / buckets
        busy = [0.0] * buckets
        for idx, spec in enumerate(self.edges):
            if spec[0] != "intra" or spec[2] == "WAIT":
                continue
            start = self.node_time[self.edge_src[idx]]
            end = self.node_time[self.edge_dst[idx]]
            b0 = int(start // width)
            b1 = min(int((end - 1) // width), buckets - 1) if end > start else b0
            for b in range(max(0, b0), b1 + 1):
                lo = max(start, b * width)
                hi = min(end, (b + 1) * width)
                if hi > lo:
                    busy[b] += (hi - lo) / width
        return [round(x, 4) for x in busy]


def _decompose(kind: str, nbytes: int, weight: int,
               cost: CostModel) -> tuple[int, int, int]:
    """Split a transfer's recorded weight into (latency, bytes, residue)."""
    if kind != "nonblock_send" or weight <= 0:
        return 0, 0, max(0, weight)
    latency = min(cost.net_latency_cycles, weight)
    byte_part = min(round(nbytes * cost.net_cycles_per_byte), weight - latency)
    return latency, byte_part, weight - latency - byte_part


def build_dag(*, n_pes: int, clocks: list[int], timeline,
              recorder: DagRecorder,
              cost: CostModel | None = None) -> EventDag:
    """Assemble the :class:`EventDag` for one recorded run."""
    cost = cost or CostModel()
    transfers = [
        Transfer(t.kind, t.nbytes, t.src, t.dst, t.issue, t.arrival,
                 *_decompose(t.kind, t.nbytes, t.arrival - t.issue, cost))
        for t in recorder.transfers
    ]
    collectives = list(recorder.collectives)
    dag = EventDag(n_pes=n_pes, cost=cost, clocks=list(clocks),
                   transfers=transfers, collectives=collectives)

    # -- per-PE interval books -----------------------------------------
    cols = timeline.span_columns()
    busy = (cols["region"] != FINISH) & (cols["end"] > cols["start"])
    spans: list[list[tuple[int, int, str, int]]] = [[] for _ in range(n_pes)]
    for pe, code, start, end, mailbox in zip(
            *(cols[c][busy].tolist() for c in SPAN_COLUMNS)):
        spans[pe].append((start, end, REGIONS[code], mailbox))
    for lane in spans:
        lane.sort()
    wait_raw: list[list[tuple[int, int]]] = [[] for _ in range(n_pes)]
    quiet_waits: list[list[tuple[int, int]]] = [[] for _ in range(n_pes)]
    for pe, start, end, reason in recorder.waits:
        wait_raw[pe].append((start, end))
        if reason == "quiet":
            quiet_waits[pe].append((start, end))
    for join in collectives:
        for pe, arrival in join.arrivals:
            wait_raw[pe].append((arrival, join.release))
    waits = [_merge_intervals(w) for w in wait_raw]

    # -- breakpoints → nodes -------------------------------------------
    final = [max(clocks[pe] if pe < len(clocks) else 0, 0)
             for pe in range(n_pes)]
    marks: list[set[int]] = [set() for _ in range(n_pes)]
    for t in transfers:
        marks[t.src].add(t.issue)
        marks[t.dst].add(t.arrival)
        final[t.src] = max(final[t.src], t.issue)
        final[t.dst] = max(final[t.dst], t.arrival)
    # Breakpoints come from the RAW wait records (and the collective
    # arrival/release stamps), not the merged intervals: a quiet wait
    # merged into a neighboring block wait must still have nodes at its
    # own endpoints, because quiet/collective cross edges target them.
    for pe, start, end, _reason in recorder.waits:
        marks[pe].add(start)
        marks[pe].add(end)
        final[pe] = max(final[pe], end)
    for join in collectives:
        for pe, arrival in join.arrivals:
            marks[pe].add(arrival)
            marks[pe].add(join.release)
            final[pe] = max(final[pe], join.release)
    for pe in range(n_pes):
        for start, end, _, _ in spans[pe]:
            marks[pe].add(start)
            marks[pe].add(end)
            final[pe] = max(final[pe], end)
        marks[pe].add(0)
        marks[pe].add(final[pe])

    node_of: list[dict[int, int]] = [{} for _ in range(n_pes)]
    for pe in range(n_pes):
        for t in sorted(marks[pe]):
            node_of[pe][t] = dag.n_nodes
            dag.node_pe.append(pe)
            dag.node_time.append(t)
    dag.terminal = [node_of[pe][final[pe]] for pe in range(n_pes)]

    def add_edge(src: int, dst: int, spec: tuple) -> None:
        dag.edge_src.append(src)
        dag.edge_dst.append(dst)
        dag.edges.append(spec)

    # -- intra edges ----------------------------------------------------
    for pe in range(n_pes):
        ordered = sorted(marks[pe])
        span_starts = [s[0] for s in spans[pe]]
        wait_iv = [(s, e, "WAIT", -1) for s, e in waits[pe]]
        wait_starts = [s for s, _ in waits[pe]]
        for prev, cur in zip(ordered, ordered[1:]):
            mid = (prev + cur) / 2
            hit = _interval_label(mid, wait_starts, wait_iv)
            if hit is None:
                hit = _interval_label(mid, span_starts, spans[pe])
            category, mailbox = hit if hit is not None else ("COMM", -1)
            add_edge(node_of[pe][prev], node_of[pe][cur],
                     ("intra", pe, category, mailbox, cur - prev))

    # -- transfer edges -------------------------------------------------
    # Local flushes deliver at their issue time, so their edges connect
    # equal-timestamp nodes with weight zero.  Lockstep PEs flush to each
    # other simultaneously, which would close A<->B cycles; since every
    # cycle must consist solely of such equal-time zero-weight edges
    # (positive weight would make the recorded times inconsistent),
    # keeping only the ascending-PE orientation makes the graph acyclic
    # without moving any baseline timestamp.  Self-sends (src == dst at
    # one time) are pure self-loops and are dropped entirely.
    for idx, t in enumerate(transfers):
        if t.issue == t.arrival and t.src >= t.dst:
            continue
        add_edge(node_of[t.src][t.issue], node_of[t.dst][t.arrival],
                 ("net", idx))

    # -- quiet completion edges ----------------------------------------
    for pe in range(n_pes):
        for start, end in quiet_waits[pe]:
            for idx, t in enumerate(transfers):
                if t.src == pe and start < t.arrival <= end:
                    src_node = node_of[pe][t.issue]
                    dst_node = node_of[pe][end]
                    if src_node != dst_node:
                        add_edge(src_node, dst_node, ("net", idx))

    # -- collective join nodes -----------------------------------------
    for idx, join in enumerate(collectives):
        jnode = dag.n_nodes
        dag.node_pe.append(-1)
        dag.node_time.append(join.release)
        for pe, arrival in join.arrivals:
            add_edge(node_of[pe][arrival], jnode, ("coll", idx))
            add_edge(jnode, node_of[pe][join.release], ("zero",))
    return dag
