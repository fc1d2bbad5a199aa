"""The Conveyor porcelain: push / pull / advance with aggregation.

One :class:`ConveyorGroup` is a collective object spanning all PEs (like a
``convey_t`` constructed collectively in bale); each PE interacts with its
own :class:`Conveyor` endpoint.

Semantics reproduced from bale/Conveyors as the paper relies on them:

* ``push(payload, dst)`` **fails** (returns False) when the next-hop
  buffer is full; the caller must ``advance()`` and retry.  This failure/
  retry loop is what interleaves message handling with message generation
  in the FA-BSP runtime (paper Fig. 1).
* ``advance(done)`` ingests arrived buffers (routing multi-hop items
  onward), sends full buffers always and partial buffers only once the
  endpoint has signalled ``done`` (the lazy-send policy), and returns
  False only when the whole conveyor is quiescent: every endpoint done and
  every pushed item pulled.
* ``pull()`` returns one ``(source_pe, payload)`` at the item's final
  destination.
* Remote buffer sends use double buffering: at most ``slots`` outstanding
  ``shmem_putmem_nbi`` per destination, after which the sender performs
  ``nonblock_progress`` = ``shmem_quiet`` (completing ALL outstanding
  puts, per OpenSHMEM semantics) + a signalling ``shmem_put`` to that
  destination.

Batch variants (``push_many`` / ``pull_segments``) move numpy blocks
through the identical buffer/flush machinery so traces and statistics are
item-for-item the same as the scalar path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.conveyors.buffers import (
    COL_DST,
    COL_SRC,
    HEADER_WORDS,
    ConveyorStats,
    InboundBuffer,
    OutBuffer,
    ReadyQueue,
)
from repro.conveyors.hooks import NullTraceSink, TraceSink
from repro.conveyors.topology import Topology, make_topology
from repro.shmem.runtime import ShmemRuntime
from repro.sim.errors import FaultError, SimulationError
from repro.sim.faults import FaultInjector
from repro.sim.scheduler import DEFAULT_POLICY, SchedulePolicy


@dataclass(frozen=True)
class ConveyorConfig:
    """Construction parameters of a conveyor.

    Attributes
    ----------
    payload_words:
        Number of int64 words per message payload (1 for an index, 2 for a
        ``(row, col)`` pair, ...).
    buffer_items:
        Aggregation buffer capacity in items, per next-hop destination.
    slots:
        Double-buffering depth: outstanding non-blocking puts allowed per
        remote destination before ``nonblock_progress`` is required.
    topology:
        ``auto`` (paper behaviour: linear on 1 node, mesh on several),
        ``linear``, ``mesh``, or ``cube``.
    self_send_bypass:
        Ablation knob (paper §IV-D "Note for self-sends"): when True,
        self-sends skip aggregation entirely.  Default False — real
        Conveyors routes self-sends through the full buffer path.
    item_header_bytes / buffer_header_bytes:
        Wire-format overheads used for buffer (packet) size accounting.
    """

    payload_words: int = 1
    buffer_items: int = 64
    slots: int = 2
    topology: str = "auto"
    self_send_bypass: bool = False
    item_header_bytes: int = 8
    buffer_header_bytes: int = 16

    def __post_init__(self) -> None:
        if self.payload_words < 1:
            raise ValueError("payload_words must be >= 1")
        if self.buffer_items < 1:
            raise ValueError("buffer_items must be >= 1")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")

    @property
    def payload_bytes(self) -> int:
        """User-visible message size (what the logical trace records)."""
        return 8 * self.payload_words

    def wire_bytes(self, count: int) -> int:
        """Network packet size of a buffer carrying ``count`` items."""
        return self.buffer_header_bytes + count * (
            self.payload_bytes + self.item_header_bytes
        )


class ConveyorGroup:
    """Collective conveyor state across all PEs."""

    def __init__(
        self,
        runtime: ShmemRuntime,
        config: ConveyorConfig | None = None,
        tracer: TraceSink | None = None,
        faults: FaultInjector | None = None,
        policy: SchedulePolicy | None = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or ConveyorConfig()
        self.tracer: TraceSink = tracer if tracer is not None else NullTraceSink()
        self.faults = faults
        #: Resolves the flush-order don't-care (ActorCheck's jitter seam).
        self.policy: SchedulePolicy = policy if policy is not None else DEFAULT_POLICY
        self.topology: Topology = make_topology(self.config.topology, runtime.spec)
        self.live = 0  # pushed-but-not-yet-pulled items, globally
        self.done = [False] * runtime.spec.n_pes
        self._done_count = 0
        self._quiescent = False
        #: WaitChannel notified whenever quiescence flips (either way:
        #: a handler running during another group's drain may push after
        #: this group already went quiescent).  Drain loops blocked on
        #: completion register with it.
        self.wake = runtime.scheduler.channel()
        self.endpoints = [Conveyor(self, pe) for pe in range(runtime.spec.n_pes)]

    @property
    def n_pes(self) -> int:
        return self.runtime.spec.n_pes

    @property
    def quiescent(self) -> bool:
        """True when no endpoint will push again and every item was pulled.

        A flag read: :meth:`add_live`, :meth:`drop_live` and
        :meth:`mark_done` — the only mutators of ``live`` and the done
        count — keep it current, because it sits inside every
        ``advance()`` poll and every drain predicate.
        """
        return self._quiescent

    def add_live(self, n: int) -> None:
        """Account ``n`` newly pushed items (may revoke quiescence)."""
        self.live += n
        if self._quiescent:
            self._quiescent = False
            self.wake.notify()

    def drop_live(self, n: int) -> None:
        """Account ``n`` pulled items."""
        self.live -= n
        self._recheck_quiescent()

    def mark_done(self, pe: int) -> None:
        """Record endpoint ``pe``'s (sticky, idempotent) done signal."""
        if not self.done[pe]:
            self.done[pe] = True
            self._done_count += 1
            self._recheck_quiescent()

    def _recheck_quiescent(self) -> None:
        q = self.live == 0 and self._done_count == len(self.done)
        if q != self._quiescent:
            self._quiescent = q
            self.wake.notify()


class Conveyor:
    """One PE's endpoint of a :class:`ConveyorGroup`."""

    def __init__(self, group: ConveyorGroup, me: int) -> None:
        self.group = group
        self.me = me
        self.ctx = group.runtime.contexts[me]
        self.perf = group.runtime.perf[me]
        cfg = group.config
        self.width = HEADER_WORDS + cfg.payload_words
        self.out: dict[int, OutBuffer] = {}
        #: Hops whose buffer holds items: the flush candidates, so a flush
        #: costs what is queued, not a scan over every PE.
        self._queued: set[int] = set()
        self.inbound: list[InboundBuffer] = []
        # Cached min over inbound arrivals (None iff inbound is empty):
        # makes the per-advance visibility probe O(1).
        self._min_arrival: int | None = None
        #: WaitChannel notified on every inbound delivery to this endpoint.
        self.inbox_wake = group.runtime.scheduler.channel()
        self.ready = ReadyQueue()
        self.outstanding: dict[int, int] = {}
        self.done_requested = False
        self.stats = ConveyorStats()
        self._hop_map: np.ndarray | None = None
        # What-if DAG seam: tracers that also want (issue, arrival) pairs
        # per wire transfer expose ``record_transfer``; plain TraceSinks
        # don't, and pay nothing.
        self._transfer_sink = getattr(group.tracer, "record_transfer", None)

    # ------------------------------------------------------------------
    # push side
    # ------------------------------------------------------------------

    def push(self, payload, dst: int) -> bool:
        """Queue one message for ``dst``; False when the buffer is full.

        Pushing after ``advance(done=True)`` is permitted at this layer —
        the FA-BSP runtime needs it for handler-initiated sends during the
        drain; *user*-side pushes after ``done()`` are rejected by the
        Selector layer.
        """
        if not 0 <= dst < self.group.n_pes:
            raise ValueError(f"destination PE {dst} out of range")
        if isinstance(payload, (int, np.integer)):
            payload = (int(payload),)
        if len(payload) != self.group.config.payload_words:
            raise ValueError(
                f"payload has {len(payload)} words; conveyor configured for "
                f"{self.group.config.payload_words}"
            )
        if self.group.config.self_send_bypass and dst == self.me:
            row = np.empty((1, self.width), dtype=np.int64)
            row[0, COL_DST] = dst
            row[0, COL_SRC] = self.me
            row[0, HEADER_WORDS:] = payload
            self.ready.put(row)
            self.group.add_live(1)
            self.stats.pushes += 1
            return True
        hop = self.group.topology.next_hop(self.me, dst) if dst != self.me else self.me
        buf = self._buffer_for(hop)
        if buf.full:
            self.stats.push_fails += 1
            self.perf.work(ins=self.perf.cost.push_retry_ins, loads=2, branches=1)
            return False
        buf.append(dst, self.me, tuple(payload))
        self._queued.add(hop)
        self.perf.work(ins=self.perf.cost.push_ins, loads=4, stores=4, branches=2)
        self.group.add_live(1)
        self.stats.pushes += 1
        return True

    def push_many(self, dsts: np.ndarray, payloads: np.ndarray | None = None) -> int:
        """Vectorized push of many messages; flushes full buffers inline.

        Unlike scalar :meth:`push`, this never fails: buffers that fill up
        are sent immediately (the scalar path achieves the same thing via
        the fail→advance→retry loop).  Callers that want interleaved
        message handling should push in chunks and poll between chunks.

        ``payloads`` may be None (payload = dst is meaningless; use a
        single column of zeros), a 1-D array (one word per item), or a 2-D
        ``(n, payload_words)`` array.  Returns the number of items queued.
        """
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        n = len(dsts)
        if n == 0:
            return 0
        if dsts.min() < 0 or dsts.max() >= self.group.n_pes:
            raise ValueError("destination PE out of range in batch push")
        rows = np.empty((n, self.width), dtype=np.int64)
        rows[:, COL_DST] = dsts
        rows[:, COL_SRC] = self.me
        if payloads is None:
            rows[:, HEADER_WORDS:] = 0
        else:
            payloads = np.asarray(payloads, dtype=np.int64)
            if payloads.ndim == 1:
                payloads = payloads[:, None]
            if payloads.shape != (n, self.group.config.payload_words):
                raise ValueError(
                    f"payload block shape {payloads.shape} != "
                    f"({n}, {self.group.config.payload_words})"
                )
            rows[:, HEADER_WORDS:] = payloads
        if self.group.config.self_send_bypass:
            mask = dsts == self.me
            if mask.any():
                self.ready.put(rows[mask])
                rows = rows[~mask]
        self._route_rows(rows)
        cost = self.perf.cost
        self.perf.work(ins=cost.push_ins * n, loads=4 * n, stores=4 * n,
                       branches=2 * n)
        self.group.add_live(n)
        self.stats.pushes += n
        return n

    # ------------------------------------------------------------------
    # pull side
    # ------------------------------------------------------------------

    def pull(self):
        """Return ``(source_pe, payload)`` or None when nothing is ready.

        ``payload`` is an int when the conveyor carries one word, else a
        tuple of ints.
        """
        row = self.ready.pop()
        if row is None:
            return None
        self.perf.work(ins=self.perf.cost.pull_item_ins, loads=3, stores=1, branches=1)
        self.stats.pulls += 1
        self.group.drop_live(1)
        src = int(row[COL_SRC])
        if self.width - HEADER_WORDS == 1:
            return src, int(row[HEADER_WORDS])
        return src, tuple(int(x) for x in row[HEADER_WORDS:])

    def pull_segments(self) -> list[np.ndarray]:
        """Batch pull: every ready item as raw rows (header + payload).

        Charges the same per-item cost as scalar pulls and updates the
        same statistics, so the two paths are interchangeable.
        """
        total = len(self.ready)
        segs = self.ready.take_all()
        if total:
            cost = self.perf.cost
            self.perf.work(
                ins=cost.pull_item_ins * total,
                loads=3 * total,
                stores=total,
                branches=total,
            )
            self.stats.pulls += total
            self.group.drop_live(total)
        return segs

    @property
    def ready_count(self) -> int:
        """Items deliverable by :meth:`pull` right now."""
        return len(self.ready)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------

    def advance(self, done: bool = False) -> bool:
        """Make progress; returns False once the conveyor is complete.

        ``done=True`` (sticky) signals this endpoint will push no more.
        """
        if done and not self.done_requested:
            self.done_requested = True
            self.group.mark_done(self.me)
        self.perf.work(ins=self.perf.cost.advance_poll_ins, loads=6, branches=4)
        self._ingest_visible()
        self._flush(partial=self.done_requested)
        if self.done_requested:
            self._endgame_progress()
        return not self.group._quiescent

    def is_complete(self) -> bool:
        """True when the whole conveyor group is quiescent."""
        return self.group._quiescent

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _buffer_for(self, hop: int) -> OutBuffer:
        buf = self.out.get(hop)
        if buf is None:
            buf = OutBuffer(hop, self.group.config.buffer_items, self.width)
            self.out[hop] = buf
        return buf

    def _hop_lookup(self) -> np.ndarray:
        if self._hop_map is None:
            self._hop_map = self.group.topology.hop_row(self.me)
        return self._hop_map

    def _route_rows(self, rows: np.ndarray) -> None:
        """Place item rows into per-hop buffers, flushing full ones.

        Hop groups are processed in ascending hop order with the rows
        inside a group in their original relative order (a stable sort).
        """
        n = len(rows)
        if n == 0:
            return
        hops = self._hop_lookup()[rows[:, COL_DST]]
        hop_list = hops.tolist()
        first = hop_list[0]
        if hop_list.count(first) == n:
            # one next hop, the usual forwarded block: nothing to sort
            self._append_block(first, rows)
            return
        order = hops.argsort(kind="stable")
        rows = rows.take(order, axis=0)
        hop_list = hops[order].tolist()
        start = 0
        while start < n:
            hop = hop_list[start]
            end = bisect_right(hop_list, hop, start)
            self._append_block(hop, rows[start:end])
            start = end

    def _append_block(self, hop: int, block: np.ndarray) -> None:
        """Append one same-hop row block to its buffer, flushing when full."""
        buf = self._buffer_for(hop)
        n = len(block)
        off = 0
        while off < n:
            take = min(buf.capacity - buf.count, n - off)
            buf.append_rows(block[off : off + take])
            self._queued.add(hop)
            off += take
            if buf.count == buf.capacity:
                self._flush_buffer(hop, buf)

    def _deliver(self, buf: InboundBuffer) -> None:
        """Land an in-flight buffer at this endpoint (called by the sender)."""
        self.inbound.append(buf)
        if self._min_arrival is None or buf.arrival < self._min_arrival:
            self._min_arrival = buf.arrival
        self.inbox_wake.notify()

    def _ingest_visible(self) -> None:
        """Consume arrived buffers: deliver local items, forward the rest."""
        now = self.perf.clock.now
        ma = self._min_arrival
        if ma is None or ma > now:
            return  # nothing in flight, or nothing visible yet: O(1) probe
        # one pass splits the in-flight buffers and finds the next arrival
        visible = []
        pending = []
        next_arrival = None
        for buf in self.inbound:
            arrival = buf.arrival
            if arrival <= now:
                visible.append(buf)
            else:
                pending.append(buf)
                if next_arrival is None or arrival < next_arrival:
                    next_arrival = arrival
        self.inbound = pending
        self._min_arrival = next_arrival
        me = self.me
        forward_total = 0
        for buf in visible:
            if buf.duplicate:
                # Injected duplicate delivery: detected (think sequence
                # numbers) and discarded, preserving exactly-once pulls.
                self.stats.dups_discarded += 1
                self.perf.work(ins=8, loads=2, branches=2)
                continue
            rows = buf.data
            dsts = rows[:, COL_DST]
            n_mine = dsts.tolist().count(me)
            # the buffer's rows belong to this delivery alone, so a
            # buffer that is all mine or all in transit moves uncopied
            if n_mine == len(rows):
                self.ready.put(rows)
                continue
            if n_mine:
                mask = dsts == me
                self.ready.put(rows.compress(mask, axis=0))
                rows = rows.compress(~mask, axis=0)
            forward_total += len(rows)
            self._route_rows(rows)
        if forward_total:
            self.stats.forwarded += forward_total
            cost = self.perf.cost
            self.perf.work(
                ins=cost.route_item_ins * forward_total,
                loads=2 * forward_total,
                stores=forward_total,
                branches=forward_total,
            )

    def _flush(self, partial: bool) -> None:
        # A queued hop qualifies when its buffer is full or, once partial
        # flushing is on, at all.  Candidates go ascending — the order the
        # flush_order policy expects.
        queued = self._queued
        if not queued:
            return
        out = self.out
        if partial:
            hops = sorted(queued)
        else:
            hops = sorted(h for h in queued if out[h].full)
            if not hops:
                return
        if len(hops) > 1:
            hops = self.group.policy.flush_order(self.me, hops)
        for hop in hops:
            self._flush_buffer(hop, out[hop])

    def _flush_buffer(self, hop: int, buf: OutBuffer) -> None:
        rows = buf.take()
        self._queued.discard(hop)
        count = len(rows)
        if count == 0:
            return
        nbytes = self.group.config.wire_bytes(count)
        ppn = self.group.runtime.spec.pes_per_node
        duplicated = False
        if self.me // ppn == hop // ppn:  # same node (both ranks are valid)
            # Intra-node delivery is a memcpy through shared memory;
            # injected network faults do not apply to it.
            kind = "local_send"
            self.ctx.local_memcpy(nbytes)
            arrival = self.perf.clock.now
        else:
            kind = "nonblock_send"
            if self.outstanding.get(hop, 0) >= self.group.config.slots:
                self._progress(hop)
            arrival, duplicated = self._put_with_faults(hop, nbytes)
            self.outstanding[hop] = self.outstanding.get(hop, 0) + 1
        # Exactly one trace record / stats entry per successful wire
        # transfer: retries and duplicates are accounted separately.
        self.group.tracer.record(kind, nbytes, self.me, hop, self.perf.clock.now)
        if self._transfer_sink is not None:
            self._transfer_sink(
                kind, nbytes, self.me, hop, self.perf.clock.now, arrival
            )
        self.stats.note_send(kind, nbytes)
        endpoint = self.group.endpoints[hop]
        endpoint._deliver(
            InboundBuffer(arrival=arrival, hop_src=self.me, kind=kind, data=rows)
        )
        if duplicated:
            endpoint._deliver(
                InboundBuffer(
                    arrival=arrival, hop_src=self.me, kind=kind, data=rows,
                    duplicate=True,
                )
            )

    def _put_with_faults(self, hop: int, nbytes: int) -> tuple[int, bool]:
        """Issue the non-blocking put for one buffer, absorbing faults.

        Dropped puts are retried with exponential backoff up to the
        plan's ``max_retries``; a lost put leaves no pending completion
        (the packet is gone, so it cannot extend a later ``quiet``) and
        no trace record.  Returns ``(arrival, duplicated)``.
        """
        faults = self.group.faults
        if faults is None:
            return self.ctx.putmem_nbi_raw(hop, nbytes), False
        plan = faults.plan
        attempt = 0
        while True:
            outcome = faults.send_outcome(self.me, hop, self.perf.clock.now)
            if outcome.action != "drop":
                arrival = self.ctx.putmem_nbi_raw(hop, nbytes)
                if outcome.extra_delay:
                    self.stats.delayed += 1
                    arrival += outcome.extra_delay
                if outcome.action == "duplicate":
                    self.stats.duplicates += 1
                return arrival, outcome.action == "duplicate"
            # The put was issued and lost in the network: charge the
            # issue-side work, back off, retry.
            self.stats.retries += 1
            self.perf.work(ins=30, loads=6, stores=6, branches=2)
            if attempt >= plan.max_retries:
                raise FaultError(
                    f"PE {self.me}: buffer put to PE {hop} dropped "
                    f"{attempt + 1} times (injected fault); retry budget "
                    f"of {plan.max_retries} exhausted"
                )
            if plan.backoff_cycles:
                self.perf.stall(plan.backoff_cycles << attempt)
            attempt += 1

    def _progress(self, dst: int) -> None:
        """nonblock_progress: quiet (completes ALL puts) + signal ``dst``."""
        self.ctx.quiet()
        self.ctx.put_signal(dst)
        self.group.tracer.record(
            "nonblock_progress", 8, self.me, dst, self.perf.clock.now
        )
        self.stats.note_send("nonblock_progress", 8)
        self.stats.progress_calls += 1
        self.outstanding.clear()

    def _endgame_progress(self) -> None:
        """Final completion: once nothing remains buffered, ensure all
        outstanding puts are globally visible and signal their targets."""
        if not self.outstanding or self._queued:
            return  # nothing to complete, or items still buffered
        dests = sorted(d for d, c in self.outstanding.items() if c > 0)
        if not dests:
            return
        self.ctx.quiet()
        for d in dests:
            self.ctx.put_signal(d)
            self.group.tracer.record(
                "nonblock_progress", 8, self.me, d, self.perf.clock.now
            )
            self.stats.note_send("nonblock_progress", 8)
            self.stats.progress_calls += 1
        self.outstanding.clear()
