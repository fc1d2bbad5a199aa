"""Actors and Selectors (HClib-Actor's messaging classes).

A :class:`Selector` is an actor with multiple guarded mailboxes; an
:class:`Actor` is a selector with exactly one.  Each PE constructs its own
instance symmetrically (SPMD), and the instances are stitched together by
one Conveyor group per mailbox.

Key runtime behaviours reproduced from HClib-Actor:

* ``send`` is asynchronous and non-blocking from the application's view;
  when the aggregation buffer is full the runtime transparently advances
  the conveyor — *processing incoming messages in the meantime*, which is
  the fine-grained interleaving of Figure 1.
* Message handlers run one at a time on the owning PE — no atomics needed
  in handler bodies (Listing 2).
* ``done(mb)`` tells the runtime this PE will send no more messages to
  that mailbox; the enclosing ``finish`` then drains until every message
  everywhere has been handled.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.conveyors.buffers import COL_SRC, HEADER_WORDS
from repro.conveyors.conveyor import Conveyor
from repro.sim.errors import SimulationError


class Mailbox:
    """One guarded mailbox of a selector (on one PE).

    Assign :attr:`process` (scalar handler, ``f(payload, sender_rank)``)
    and/or :attr:`process_batch` (vectorized handler,
    ``f(payloads: ndarray, senders: ndarray)``) before messages arrive.
    When both are set the batch handler is preferred.

    :attr:`guard` implements the *guarded* in "guarded mailbox" (Imam &
    Sarkar's Selector model): a zero-argument predicate evaluated before
    draining — while it returns False, delivered messages stay queued and
    no handler runs.  Guards typically depend on local state mutated by
    other mailboxes' handlers; they are re-evaluated on every progress
    round, so enabling state flips take effect immediately.
    """

    __slots__ = ("selector", "index", "conveyor", "process", "process_batch",
                 "done_called", "guard")

    def __init__(self, selector: "Selector", index: int, conveyor: Conveyor) -> None:
        self.selector = selector
        self.index = index
        self.conveyor = conveyor
        self.process: Callable | None = None
        self.process_batch: Callable | None = None
        self.done_called = False
        self.guard: Callable[[], bool] | None = None

    def enabled(self) -> bool:
        """True when this mailbox may currently run handlers."""
        return self.guard is None or bool(self.guard())


class Selector:
    """PGAS-inspired actor with ``n`` mailboxes (paper Listing 2).

    Parameters
    ----------
    ctx:
        The PE's :class:`~repro.hclib.world.PEContext`.
    mailboxes:
        Number of mailboxes.
    payload_words:
        int64 words per message payload; an int (same for every mailbox)
        or a sequence of per-mailbox widths.
    conveyor_config:
        Overrides the world's default conveyor configuration.
    """

    def __init__(
        self,
        ctx,
        mailboxes: int = 1,
        payload_words: int | Sequence[int] = 1,
        conveyor_config=None,
    ) -> None:
        if mailboxes < 1:
            raise ValueError("selector needs at least one mailbox")
        if isinstance(payload_words, int):
            widths = [payload_words] * mailboxes
        else:
            widths = list(payload_words)
            if len(widths) != mailboxes:
                raise ValueError(
                    f"payload_words has {len(widths)} entries for {mailboxes} mailboxes"
                )
        self.ctx = ctx
        slot = ctx.world._selector_slot(ctx.rank, mailboxes, widths, conveyor_config)
        self.mb: list[Mailbox] = [
            Mailbox(self, i, slot.groups[i].endpoints[ctx.rank]) for i in range(mailboxes)
        ]
        self._started = False
        self._in_progress = False
        self._in_handler = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Activate the selector within the current finish scope."""
        if self._started:
            raise SimulationError("selector started twice")
        scope = self.ctx._current_finish()
        if scope is None:
            raise SimulationError("selector.start() must be called inside a finish scope")
        scope._register(self)
        self._started = True

    def send(self, mb_id: int, payload, dst: int) -> None:
        """Asynchronously send ``payload`` to ``dst``'s mailbox ``mb_id``.

        Never blocks the application logically; may internally advance the
        conveyor (flushing buffers and handling incoming messages).
        """
        self._check_active(mb_id)
        ctx = self.ctx
        cost = ctx.perf.cost
        # Message construction is MAIN work (Table I).
        ctx.perf.work(
            ins=cost.send_construct_ins,
            loads=cost.send_construct_loads,
            stores=cost.send_construct_stores,
            branches=2,
        )
        mb = self.mb[mb_id]
        nbytes = mb.conveyor.group.config.payload_bytes
        ctx.world.hooks.send(ctx.rank, mb_id, dst, nbytes)
        with ctx._runtime_section():
            while not mb.conveyor.push(payload, dst):
                self._progress()

    def send_batch(self, mb_id: int, dsts: np.ndarray, payloads: np.ndarray | None = None) -> None:
        """Vectorized :meth:`send` for large fan-outs.

        Semantically equivalent to ``for d, p in zip(dsts, payloads):
        send(mb_id, p, d)`` — identical per-message MAIN cost, logical
        trace counts and aggregation behaviour — but pushes through numpy.
        Incoming messages are handled between chunks, preserving the
        FA-BSP interleaving at chunk granularity.
        """
        self._check_active(mb_id)
        ctx = self.ctx
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        n = len(dsts)
        if n == 0:
            return
        cost = ctx.perf.cost
        ctx.perf.work(
            ins=cost.send_construct_ins * n,
            loads=cost.send_construct_loads * n,
            stores=cost.send_construct_stores * n,
            branches=2 * n,
        )
        mb = self.mb[mb_id]
        nbytes = mb.conveyor.group.config.payload_bytes
        ctx.world.hooks.send_batch(ctx.rank, mb_id, dsts, nbytes)
        chunk = max(1024, mb.conveyor.group.config.buffer_items * 4)
        with ctx._runtime_section():
            if payloads is not None:
                payloads = np.asarray(payloads, dtype=np.int64)
            for off in range(0, n, chunk):
                block_d = dsts[off : off + chunk]
                block_p = None if payloads is None else payloads[off : off + chunk]
                mb.conveyor.push_many(block_d, block_p)
                self._progress()

    def done(self, mb_id: int) -> None:
        """Signal that this PE will send no more messages to ``mb_id``."""
        self._check_active(mb_id)
        mb = self.mb[mb_id]
        if mb.done_called:
            raise SimulationError(f"done() called twice on mailbox {mb_id}")
        mb.done_called = True
        with self.ctx._runtime_section():
            mb.conveyor.advance(done=True)
            self._progress()

    def is_complete(self) -> bool:
        """True when every mailbox's conveyor is globally quiescent."""
        return all(mb.conveyor.is_complete() for mb in self.mb)

    # ------------------------------------------------------------------
    # runtime internals (called by send/done and the finish drain loop)
    # ------------------------------------------------------------------

    def _check_active(self, mb_id: int) -> None:
        if not self._started:
            raise SimulationError("selector used before start()")
        if not 0 <= mb_id < len(self.mb):
            raise ValueError(f"mailbox {mb_id} out of range [0, {len(self.mb)})")
        if self.mb[mb_id].done_called and not self._in_handler:
            # done() only promises no further *application* (MAIN) sends;
            # message handlers may keep sending during the drain (actor
            # chains), and the finish terminates once those settle too.
            raise SimulationError(f"mailbox {mb_id} used after done()")

    def _progress(self) -> int:
        """Advance all mailboxes and run handlers; returns items handled.

        Re-entrant calls (a handler whose own ``send`` hits a full buffer)
        only advance the conveyors — handlers are never nested, preserving
        the one-message-at-a-time guarantee.
        """
        self._cascade_done()
        if self._in_progress:
            for mb in self.mb:
                mb.conveyor.advance(done=mb.done_called)
            return 0
        self._in_progress = True
        try:
            handled = 0
            for mb in self.mb:
                mb.conveyor.advance(done=mb.done_called)
                handled += self._drain_mailbox(mb)
            return handled
        finally:
            self._in_progress = False

    def _cascade_done(self) -> None:
        """Chained mailbox termination (bale_actor semantics).

        When mailbox ``i``'s conveyor completes, mailbox ``i+1`` is marked
        done automatically, so request/response selectors only need an
        explicit ``done`` on the entry mailbox: responses can flow from
        handlers until no request can ever arrive again.
        """
        for i in range(len(self.mb) - 1):
            nxt = self.mb[i + 1]
            if (
                self.mb[i].done_called
                and not nxt.done_called
                and self.mb[i].conveyor.is_complete()
            ):
                nxt.done_called = True
                nxt.conveyor.advance(done=True)

    def _drain_mailbox(self, mb: Mailbox) -> int:
        cv = mb.conveyor
        total = cv.ready_count
        if total == 0 or not mb.enabled():
            return 0
        ctx = self.ctx
        hooks = ctx.world.hooks
        cost = ctx.perf.cost
        if mb.process_batch is not None:
            segments = cv.pull_segments()
            hooks.proc_enter(ctx.rank, mb.index)
            ctx.perf.work(
                ins=cost.handler_dispatch_ins * total,
                loads=cost.handler_dispatch_loads * total,
                stores=cost.handler_dispatch_stores * total,
                branches=total,
            )
            self._in_handler = True
            try:
                for seg in segments:
                    mb.process_batch(seg[:, HEADER_WORDS:], seg[:, COL_SRC])
            finally:
                self._in_handler = False
            hooks.proc_exit(ctx.rank, mb.index, total)
            return total
        if mb.process is None:
            raise SimulationError(
                f"mailbox {mb.index} received messages but has no process handler"
            )
        handled = 0
        while (item := cv.pull()) is not None:
            src, payload = item
            hooks.proc_enter(ctx.rank, mb.index)
            ctx.perf.work(
                ins=cost.handler_dispatch_ins,
                loads=cost.handler_dispatch_loads,
                stores=cost.handler_dispatch_stores,
                branches=1,
            )
            self._in_handler = True
            try:
                mb.process(payload, src)
            finally:
                self._in_handler = False
            hooks.proc_exit(ctx.rank, mb.index, 1)
            handled += 1
        return handled

    # drain-loop helpers --------------------------------------------------

    def _cascade_pending(self) -> bool:
        """True when a chained done is ready to fire (progress needed)."""
        return any(
            self.mb[i].done_called
            and not self.mb[i + 1].done_called
            and self.mb[i].conveyor.is_complete()
            for i in range(len(self.mb) - 1)
        )


class Actor(Selector):
    """A selector with a single mailbox (paper Listing 1's ``MyActor``).

    ``send``/``done`` drop the mailbox argument.  Assign
    ``self.mb[0].process`` in your subclass constructor, or override
    :meth:`process` — the base constructor wires it automatically.
    """

    def __init__(self, ctx, payload_words: int = 1, conveyor_config=None) -> None:
        super().__init__(ctx, mailboxes=1, payload_words=payload_words, conveyor_config=conveyor_config)
        if type(self).process is not Actor.process:
            self.mb[0].process = self.process
        if type(self).process_batch is not Actor.process_batch:
            self.mb[0].process_batch = self.process_batch

    def process(self, payload, sender_rank: int) -> None:
        """Override with the message handler (Listing 2's ``process``)."""
        raise NotImplementedError

    def process_batch(self, payloads: np.ndarray, senders: np.ndarray) -> None:
        """Optionally override with a vectorized handler."""
        raise NotImplementedError

    def send(self, payload, dst: int) -> None:  # type: ignore[override]
        super().send(0, payload, dst)

    def send_batch(self, dsts: np.ndarray, payloads: np.ndarray | None = None) -> None:  # type: ignore[override]
        super().send_batch(0, dsts, payloads)

    def done(self) -> None:  # type: ignore[override]
        super().done(0)
