"""exstack: the bulk-synchronous aggregation predecessor of Conveyors.

The paper's Section II-B recounts how Conveyors overcame the bottlenecks
of earlier aggregation libraries, naming exstack's **global
synchronization problem**: exstack exchanges buffers at *collective*
points — every PE must call ``exchange`` together, and everyone waits for
the slowest — whereas Conveyors sends asynchronously whenever a buffer
fills.  This module implements exstack so that difference can be measured
(``benchmarks/test_ablation_exstack.py``).

API shape follows bale's exstack:

* ``push(payload, dst)`` — False when the buffer toward ``dst`` is full;
  the caller must reach the next collective ``exchange``.
* ``await exchange(done)`` — **collective**: swaps every PE's outgoing buffers
  (an alltoallv), after which ``pull`` drains the received items.
  Returns False once every PE has signalled done and nothing moved.
* ``pull()`` — next ``(source_pe, payload)`` or None.

Timing: the exchange is a rendezvous — all clocks advance to the latest
arrival plus collective cost, then each PE pays per-byte copy/transfer
costs for its inbound traffic.  That rendezvous is precisely where the
global synchronization problem lives: one slow sender stalls all PEs.
"""

from __future__ import annotations

import numpy as np

from repro.shmem.runtime import ShmemRuntime
from repro.sim.errors import SimulationError


class ExstackGroup:
    """Collective exstack state across all PEs."""

    def __init__(self, runtime: ShmemRuntime, payload_words: int = 1,
                 buffer_items: int = 64) -> None:
        if payload_words < 1:
            raise ValueError("payload_words must be >= 1")
        if buffer_items < 1:
            raise ValueError("buffer_items must be >= 1")
        self.runtime = runtime
        self.payload_words = payload_words
        self.buffer_items = buffer_items
        self.endpoints = [Exstack(self, pe) for pe in range(runtime.spec.n_pes)]

    @property
    def n_pes(self) -> int:
        return self.runtime.spec.n_pes

    @property
    def item_bytes(self) -> int:
        return 8 * (self.payload_words + 1)  # payload + source tag


class Exstack:
    """One PE's exstack endpoint."""

    def __init__(self, group: ExstackGroup, me: int) -> None:
        self.group = group
        self.me = me
        self.ctx = group.runtime.contexts[me]
        self.perf = group.runtime.perf[me]
        # out[dst] = list of payload tuples
        self.out: list[list[tuple]] = [[] for _ in range(group.n_pes)]
        self.inbox: list[tuple[int, tuple]] = []
        self._cursor = 0
        self.done_requested = False
        self.exchanges = 0
        self.pushes = 0
        self.pulls = 0

    # ------------------------------------------------------------------

    def push(self, payload, dst: int) -> bool:
        """Queue one item toward ``dst``; False when that buffer is full."""
        if not 0 <= dst < self.group.n_pes:
            raise ValueError(f"destination {dst} out of range")
        if isinstance(payload, (int, np.integer)):
            payload = (int(payload),)
        if len(payload) != self.group.payload_words:
            raise ValueError(
                f"payload has {len(payload)} words, expected "
                f"{self.group.payload_words}"
            )
        buf = self.out[dst]
        if len(buf) >= self.group.buffer_items:
            self.perf.work(ins=8, loads=2, branches=1)
            return False
        buf.append(tuple(payload))
        self.perf.work(ins=self.perf.cost.push_ins, loads=3, stores=3)
        self.pushes += 1
        return True

    async def exchange(self, done: bool = False) -> bool:
        """Collective buffer swap; False when the whole group is finished.

        Every PE must call this the same number of times (it is a
        synchronizing collective, like bale's ``exstack_proceed``).
        """
        if done:
            self.done_requested = True
        self.exchanges += 1
        ctx = self.ctx
        # contribute my outgoing buffers; the combiner routes everything
        contribution = {
            "done": self.done_requested,
            "out": [list(buf) for buf in self.out],
            "src": self.me,
        }
        for buf in self.out:
            buf.clear()

        def combine(arrived: dict[int, dict]) -> dict:
            moved = 0
            delivered: dict[int, list[tuple[int, tuple]]] = {
                pe: [] for pe in arrived
            }
            for src in sorted(arrived):
                for dst, items in enumerate(arrived[src]["out"]):
                    for item in items:
                        delivered[dst].append((src, item))
                        moved += 1
            all_done = all(a["done"] for a in arrived.values())
            return {"delivered": delivered, "moved": moved, "all_done": all_done}

        # The dense-alltoall cost that Conveyors was built to avoid: every
        # exchange touches ALL P peer buffers — issue/poll per peer, every
        # round, however empty.  This O(P)-per-round term is exstack's
        # scaling problem (paper §II-B).
        n_pes = self.group.n_pes
        ctx.perf.work(
            ins=40 + 20 * n_pes,
            loads=8 + 4 * n_pes,
            stores=8 + 2 * n_pes,
            extra_cycles=n_pes * self.perf.cost.put_issue_cycles,
        )
        result = await self.group.runtime.rendezvous(
            self.me, "exstack_exchange", contribution, combine
        )
        mine = result["delivered"][self.me]
        # pay for receiving my inbound bytes
        if mine:
            per_src: dict[int, int] = {}
            for src, _item in mine:
                per_src[src] = per_src.get(src, 0) + 1
            for src, n in per_src.items():
                nbytes = n * self.group.item_bytes
                cycles = self.group.runtime.network.transfer_cycles(
                    src, self.me, nbytes
                )
                self.perf.work(ins=5 * n, loads=2 * n, stores=2 * n,
                               extra_cycles=cycles)
        self.inbox = mine
        self._cursor = 0
        # finished when everyone signalled done and this round moved nothing
        return not (result["all_done"] and result["moved"] == 0)

    def pull(self):
        """Next received ``(source_pe, payload)`` or None this round."""
        if self._cursor >= len(self.inbox):
            return None
        src, payload = self.inbox[self._cursor]
        self._cursor += 1
        self.perf.work(ins=self.perf.cost.pull_item_ins, loads=3, stores=1)
        self.pulls += 1
        if len(payload) == 1:
            return src, payload[0]
        return src, payload
