"""Reference conveyor routing: one row at a time (test-only).

The plain form of what :class:`~repro.conveyors.conveyor.Conveyor` does
with hop vectors, a stable sort and a set of queued hops:

* every row's next hop comes from ``topology.next_hop`` (a row already
  at its destination — a self-send — goes to the PE's own buffer);
* rows are grouped by next hop, groups in ascending hop order, rows in a
  group in their original relative order;
* each row is appended on its own, and a buffer is sent the moment it
  is full (and before the append, when a scalar ``push`` left it full);
* a flush walks every buffer in ascending hop order and takes the full
  ones, or every non-empty one once the endpoint is done; the candidates
  reach the ``flush_order`` policy ascending.

:class:`OracleConveyor` overrides only those steps; ingest, the wire
transfer and the endgame run underneath unchanged.  The differential
tests (``test_conveyor_oracle.py``) replay random push / advance
sequences through both and require identical wire records and pull order.
"""

from __future__ import annotations

from repro.conveyors.buffers import COL_DST
from repro.conveyors.conveyor import Conveyor


class OracleConveyor(Conveyor):
    """``Conveyor`` with per-row routing and a full-buffer flush scan."""

    def _route_rows(self, rows) -> None:
        topology = self.group.topology
        groups: dict[int, list] = {}
        for row in rows:
            dst = int(row[COL_DST])
            hop = self.me if dst == self.me else topology.next_hop(self.me, dst)
            groups.setdefault(hop, []).append(row)
        for hop in sorted(groups):
            for row in groups[hop]:
                buf = self._buffer_for(hop)
                if buf.full:  # left full by a scalar push
                    self._flush_buffer(hop, buf)
                buf.append_rows(row[None, :])
                if buf.full:
                    self._flush_buffer(hop, buf)

    def _flush(self, partial: bool) -> None:
        hops = [hop for hop, buf in sorted(self.out.items())
                if buf.full or (partial and not buf.empty)]
        if len(hops) > 1:
            hops = list(self.group.policy.flush_order(self.me, hops))
        for hop in hops:
            self._flush_buffer(hop, self.out[hop])

    def _endgame_progress(self) -> None:
        # the production endgame asks its queued-hop set; rows routed
        # here never enter it, so ask the buffers themselves first
        if any(not buf.empty for buf in self.out.values()):
            return
        super()._endgame_progress()


def use_conveyor(monkeypatch, cls) -> None:
    """Make every ``ConveyorGroup`` built during the test use ``cls`` for
    its endpoints (``monkeypatch`` is pytest's fixture)."""
    monkeypatch.setattr("repro.conveyors.conveyor.Conveyor", cls)


# ----------------------------------------------------------------------
# drain-loop probes: what a hand-written drain loop blocks on (the
# runtime's selector reads ``inbound`` and ``_min_arrival`` directly)
# ----------------------------------------------------------------------

def has_visible_inbound(cv: Conveyor) -> bool:
    """True when a delivered buffer is visible at ``cv``'s current clock."""
    ma = cv._min_arrival
    return ma is not None and ma <= cv.perf.clock.now


def has_inbound(cv: Conveyor) -> bool:
    """True when any buffer is in flight to ``cv``'s PE (even future ones).

    Drain loops must block on *this* (not on visibility): a buffer may
    land with an arrival timestamp ahead of the receiver's clock, in
    which case the receiver needs to wake, observe the arrival time,
    and re-block with a timed wakeup.
    """
    return bool(cv.inbound)
