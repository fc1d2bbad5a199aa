"""Cycle and instruction cost tables for simulated operations.

Every simulated operation — constructing a message, copying a buffer,
issuing a non-blocking put, waiting at a barrier — charges cycles and
counter increments through the :class:`CostModel`.  The absolute values are
not calibrated to any specific silicon; what matters for reproducing the
paper's figures is the *relative* ordering (network ≫ memcpy ≫ ALU) and
that costs scale with work, so per-PE imbalance in messages turns into the
imbalance in instructions (Figs. 10–11) and cycles (Figs. 12–13) the paper
observes.

Defaults are loosely modelled on a ~2 GHz EPYC-class core with an
HDR-class interconnect: ~1 IPC scalar code, ~1 cycle/byte streaming
memcpy within a node (cache-cold), and a few-microsecond (thousands of cycles) one-way
network latency with ~1 cycle/byte effective inter-node bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Cost table used by every simulated layer.

    All "*_ins" fields are instruction counts (converted to cycles via
    :attr:`cpi`); all "*_cycles" fields are cycles directly.
    """

    # --- core execution -------------------------------------------------
    cpi: float = 1.0
    """Average cycles per retired instruction for scalar code."""

    load_fraction_penalty: float = 0.0
    """Extra cycles charged per load beyond the CPI (0 = folded into CPI)."""

    # --- FA-BSP runtime work --------------------------------------------
    send_construct_ins: int = 8
    """Instructions to build one message and append it to a mailbox (MAIN).

    MAIN-side work is a tight construct-and-hand-off loop; the paper
    measures it at ≤5% of total time, so it must stay far cheaper than
    the aggregation machinery below."""

    send_construct_loads: int = 2
    send_construct_stores: int = 3

    handler_dispatch_ins: int = 30
    """Per-message dispatch overhead invoking a process() handler (PROC).

    Handler dispatch goes through a guarded-mailbox indirection (lambda /
    function pointer, argument unpacking) — substantially heavier than
    constructing a message."""

    handler_dispatch_loads: int = 6
    handler_dispatch_stores: int = 2

    push_ins: int = 30
    """Conveyor-internal instructions per successful push (COMM):
    destination decode, buffer lookup, bounds checks, item packing."""

    push_retry_ins: int = 10
    """Instructions burned on a failed (buffer-full) conveyor push (COMM)."""

    pull_item_ins: int = 35
    """Conveyor-side instructions to locate and unpack one pulled item
    (COMM): ring-buffer bookkeeping plus the copy out to the caller."""

    advance_poll_ins: int = 50
    """Instructions for one conveyor advance poll with nothing to do."""

    route_item_ins: int = 20
    """Instructions to examine and re-route one multi-hop item."""

    # --- memory ----------------------------------------------------------
    memcpy_base_cycles: int = 200
    """Fixed cost of one memcpy call (setup, call overhead, shmem_ptr)."""

    memcpy_cycles_per_byte: float = 1.0
    """Streaming copy throughput within a node (cache-cold buffers)."""

    cache_line_bytes: int = 64

    l1_miss_rate: float = 0.02
    """Synthetic fraction of loads that miss L1 (feeds PAPI_L1_DCM)."""

    l2_miss_rate: float = 0.004
    """Synthetic fraction of loads that miss L2 (feeds PAPI_L2_DCM)."""

    branch_misp_rate: float = 0.01
    """Synthetic fraction of branches mispredicted (feeds PAPI_BR_MSP)."""

    # --- network ----------------------------------------------------------
    net_latency_cycles: int = 4000
    """One-way inter-node latency (cycles)."""

    net_cycles_per_byte: float = 1.0
    """Effective inter-node cost per byte (inverse bandwidth)."""

    put_issue_cycles: int = 300
    """Sender-side cost of issuing shmem_putmem_nbi (descriptor, doorbell)."""

    signal_put_cycles: int = 500
    """Cost of the small signalling shmem_put used by nonblock_progress."""

    quiet_base_cycles: int = 1200
    """Fixed cost of shmem_quiet independent of outstanding puts."""

    # --- synchronization --------------------------------------------------
    barrier_cycles: int = 2500
    """Cost of shmem_barrier_all once all PEs have arrived."""

    collective_base_cycles: int = 3000
    """Base cost of a small collective (allreduce/broadcast)."""

    collective_cycles_per_pe: int = 120
    """Per-participant scaling of collective cost (~log tree flattened)."""

    def memcpy_cycles(self, nbytes: int) -> int:
        """Cycles for an intra-node memcpy of ``nbytes``."""
        return self.memcpy_base_cycles + int(round(nbytes * self.memcpy_cycles_per_byte))

    def net_transfer_cycles(self, nbytes: int) -> int:
        """Cycles from nbi-put issue to remote visibility of ``nbytes``."""
        return self.net_latency_cycles + int(round(nbytes * self.net_cycles_per_byte))

    def collective_cycles(self, n_pes: int) -> int:
        """Cycles for a small collective across ``n_pes`` participants."""
        return self.collective_base_cycles + self.collective_cycles_per_pe * n_pes

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced (for ablations)."""
        return replace(self, **overrides)
