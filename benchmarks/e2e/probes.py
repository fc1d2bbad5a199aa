"""A benchmark-owned observer for the runtime's public profiler seam.

``run_spmd(profiler=...)`` accepts anything with ``attach(world)``
returning ``(hooks, tracer)`` — the seam ActorProf itself uses.
:class:`HostSplitProbe` plugs in there and measures *host* time (never
simulated cycles) spent in user MAIN code and in message handlers, and
counts handler batches and Conveyors operations.  Subtracting MAIN and
PROC from the scheduler's wall leaves the runtime's own share
(scheduler + conveyors + shmem), which is what decides whether handler
work or hand-off owns ``sim_msgs_per_s`` on a workload.

The PE threads are serialised by the cooperative scheduler, so one set
of accumulators needs no lock.
"""

from __future__ import annotations

from time import perf_counter


class HostSplitProbe:
    def __init__(self) -> None:
        self.main_s = 0.0
        self.proc_s = 0.0
        self.proc_batches = 0
        self.sends = 0
        self.ops = {"local_send": 0, "nonblock_send": 0,
                    "nonblock_progress": 0}
        self._main_t0: dict[int, float] = {}
        self._proc_t0: dict[int, float] = {}

    def attach(self, world):
        return self, self

    # -- RuntimeHooks -----------------------------------------------------

    def finish_start(self, pe: int) -> None:
        pass

    def finish_end(self, pe: int) -> None:
        pass

    def main_enter(self, pe: int) -> None:
        self._main_t0[pe] = perf_counter()

    def main_exit(self, pe: int) -> None:
        self.main_s += perf_counter() - self._main_t0[pe]

    def proc_enter(self, pe: int, mailbox: int) -> None:
        self._proc_t0[pe] = perf_counter()

    def proc_exit(self, pe: int, mailbox: int, n_items: int) -> None:
        self.proc_s += perf_counter() - self._proc_t0[pe]
        self.proc_batches += 1

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:
        self.sends += 1

    def send_batch(self, pe: int, mailbox: int, dsts, nbytes: int) -> None:
        self.sends += len(dsts)

    # -- Conveyors TraceSink ----------------------------------------------

    def record(self, send_type: str, nbytes: int, src_pe: int, dst_pe: int,
               time: int) -> None:
        self.ops[send_type] += 1

    @property
    def buffer_ops(self) -> int:
        """Buffers moved (progress signals carry no messages)."""
        return self.ops["local_send"] + self.ops["nonblock_send"]
