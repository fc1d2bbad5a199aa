"""Baseline profilers: what conventional tools see of an FA-BSP run.

Section V-B documents, tool by tool, why well-established profilers
(score-p, TAU, CrayPat, Intel VTune) cannot capture Conveyors traffic:
none of them record OpenSHMEM's *non-blocking* routines
(``shmem_putmem_nbi``), which carry essentially all aggregated payload —
and intra-node buffer movement is a plain ``std::memcpy`` through
``shmem_ptr``, invisible to any API-level interposition.

Two baselines quantify that argument against ActorProf's physical trace:

* :class:`ConventionalProfiler` — models the cited tools: observes the
  blocking OpenSHMEM API surface only (put/get/collectives/quiet), with
  non-blocking puts explicitly excluded, like TAU's
  ``exclude_list.openshmem``.
* :class:`PShmemProfiler` — models the paper's proposed fix ("We may
  create a wrapper function for non-blocking routines"): observes the
  full API including ``shmem_putmem_nbi`` — but still misses the
  ``shmem_ptr`` memcpy path, demonstrating why in-library instrumentation
  (ActorProf's actual design) remains necessary.

Both attach through the runtime's pshmem-style observer interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.shmem.runtime import ShmemCall, ShmemRuntime

#: The blocking OpenSHMEM surface conventional tools wrap.
CONVENTIONAL_VISIBLE_OPS = frozenset({
    "shmem_put",
    "shmem_get",
    "shmem_quiet",
    "shmem_fence",
    "shmem_barrier_all",
})

#: What a PSHMEM wrapper for non-blocking routines adds.
PSHMEM_EXTRA_OPS = frozenset({"shmem_putmem_nbi"})

#: Operations that move payload bytes between PEs (ground truth set).
DATA_MOVING_OPS = frozenset({"shmem_put", "shmem_get", "shmem_putmem_nbi", "memcpy"})


@dataclass
class APIProfile:
    """Per-operation call counts and byte totals seen by a baseline."""

    calls: dict[str, int] = field(default_factory=dict)
    bytes: dict[str, int] = field(default_factory=dict)

    def note(self, call: ShmemCall) -> None:
        self.calls[call.op] = self.calls.get(call.op, 0) + 1
        self.bytes[call.op] = self.bytes.get(call.op, 0) + call.nbytes

    def total_bytes(self) -> int:
        return sum(self.bytes.values())


class _ObserverProfiler:
    """Shared machinery: observe a filtered view of the SHMEM call stream."""

    visible_ops: frozenset[str] = frozenset()

    def __init__(self) -> None:
        self.profile = APIProfile()
        self.ground_truth = APIProfile()
        self._runtime: ShmemRuntime | None = None

    def attach(self, runtime: ShmemRuntime) -> None:
        """Start observing ``runtime``'s SHMEM calls."""
        if self._runtime is not None:
            raise RuntimeError("profiler already attached")
        self._runtime = runtime
        runtime.register_observer(self._observe)

    def _observe(self, call: ShmemCall) -> None:
        self.ground_truth.note(call)
        if call.op in self.visible_ops:
            self.profile.note(call)

    # ------------------------------------------------------------------

    def byte_coverage(self) -> float:
        """Fraction of actually-moved payload bytes this tool observed."""
        actual = sum(
            nbytes for op, nbytes in self.ground_truth.bytes.items()
            if op in DATA_MOVING_OPS
        )
        if actual == 0:
            return 1.0
        seen = sum(
            nbytes for op, nbytes in self.profile.bytes.items()
            if op in DATA_MOVING_OPS
        )
        return seen / actual

    def missed_ops(self) -> dict[str, int]:
        """Call counts of data-moving operations this tool never saw."""
        return {
            op: n for op, n in self.ground_truth.calls.items()
            if op in DATA_MOVING_OPS and op not in self.visible_ops and n > 0
        }


class ConventionalProfiler(_ObserverProfiler):
    """score-p / TAU / CrayPat / VTune model: no non-blocking routines."""

    visible_ops = CONVENTIONAL_VISIBLE_OPS


class PShmemProfiler(_ObserverProfiler):
    """The paper's proposed PSHMEM wrapper: non-blocking puts included."""

    visible_ops = CONVENTIONAL_VISIBLE_OPS | PSHMEM_EXTRA_OPS


def coverage_report(conv: ConventionalProfiler, pshmem: PShmemProfiler) -> str:
    """Side-by-side text report of what each baseline observed."""
    lines = ["== API-level profiler coverage (vs. all data movement) =="]
    for name, prof in (("conventional (score-p/TAU/CrayPat/VTune model)", conv),
                       ("PSHMEM wrapper (paper's proposed approach)", pshmem)):
        cov = prof.byte_coverage()
        missed = prof.missed_ops()
        lines.append(f"  {name}:")
        lines.append(f"    payload bytes observed: {cov:.1%}")
        if missed:
            detail = ", ".join(f"{op} x{n:,}" for op, n in sorted(missed.items()))
            lines.append(f"    invisible operations: {detail}")
    lines.append(
        "  conclusion: only in-library instrumentation (ActorProf's "
        "physical trace) sees the shmem_ptr memcpy path."
    )
    return "\n".join(lines)
