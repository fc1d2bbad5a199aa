""":mod:`repro.check` — ActorCheck, the determinism & conservation auditor.

ActorProf's traces are only trustworthy if a profiled run is a faithful,
reproducible record: reruns must be bit-stable and every logical send must
be conserved through the physical conveyor layer.  ActorCheck audits both
claims by re-executing a workload under K systematically perturbed — but
*legal* — schedules (scheduler tie-break permutation, conveyor flush-order
jitter, buffer-size sweeps, via the :class:`~repro.sim.scheduler
.SchedulePolicy` seam) and diffing the resulting traces, classifying every
divergence as benign reordering or a confirmed nondeterminism bug.

* :mod:`~repro.check.policies` — the perturbed-schedule plans and seeded
  jitter policies,
* :mod:`~repro.check.invariants` — the trace-invariant engine (send
  conservation, the T_TOTAL = T_MAIN + T_COMM + T_PROC identity, monotone
  clocks, archive/CSV equivalence),
* :mod:`~repro.check.workloads` — auditable workloads: the two case
  studies plus a generative random actor-program builder,
* :mod:`~repro.check.auditor` — the differential audit loop and the
  machine-readable :class:`~repro.check.auditor.CheckReport`,
* :mod:`~repro.check.parallel` — the per-schedule run recorder, the one
  :mod:`repro.exec` worker every audit runs through, inline or pooled,
  so ``--jobs N`` verdicts are byte-identical to ``--jobs 1``.

CLI: ``actorprof check <workload> --schedules K [--jobs N]`` (exit 0 =
deterministic, 4 = confirmed nondeterminism, 5 = invariant violation,
6 = a run failed or its worker died).
"""

from repro.check.auditor import CheckReport, Divergence, audit
from repro.check.invariants import Violation, run_invariants
from repro.check.policies import (
    JitterPolicy,
    PerturbedSchedule,
    make_schedules,
)
from repro.check.workloads import (
    GeneratedWorkload,
    HistogramWorkload,
    ProgramSpec,
    RunArtifacts,
    TriangleWorkload,
    Workload,
    generate_spec,
    workload_from_descriptor,
)

__all__ = [
    "CheckReport",
    "Divergence",
    "GeneratedWorkload",
    "HistogramWorkload",
    "JitterPolicy",
    "PerturbedSchedule",
    "ProgramSpec",
    "RunArtifacts",
    "TriangleWorkload",
    "Violation",
    "Workload",
    "audit",
    "generate_spec",
    "make_schedules",
    "run_invariants",
    "workload_from_descriptor",
]
