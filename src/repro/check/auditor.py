"""The ActorCheck audit loop: differential execution over K schedules.

:func:`audit` re-executes one workload under every schedule from
:func:`~repro.check.policies.make_schedules`, replays the baseline (and
one jittered schedule) to prove per-seed bit-stability, runs the
invariant engine on every run, and classifies cross-schedule differences:

* **confirmed nondeterminism** — the application result or the logical
  send matrix changed between two legal schedules, a replay was not
  byte-identical, or an invariant broke.  The report names the two
  divergent schedules.
* **benign reordering** — only schedule-sensitive products changed
  (physical buffer traffic, region timings, PAPI sample values).  These
  are expected: the physical trace *documents* the schedule.

Every schedule's run is independent and replayable from ``(root_seed,
index)``, so the audit fans out over the :mod:`repro.exec` process pool
(``jobs > 1``) and merges results back in schedule order — the verdict
JSON is byte-identical at any job count.  A run whose worker raises or
*dies* becomes a per-run failure record (verdict ``run-failure``), never
a lost audit; a :class:`~repro.exec.ResultCache` skips runs whose
``(workload, seed, schedule)`` key was already audited.

The resulting :class:`CheckReport` is machine-readable (``to_dict`` /
``to_json``) and renders as text for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.invariants import Violation
from repro.check.policies import PerturbedSchedule, make_schedules
from repro.check.workloads import Workload
from repro.exec import ResultCache, RunSpec, execute, scratch


@dataclass(frozen=True)
class Divergence:
    """One confirmed nondeterminism finding."""

    kind: str                     # "replay" | "result" | "logical-trace" | "invariant"
    schedules: tuple[str, str]    # the two divergent schedule labels
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "schedules": list(self.schedules),
                "detail": self.detail}

    def __str__(self) -> str:
        a, b = self.schedules
        return f"[{self.kind}] schedules {a} vs {b}: {self.detail}"


@dataclass
class ScheduleOutcome:
    """What one schedule's run produced."""

    schedule: PerturbedSchedule
    description: str
    result_fingerprint: str
    logical_fingerprint: str
    archive_sha256: str
    violations: list[Violation] = field(default_factory=list)
    benign: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.index,
            "description": self.description,
            "buffer_items": self.schedule.buffer_items,
            "jitter": self.schedule.jitter,
            "result_fingerprint": self.result_fingerprint,
            "logical_fingerprint": self.logical_fingerprint,
            "archive_sha256": self.archive_sha256,
            "violations": [str(v) for v in self.violations],
            "benign": list(self.benign),
        }


@dataclass
class CheckReport:
    """The machine-readable verdict of one ActorCheck audit."""

    workload: str
    seed: int
    schedules: int
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    confirmed: list[Divergence] = field(default_factory=list)
    replays: list[dict] = field(default_factory=list)
    #: Runs that raised or whose worker process died:
    #: ``{"schedule": k, "tag": "s3", "error": "..."}`` each.
    failures: list[dict] = field(default_factory=list)

    @property
    def violations(self) -> list[tuple[int, Violation]]:
        return [(o.schedule.index, v)
                for o in self.outcomes for v in o.violations]

    @property
    def benign(self) -> list[str]:
        return [note for o in self.outcomes for note in o.benign]

    @property
    def verdict(self) -> str:
        if self.confirmed:
            return "nondeterminism"
        if self.failures:
            return "run-failure"
        if self.violations:
            return "invariant-violation"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "nondeterminism": 4, "invariant-violation": 5,
                "run-failure": 6}[self.verdict]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "schedules": self.schedules,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "replays": list(self.replays),
            "failures": list(self.failures),
            "confirmed": [d.to_dict() for d in self.confirmed],
            "violations": [
                {"schedule": idx, "invariant": v.invariant, "detail": v.detail}
                for idx, v in self.violations
            ],
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        lines = [
            f"== actorcheck: {self.workload} (seed {self.seed}, "
            f"{self.schedules} schedules) =="
        ]
        for rep in self.replays:
            state = "byte-identical" if rep["identical"] else "DIVERGED"
            lines.append(f"replay of schedule {rep['schedule']}: {state}")
        for fail in self.failures:
            lines.append(f"FAILED {fail['tag']}: {fail['error']}")
        for o in self.outcomes:
            mark = "OK " if not o.violations else "BAD"
            lines.append(f"{mark} {o.description}: "
                         f"result {o.result_fingerprint[:12]}, "
                         f"logical {o.logical_fingerprint[:12]}")
            for v in o.violations:
                lines.append(f"      violation {v}")
        benign = self.benign
        if benign:
            lines.append(f"benign reordering ({len(benign)}):")
            for note in benign[:8]:
                lines.append(f"  - {note}")
            if len(benign) > 8:
                lines.append(f"  - ... and {len(benign) - 8} more")
        for d in self.confirmed:
            lines.append(f"CONFIRMED {d}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _compare_to_baseline(base: dict, other: dict, report: CheckReport,
                         outcome: ScheduleOutcome) -> None:
    """Classify one run record's differences against the default schedule."""
    k, base_k = other["schedule"], base["schedule"]
    if other["result_fingerprint"] != base["result_fingerprint"]:
        report.confirmed.append(Divergence(
            "result", (str(base_k), str(k)),
            f"application results differ ({base['result_fingerprint'][:12]} "
            f"vs {other['result_fingerprint'][:12]}) — the program depends "
            f"on a schedule don't-care",
        ))
    if other["logical_fingerprint"] != base["logical_fingerprint"]:
        report.confirmed.append(Divergence(
            "logical-trace", (str(base_k), str(k)),
            f"logical send matrices differ "
            f"({base['logical_fingerprint'][:12]} vs "
            f"{other['logical_fingerprint'][:12]}) — sends depend on a "
            f"schedule don't-care",
        ))
    if (other["result_fingerprint"] == base["result_fingerprint"]
            and other["logical_fingerprint"] == base["logical_fingerprint"]
            and other["archive_sha256"] != base["archive_sha256"]):
        outcome.benign.append(
            f"schedule {k}: archive bytes differ from schedule "
            f"{base_k} while results and logical sends match "
            f"(physical buffering / timings reordered)"
        )


#: Dotted path of the audit worker (see :mod:`repro.check.parallel`).
_WORKER_FN = "repro.check.parallel:run_audit_schedule"


def audit(
    workload: Workload,
    schedules: int = 8,
    out_dir: str | Path | None = None,
    store_equivalence: bool = True,
    fault_plan=None,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
) -> CheckReport:
    """Audit ``workload`` under ``schedules`` perturbed-but-legal schedules.

    Parameters
    ----------
    workload:
        The workload to re-execute; its ``seed`` is the audit's root seed
        (schedule jitter streams derive from it by name, so they never
        collide with the workload's own RNG use).
    schedules:
        K.  Schedule 0 is the default policy (and is replayed to prove
        bit-stability); 1..K-1 jitter tie-breaks, flush order, and
        buffer sizes.
    out_dir:
        Where the per-schedule ``.aptrc`` archives land (a temporary
        directory is used — and cleaned up — when omitted).
    store_equivalence:
        Also run the archive/CSV round-trip invariant per schedule
        (disable to speed up very large sweeps).
    fault_plan:
        Optional non-fatal :class:`~repro.sim.faults.FaultPlan` applied to
        every run: a fault plan plus an ActorCheck audit must still be
        deterministic per seed.  Plans containing crashes are rejected —
        a crashed run has nothing meaningful to diff.
    jobs:
        Worker processes for the :mod:`repro.exec` engine.  Results are
        merged in schedule order, so any job count yields a
        byte-identical report.  Every audit rebuilds the workload from
        its ``descriptor()``.
    cache:
        Optional :class:`~repro.exec.ResultCache` (or directory path):
        runs whose ``(workload, seed, schedule)`` key is already stored
        are skipped and served from cache.
    """
    if schedules < 1:
        raise ValueError(f"need at least one schedule: {schedules}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if fault_plan is not None and getattr(fault_plan, "crashes", ()):
        raise ValueError(
            "ActorCheck audits need complete runs; fault plans with PE "
            "crashes cannot be audited (drop/delay/duplicate/slow are fine)"
        )
    plans = make_schedules(workload.seed, schedules)
    report = CheckReport(workload=workload.name, seed=workload.seed,
                         schedules=schedules)

    # Replay the baseline — and one jittered schedule, if any — to
    # prove every (seed, schedule) pair is bit-stable on its own.
    replay_indices = [0] + ([1] if schedules > 1 else [])
    units = [(k, f"s{k}") for k in range(schedules)]
    units += [(k, f"s{k}-replay") for k in replay_indices]

    # one RunSpec per unit; execute runs them inline at jobs=1 and in
    # workers otherwise, so the records do not depend on the job count
    descriptor = workload.descriptor()
    plan_dict = fault_plan.to_dict() if fault_plan is not None else None
    specs = []
    for i, (k, tag) in enumerate(units):
        kwargs = {"workload": descriptor, "schedule_index": k,
                  "schedules": schedules, "tag": tag,
                  "store_equivalence": store_equivalence,
                  "fault_plan": plan_dict}
        specs.append(RunSpec(index=i, fn=_WORKER_FN, kwargs=kwargs,
                             tag=tag).with_cache_key())
    with scratch(out_dir, "actorcheck-") as out_dir:
        records = {rec.tag: rec for rec in execute(
            specs, jobs=jobs, scratch_dir=out_dir, cache=cache)}

    for i, (k, tag) in enumerate(units):
        rec = records[tag]
        if not rec.ok:
            report.failures.append({"schedule": k, "tag": tag,
                                    "error": rec.error})
    for k in replay_indices:
        first, replay = records[f"s{k}"], records[f"s{k}-replay"]
        if not (first.ok and replay.ok):
            continue
        identical = (
            replay.value["archive_sha256"] == first.value["archive_sha256"]
            and replay.value["result_fingerprint"]
            == first.value["result_fingerprint"]
        )
        report.replays.append({"schedule": k, "identical": identical})
        if not identical:
            report.confirmed.append(Divergence(
                "replay", (str(k), f"{k}-replay"),
                "re-running the identical (seed, schedule) pair did not "
                "reproduce byte-identical traces — the run depends on "
                "state outside the seeded schedule",
            ))
    base = records["s0"].value if records["s0"].ok else None
    for k, plan in enumerate(plans):
        rec = records[f"s{k}"]
        if not rec.ok:
            continue
        value = rec.value
        outcome = ScheduleOutcome(
            schedule=plan,
            description=value["description"],
            result_fingerprint=value["result_fingerprint"],
            logical_fingerprint=value["logical_fingerprint"],
            archive_sha256=value["archive_sha256"],
            violations=[Violation(v["invariant"], v["detail"])
                        for v in value["violations"]],
        )
        if k != 0 and base is not None:
            _compare_to_baseline(base, value, report, outcome)
        report.outcomes.append(outcome)
    for idx, v in report.violations:
        report.confirmed.append(Divergence(
            "invariant", (str(idx), str(idx)),
            f"invariant broke under schedule {idx}: {v}",
        ))
    return report
