"""Auditable workloads: the case studies plus a generative program builder.

A :class:`Workload` is anything ActorCheck can re-execute under a
:class:`~repro.check.policies.PerturbedSchedule` and fingerprint.  The two
paper case studies (histogram, triangle counting) are wrapped directly;
:func:`generate_spec` additionally synthesizes random-but-*correct-by-
construction* actor programs — random mailbox chains, handler forwarding
rules, and message-size distributions whose every forwarding decision is a
pure function of ``(payload, sender)``, never of arrival order — so the
auditor and the hypothesis property tests can sweep program shapes no
hand-written example covers.

The one deliberate exception is :attr:`ProgramSpec.planted_race`: a
test-only fixture whose handler folds the *receive order* into shared
state without any guard.  A correct auditor must flag it; the test suite
asserts ActorCheck does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.check.policies import PerturbedSchedule
from repro.conveyors.conveyor import ConveyorConfig
from repro.core.flags import ProfileFlags
from repro.core.profiler import ActorProf
from repro.exec.cache import file_sha256
from repro.hclib.actor import Selector
from repro.hclib.world import RunResult, run_spmd
from repro.machine.cost import CostModel
from repro.machine.spec import MachineSpec
from repro.sim.faults import FaultPlan, use_plan
from repro.sim.rng import substream_rng


def fingerprint(data: Any) -> str:
    """Stable sha256 over a JSON-serializable result structure."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunArtifacts:
    """Everything one audited run leaves behind for the invariant engine."""

    #: The application's own result (counts, sums, ...).
    result: Any
    #: sha256 over ``result``.
    result_fingerprint: str
    #: sha256 over the logical send matrix — schedule-invariant by design.
    logical_fingerprint: str
    profiler: ActorProf
    run: RunResult
    #: None when the run was not archived.
    archive_path: Path | None
    archive_sha256: str | None
    #: Handler-counted (src, dst) receipt matrix; None for workloads whose
    #: handlers do not track senders (then only aggregate checks apply).
    receipts: np.ndarray | None = None
    #: Per-PE receive totals, when the app reports them (histogram).
    received_per_pe: list[int] | None = None
    #: Per-conveyor-group {pushes, pulls, forwarded, dups_discarded} sums.
    group_stats: list[dict[str, int]] = field(default_factory=list)
    clocks: list[int] = field(default_factory=list)

    @property
    def n_pes(self) -> int:
        return self.run.world.spec.n_pes


def _collect_group_stats(run: RunResult) -> list[dict[str, int]]:
    stats = []
    for slot in run.world._slots:
        for group in slot.groups:
            stats.append({
                "pushes": sum(e.stats.pushes for e in group.endpoints),
                "pulls": sum(e.stats.pulls for e in group.endpoints),
                "forwarded": sum(e.stats.forwarded for e in group.endpoints),
                "dups_discarded": sum(e.stats.dups_discarded
                                      for e in group.endpoints),
            })
    return stats


def _logical_fingerprint(profiler: ActorProf) -> str:
    assert profiler.logical is not None
    m = profiler.logical.matrix()
    return hashlib.sha256(
        repr(m.shape).encode() + m.astype(np.int64).tobytes()
    ).hexdigest()


class Workload:
    """One auditable workload.  Subclasses implement :meth:`execute`."""

    name: str = "workload"
    #: The problem-size attributes, in the order a descriptor and an
    #: ``actorprof run`` archive's meta record them.
    problem: tuple[str, ...] = ()
    #: The one-line result summary, formatted with the result data.
    summary: str = ""

    def __init__(self, machine: MachineSpec | None = None, seed: int = 0,
                 conveyor_config: ConveyorConfig | None = None) -> None:
        self.machine = machine or MachineSpec(1, 4)
        self.seed = seed
        self.base_config = conveyor_config or ConveyorConfig()

    def descriptor(self) -> dict:
        """A JSON-serializable description of this workload, the one
        identity a worker process rebuilds it from (see
        :func:`workload_from_descriptor`) and every archive it writes
        records.

        Audits, the result cache and archived runs all need one.  The
        default describes a workload by its :attr:`problem` attributes.
        """
        if not self.problem:
            raise NotImplementedError(
                f"{type(self).__name__} does not describe itself; "
                f"implement descriptor()"
            )
        return {"kind": self.name,
                **{k: getattr(self, k) for k in self.problem},
                **self._base_descriptor()}

    def _base_descriptor(self) -> dict:
        return {
            "nodes": self.machine.nodes,
            "pes_per_node": self.machine.pes_per_node,
            "seed": self.seed,
            "conveyor": asdict(self.base_config),
        }

    def _config_for(self, schedule: PerturbedSchedule) -> ConveyorConfig:
        if schedule.buffer_items is None:
            return self.base_config
        return replace(self.base_config, buffer_items=schedule.buffer_items)

    def execute(self, schedule: PerturbedSchedule, profiler: ActorProf,
                config: ConveyorConfig,
                cost: CostModel | None = None) -> tuple[Any, RunResult,
                                                        np.ndarray | None,
                                                        list[int] | None]:
        """Run once; return (result-data, run, receipts, received_per_pe)."""
        raise NotImplementedError

    def archive_meta(self, schedule: PerturbedSchedule,
                     fault_plan: FaultPlan | None = None) -> dict:
        """The footer ``meta`` of every archive of this workload: its
        :meth:`descriptor`, the schedule index and, only when there is
        one, the fault plan."""
        meta = {"workload": self.descriptor(), "schedule": schedule.index}
        if fault_plan is not None:
            meta["fault_plan"] = fault_plan.to_dict()
        return meta

    def run(self, schedule: PerturbedSchedule, archive_path: Path | None, *,
            profiler: ActorProf | None = None,
            cost: CostModel | None = None,
            fault_plan: FaultPlan | None = None,
            lod: bool = False) -> RunArtifacts:
        """Execute under ``schedule``, archive the traces, fingerprint.

        ``profiler`` and ``cost`` default to a fresh full-flags
        :class:`ActorProf` and the stock :class:`CostModel`; the what-if
        engine passes perturbed replacements for both.  ``fault_plan`` is
        the run's only plan: None runs fault-free even inside an
        enclosing ``use_plan``.  The archive's footer carries
        :meth:`archive_meta`; ``lod`` adds the LOD pyramid;
        ``archive_path=None`` writes nothing.
        """
        profiler = profiler or ActorProf(ProfileFlags.all())
        config = self._config_for(schedule)
        with use_plan(fault_plan):
            result_data, run, receipts, received = self.execute(
                schedule, profiler, config, cost
            )
        path = digest = None
        if archive_path is not None:
            path = profiler.export_archive(
                archive_path, meta=self.archive_meta(schedule, fault_plan),
                lod=lod)
            digest = file_sha256(path)
        return RunArtifacts(
            result=result_data,
            result_fingerprint=fingerprint(result_data),
            logical_fingerprint=_logical_fingerprint(profiler),
            profiler=profiler,
            run=run,
            archive_path=path,
            archive_sha256=digest,
            receipts=receipts,
            received_per_pe=received,
            group_stats=_collect_group_stats(run),
            clocks=run.clocks,
        )


class HistogramWorkload(Workload):
    """The paper's Listing 1–2 histogram under audit."""

    name = "histogram"
    problem = ("updates", "table_size")
    summary = "histogram: {total:,} updates delivered"

    def __init__(self, updates: int = 400, table_size: int = 64,
                 machine: MachineSpec | None = None, seed: int = 0,
                 conveyor_config: ConveyorConfig | None = None) -> None:
        super().__init__(machine=machine or MachineSpec(2, 2), seed=seed,
                         conveyor_config=conveyor_config)
        self.updates = updates
        self.table_size = table_size

    def execute(self, schedule, profiler, config, cost=None):
        from repro.apps.histogram import histogram

        res = histogram(
            self.updates, self.table_size, machine=self.machine,
            profiler=profiler, conveyor_config=config, cost=cost,
            seed=self.seed, schedule_policy=schedule.policy(),
        )
        data = {
            "total": res.total_updates,
            "received": list(res.per_pe_received),
        }
        return data, res.run, None, list(res.per_pe_received)


class TriangleWorkload(Workload):
    """The case-study triangle counter under audit."""

    name = "triangle"
    problem = ("scale", "distribution")
    summary = "triangle: {triangles:,} triangles"

    def __init__(self, scale: int = 6, distribution: str = "cyclic",
                 machine: MachineSpec | None = None, seed: int = 0,
                 conveyor_config: ConveyorConfig | None = None) -> None:
        super().__init__(machine=machine or MachineSpec(2, 2), seed=seed,
                         conveyor_config=conveyor_config)
        if distribution not in ("cyclic", "range", "block"):
            raise ValueError(f"distribution must be cyclic, range or block, "
                             f"got {distribution!r}")
        self.scale = scale
        self.distribution = distribution

    def execute(self, schedule, profiler, config, cost=None):
        from repro.apps.triangle import count_triangles
        from repro.experiments.casestudy import case_study_graph

        graph = case_study_graph(self.scale, seed=self.seed)
        res = count_triangles(
            graph, self.machine, self.distribution, profiler=profiler,
            conveyor_config=config, cost=cost, seed=self.seed,
            schedule_policy=schedule.policy(),
        )
        data = {
            "triangles": res.triangles,
            "per_pe_counts": list(res.per_pe_counts),
            "per_pe_sends": list(res.per_pe_sends),
        }
        return data, res.run, None, None


# ----------------------------------------------------------------------
# generative actor programs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramSpec:
    """Shape of one generated actor program.

    Handlers form a mailbox chain: a message landing in mailbox ``i``
    is (a) accumulated commutatively and (b) possibly forwarded to
    mailbox ``i + 1`` — the forwarding predicate and destination are pure
    functions of ``(value, sender)``, so the program's results and its
    logical send matrix are invariant under every legal schedule.
    """

    mailboxes: int = 2
    #: int64 words per mailbox payload (>= 2: value + hop count; extra
    #: words are padding that exercises the message-size distribution).
    payload_words: tuple[int, ...] = (2, 2)
    sends_per_pe: int = 64
    #: Destination mixer: ``dst = (value * mult + sender) % n_pes``.
    mult: int = 7
    #: Forward when ``(value + sender) % forward_mod == 0``.
    forward_mod: int = 2
    max_hops: int = 2
    #: TEST-ONLY planted handler-order race: fold the receive order into
    #: shared state with no guard.  ActorCheck must flag this.
    planted_race: bool = False

    def __post_init__(self) -> None:
        if self.mailboxes < 1:
            raise ValueError(f"need at least one mailbox: {self.mailboxes}")
        if len(self.payload_words) != self.mailboxes:
            raise ValueError(
                f"payload_words has {len(self.payload_words)} entries for "
                f"{self.mailboxes} mailboxes"
            )
        if any(w < 2 for w in self.payload_words):
            raise ValueError("every mailbox payload needs >= 2 words "
                             "(value + hop count)")
        if self.sends_per_pe < 0:
            raise ValueError(f"negative send count: {self.sends_per_pe}")
        if self.forward_mod < 1:
            raise ValueError(f"forward_mod must be >= 1: {self.forward_mod}")


def generate_spec(root_seed: int, index: int) -> ProgramSpec:
    """Draw one random program shape from a named substream.

    The same ``(root_seed, index)`` always yields the same spec, so a
    failed audit of ``generated`` workload #i is reproducible from the
    report alone.
    """
    rng = substream_rng(root_seed, "actorcheck", "genprog", index)
    mailboxes = int(rng.integers(1, 4))
    payload_words = tuple(int(rng.integers(2, 5)) for _ in range(mailboxes))
    return ProgramSpec(
        mailboxes=mailboxes,
        payload_words=payload_words,
        sends_per_pe=int(rng.integers(32, 160)),
        mult=int(rng.integers(1, 64)) * 2 + 1,
        forward_mod=int(rng.integers(2, 5)),
        max_hops=int(rng.integers(1, 4)),
    )


class GeneratedWorkload(Workload):
    """A generated mailbox-chain program, fully instrumented for audit.

    Handlers count every receipt into a shared ``(src, dst)`` matrix
    (safe: the simulator runs one handler at a time, one PE at a time), so
    the invariant engine can check *exact* per-PE-pair conservation of
    logical sends into physical deliveries.
    """

    def __init__(self, spec: ProgramSpec, machine: MachineSpec | None = None,
                 seed: int = 0, name: str | None = None,
                 conveyor_config: ConveyorConfig | None = None) -> None:
        super().__init__(machine=machine or MachineSpec(1, 4), seed=seed,
                         conveyor_config=conveyor_config)
        self.spec = spec
        self.name = name or "generated"

    def descriptor(self) -> dict:
        spec = asdict(self.spec)
        spec["payload_words"] = list(spec["payload_words"])
        return {"kind": "generated", "spec": spec, "name": self.name,
                **self._base_descriptor()}

    def execute(self, schedule, profiler, config, cost=None):
        spec = self.spec
        n_pes = self.machine.n_pes
        receipts = np.zeros((n_pes, n_pes), dtype=np.int64)
        acc = np.zeros(n_pes, dtype=np.int64)
        order_state = np.zeros(n_pes, dtype=np.int64)

        async def program(ctx):
            me = ctx.rank
            sel = Selector(ctx, mailboxes=spec.mailboxes,
                           payload_words=list(spec.payload_words),
                           conveyor_config=config)

            def make_handler(mb_id: int):
                forward = mb_id + 1 < spec.mailboxes
                pad = (0,) * (spec.payload_words[mb_id + 1] - 2) if forward else ()

                def process(payload, sender: int) -> None:
                    # payloads are >= 2 words, so they arrive as tuples
                    value, hop = int(payload[0]), int(payload[1])
                    ctx.compute(ins=12, loads=3, stores=3)
                    receipts[sender, me] += 1
                    acc[me] += value * (mb_id + 1)
                    if spec.planted_race:
                        # The planted bug: a hash of the RECEIVE ORDER,
                        # mutated with no guard — any legal reordering
                        # changes it.
                        order_state[me] = (
                            int(order_state[me]) * 1000003
                            + sender * 31 + value
                        ) % (1 << 61)
                    if (forward and hop < spec.max_hops
                            and (value + sender) % spec.forward_mod == 0):
                        dst = (value * spec.mult + sender) % n_pes
                        sel.send(mb_id + 1, (value + 1, hop + 1) + pad, dst)

                return process

            for i in range(spec.mailboxes):
                sel.mb[i].process = make_handler(i)
            values = ctx.rng.integers(0, 1 << 20, spec.sends_per_pe)
            pad0 = (0,) * (spec.payload_words[0] - 2)
            async with ctx.finish():
                sel.start()
                for v in values:
                    value = int(v)
                    dst = (value * spec.mult + me) % n_pes
                    sel.send(0, (value, 0) + pad0, dst)
                sel.done(0)
            total = await ctx.shmem.allreduce(int(acc[me]), "sum")
            return {"local": int(acc[me]), "total": total}

        run = run_spmd(program, machine=self.machine, cost=cost,
                       conveyor_config=config, profiler=profiler,
                       seed=self.seed, schedule_policy=schedule.policy())
        data = {
            "total": run.results[0]["total"],
            "locals": [r["local"] for r in run.results],
            "receipts": receipts.tolist(),
        }
        if spec.planted_race:
            data["order_state"] = order_state.tolist()
        received = receipts.sum(axis=0)
        return data, run, receipts, [int(x) for x in received]


def _checked(data: dict, where: str, shape: dict[str, Any],
             required: tuple[str, ...] = ()) -> dict:
    """One level of a descriptor, checked against ``shape`` (key -> a
    value of the JSON type the key must hold): every ``required`` key
    present, no key outside ``shape``.  Errors name the key."""
    for key in required:
        if key not in data:
            raise ValueError(f"bad workload descriptor: missing key "
                             f"{where + key!r}")
    for key, value in data.items():
        if key not in shape:
            raise ValueError(f"bad workload descriptor: unknown key "
                             f"{where + key!r}")
        want = list if isinstance(shape[key], tuple) else type(shape[key])
        if type(value) is not want or (want is list and any(
                type(v) is not int for v in value)):
            raise ValueError(f"bad workload descriptor: {where + key!r} must "
                             f"be {want.__name__}, got {value!r}")
    return data


def workload_from_descriptor(data: dict) -> Workload:
    """Rebuild a workload in a worker process from its :meth:`descriptor`.

    The round trip must be lossless: a rebuilt workload has to produce
    byte-identical artifacts to the original, or parallel audits would
    diverge from serial ones.  Descriptors also come back out of archive
    footers, so a malformed one — a missing, unknown or mistyped key at
    any level — is a ``ValueError`` naming the key; ``conveyor`` (and a
    generated program's ``name``) may be left out for the defaults.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"not a workload descriptor: {data!r}")
    kind = data["kind"]
    cls = {"histogram": HistogramWorkload, "triangle": TriangleWorkload,
           "generated": GeneratedWorkload}.get(str(kind))
    if cls is None:
        raise ValueError(f"unknown workload kind {kind!r}")
    if cls is GeneratedWorkload:
        problem, optional = {"spec": {}}, {"name": ""}
    else:
        problem, optional = {k: getattr(cls(), k) for k in cls.problem}, {}
    shape = {"kind": "", **problem, "nodes": 1, "pes_per_node": 1, "seed": 0}
    _checked(data, "", {**shape, **optional, "conveyor": {}},
             required=tuple(shape))
    conveyor = data.get("conveyor", {})
    _checked(conveyor, "conveyor.", asdict(ConveyorConfig()))
    common = dict(machine=MachineSpec(data["nodes"], data["pes_per_node"]),
                  seed=data["seed"], conveyor_config=ConveyorConfig(**conveyor))
    if cls is GeneratedWorkload:
        fields = dict(_checked(data["spec"], "spec.", asdict(ProgramSpec())))
        if "payload_words" in fields:
            fields["payload_words"] = tuple(fields["payload_words"])
        return GeneratedWorkload(ProgramSpec(**fields),
                                 name=data.get("name"), **common)
    return cls(**{k: data[k] for k in cls.problem}, **common)
