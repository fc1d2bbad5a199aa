"""``actorprof run``, ``check`` and ``whatif`` share one workload runner.

The digests below pin the bytes each command writes with its default
arguments: the archive of a healthy ``run``, the ``--sweep-report`` of a
two-point sweep, and the ``--out`` verdict of two audits.  Any change to
how a case study is built, run or archived moves at least one of them.
The rest covers what the three commands check before they run: that a
fault plan fits the machine, that every archive records the workload's
descriptor, and that ``Run.whatif`` analyses the program that made the
archive.
"""

import hashlib
import inspect
import json
import re

import pytest

import repro.api as api
from repro.check import (
    GeneratedWorkload,
    HistogramWorkload,
    TriangleWorkload,
    Workload,
    generate_spec,
    make_schedules,
    workload_from_descriptor,
)
from repro.conveyors.conveyor import ConveyorConfig
from repro.core.cli import main
from repro.core.store.archive import Archive
from repro.machine.spec import MachineSpec
from repro.sim.faults import CrashFault, FaultPlan, SlowPE, use_plan

#: sha256 of the files each command line writes to OUT (all other
#: arguments at their defaults).  Re-pinned for format version 3: each
#: archive's version-2 spelling, and each report with those archives'
#: digests, hash to the previous pins.
PINS = {
    "run-histogram": (
        ["run", "histogram", "-o", "OUT"],
        "568e47be2e6698a116c7ec92a2a9205a468137ba31e3f16bdfad35878661bdae"),
    "run-triangle": (
        ["run", "triangle", "-o", "OUT"],
        "16f39a8ee4305d91b11530352e11c26ce962147afa32f3f3a275bb11e6793e00"),
    "sweep-report": (
        ["run", "histogram", "--sweep", "seed=0,1", "-o", "DIR",
         "--sweep-report", "OUT"],
        "4da351e7d6cd94ea4fc09efdb915cb1ba54e62ac185a17273c79b74840fffbaf"),
    "check-histogram": (
        ["check", "histogram", "--schedules", "3", "--out", "OUT"],
        "7daff5ebaf157855f2a0dab858801a30c6892c29c6219ef450f2c328bf2ee6eb"),
    "check-triangle": (
        ["check", "triangle", "--schedules", "2", "--scale", "6",
         "--out", "OUT"],
        "27d48fead8d0e852033eacbabef47a212baa172469dd967705dfd699b219e25e"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_default_outputs_are_pinned(name, tmp_path, capsys):
    argv, digest = PINS[name]
    out = tmp_path / "out"
    argv = [{"OUT": str(out), "DIR": str(tmp_path / "dir")}.get(a, a)
            for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ----------------------------------------------------------------------
# a fault plan that does not fit the machine is a bad argument
# ----------------------------------------------------------------------

@pytest.fixture
def misfit_plan(tmp_path):
    path = tmp_path / "misfit.json"
    FaultPlan(slow_pes=(SlowPE(pe=9, multiplier=2.0),)).save(path)
    return str(path)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", [
    ["run", "triangle"],
    ["run", "histogram", "--sweep", "seed=0,1"],
    ["check", "histogram", "--schedules", "2"],
    ["whatif", "histogram", "--scale", "proc=0.5"],
])
def test_misfit_plan_is_rejected_before_any_run(command, jobs, misfit_plan,
                                                capsys):
    rc = main([*command, "--fault-plan", misfit_plan, "--jobs", jobs])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("fault plan does not fit this machine: slow PE 9 out of range "
            "for 4 PEs") in err


def test_swept_machine_checks_the_plan_per_point(misfit_plan, tmp_path,
                                                 capsys):
    """With nodes swept there is no one machine to check up front: each
    point's worker checks the plan against its own size."""
    report = tmp_path / "sweep.json"
    rc = main(["run", "histogram", "--sweep", "nodes=1,3",
               "--fault-plan", misfit_plan, "--sweep-report", str(report)])
    assert rc == 1
    capsys.readouterr()
    errors = [p["error"] for p in json.loads(report.read_text())["points"]]
    assert errors == ["ValueError: slow PE 9 out of range for 2 PEs",
                      "ValueError: slow PE 9 out of range for 6 PEs"]


# ----------------------------------------------------------------------
# Workload.run
# ----------------------------------------------------------------------

def test_unarchived_run_writes_nothing_and_still_fingerprints(
        tmp_path, monkeypatch):
    wl = HistogramWorkload(updates=60, table_size=16,
                           machine=MachineSpec(1, 2), seed=3)
    schedule = make_schedules(wl.seed, 1)[0]
    archived = wl.run(schedule, tmp_path / "a.aptrc")
    (tmp_path / "a.aptrc").unlink()
    monkeypatch.chdir(tmp_path)
    bare = wl.run(schedule, None)
    assert list(tmp_path.iterdir()) == []
    assert bare.archive_path is None and bare.archive_sha256 is None
    assert bare.result == {"total": 120, "received": bare.received_per_pe}
    assert bare.result_fingerprint == archived.result_fingerprint
    assert bare.logical_fingerprint == archived.logical_fingerprint


def test_workload_run_plan_overrides_the_ambient_one(tmp_path):
    """The plan Workload.run is given is the run's only plan."""
    wl = HistogramWorkload(updates=60, table_size=16,
                           machine=MachineSpec(1, 2))
    schedule = make_schedules(wl.seed, 1)[0]
    clean = wl.run(schedule, tmp_path / "clean.aptrc")
    with use_plan(FaultPlan(crashes=(CrashFault(pe=1, at_cycle=10),))):
        shadowed = wl.run(schedule, tmp_path / "shadowed.aptrc")
    assert shadowed.archive_sha256 == clean.archive_sha256


# ----------------------------------------------------------------------
# every archive records its workload's descriptor
# ----------------------------------------------------------------------

def test_every_writer_stamps_the_descriptor(tmp_path, capsys):
    """run (healthy and salvaged), check and whatif archives carry
    ``{"workload": descriptor, "schedule": k}``, plus ``fault_plan``
    exactly when a plan was given, and no ``app`` key."""
    assert "meta" not in inspect.signature(Workload.run).parameters
    crash, slow = tmp_path / "crash.json", tmp_path / "slow.json"
    FaultPlan(crashes=(CrashFault(pe=1, at_cycle=10),)).save(crash)
    FaultPlan(slow_pes=(SlowPE(pe=1, multiplier=2.0),)).save(slow)
    small = ["--updates", "100", "--table-size", "16"]
    out = {name: str(tmp_path / name) for name in
           ("run.aptrc", "salvaged.aptrc", "check", "whatif")}
    assert main(["run", "histogram", *small, "-o", out["run.aptrc"]]) == 0
    assert main(["run", "histogram", *small, "--fault-plan", str(crash),
                 "-o", out["salvaged.aptrc"]]) == 3
    assert main(["check", "histogram", *small, "--schedules", "1",
                 "--fault-plan", str(slow), "--skip-store-check", "--quiet",
                 "--keep-archives", out["check"]]) == 0
    assert main(["whatif", "histogram", *small, "--quiet",
                 "--keep-archives", out["whatif"]]) == 0
    capsys.readouterr()
    plans = {"run.aptrc": None, "salvaged.aptrc": crash,
             "check/histogram/s0.aptrc": slow, "whatif/baseline.aptrc": None}
    for name, plan in plans.items():
        with Archive(tmp_path / name) as archive:
            meta = archive.meta
        assert meta["workload"] == _hist().descriptor(), name
        assert meta["schedule"] == 0 and "app" not in meta, name
        assert meta.get("fault_plan") == (
            FaultPlan.load(plan).to_dict() if plan else None), name


# ----------------------------------------------------------------------
# a descriptor is a trust boundary: malformed ones name the bad key
# ----------------------------------------------------------------------

def _generated():
    return GeneratedWorkload(generate_spec(0, 0), name="generated-0")


@pytest.mark.parametrize("make,message", [
    (lambda: {"kind": "histogram"}, "missing key 'updates'"),
    (lambda: _drop(_hist().descriptor(), "nodes"), "missing key 'nodes'"),
    (lambda: {**_hist().descriptor(), "colour": 1}, "unknown key 'colour'"),
    (lambda: {**_hist().descriptor(), "scale": 6}, "unknown key 'scale'"),
    (lambda: _conveyor(_hist(), colour=1), "unknown key 'conveyor.colour'"),
    (lambda: _spec(_generated(), colour=1), "unknown key 'spec.colour'"),
    (lambda: {**_hist().descriptor(), "nodes": "2"},
     "'nodes' must be int, got '2'"),
    (lambda: {**_hist().descriptor(), "seed": True},
     "'seed' must be int, got True"),
    (lambda: {**_tri().descriptor(), "distribution": 1},
     "'distribution' must be str"),
    (lambda: {**_hist().descriptor(), "conveyor": [64]},
     "'conveyor' must be dict, got [64]"),
    (lambda: _conveyor(_hist(), buffer_items=64.0),
     "'conveyor.buffer_items' must be int"),
    (lambda: _spec(_generated(), payload_words=["2"]),
     "'spec.payload_words' must be list"),
    (lambda: {**_tri().descriptor(), "distribution": "diagonal"},
     "distribution must be cyclic, range or block, got 'diagonal'"),
    (lambda: {**_hist().descriptor(), "kind": "sort"},
     "unknown workload kind 'sort'"),
    (lambda: {**_hist().descriptor(), "kind": ["histogram"]},
     "unknown workload kind ['histogram']"),
    (lambda: ["histogram"], "not a workload descriptor"),
], ids=["empty", "no-nodes", "unknown", "other-app-key", "conveyor-unknown",
        "spec-unknown", "str-int", "bool-int", "int-str", "conveyor-list",
        "conveyor-float", "spec-list-of-str", "distribution", "kind",
        "kind-list", "not-a-dict"])
def test_malformed_descriptors_name_the_key(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        workload_from_descriptor(make())


def _drop(data, key):
    return {k: v for k, v in data.items() if k != key}


def _conveyor(workload, **fields):
    data = workload.descriptor()
    return {**data, "conveyor": {**data["conveyor"], **fields}}


def _spec(workload, **fields):
    data = workload.descriptor()
    return {**data, "spec": {**data["spec"], **fields}}


@pytest.mark.parametrize("workload", [
    lambda: _hist(), lambda: _tri(), _generated,
    lambda: _hist(conveyor_config=ConveyorConfig(buffer_items=8, slots=3)),
], ids=["histogram", "triangle", "generated", "conveyor"])
def test_descriptor_round_trip(workload):
    data = json.loads(json.dumps(workload().descriptor()))
    assert workload_from_descriptor(data).descriptor() == data


# ----------------------------------------------------------------------
# Run.whatif checks the archive was made by the workload it is given
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def app_archives(tmp_path_factory):
    """Small ``actorprof run`` archives; their meta records the
    workload's descriptor."""
    d = tmp_path_factory.mktemp("app-archives")
    assert main(["run", "histogram", "--updates", "100", "--table-size",
                 "16", "-o", str(d / "h.aptrc")]) == 0
    assert main(["run", "triangle", "--scale", "5", "--distribution",
                 "range", "-o", str(d / "t.aptrc")]) == 0
    return d


def _hist(**kw):
    args = dict(updates=100, table_size=16, machine=MachineSpec(2, 2), seed=0)
    return HistogramWorkload(**{**args, **kw})


def _tri(**kw):
    args = dict(scale=5, distribution="range", machine=MachineSpec(2, 2),
                seed=0)
    return TriangleWorkload(**{**args, **kw})


@pytest.mark.parametrize("archive,workload,message", [
    ("h", lambda: _tri(scale=5, machine=MachineSpec(1, 3), seed=7),
     "workload mismatch: archive was produced by 'histogram', got 'triangle'"),
    ("h", lambda: _hist(seed=7),
     "seed mismatch: archive was produced with seed 0, got a 'histogram' "
     "workload with seed 7"),
    ("h", lambda: _hist(machine=MachineSpec(1, 4)),
     "nodes mismatch: archive was produced with nodes 2, got a 'histogram' "
     "workload with nodes 1"),
    ("h", lambda: _hist(machine=MachineSpec(2, 3)),
     "pes_per_node mismatch: archive was produced with pes_per_node 2"),
    ("h", lambda: _hist(updates=200), "updates mismatch"),
    ("h", lambda: _hist(table_size=32), "table_size mismatch"),
    ("t", lambda: _tri(scale=6), "scale mismatch"),
    ("t", lambda: _tri(distribution="cyclic"),
     "distribution mismatch: archive was produced with distribution "
     "'range', got a 'triangle' workload with distribution 'cyclic'"),
    ("h", lambda: _hist(conveyor_config=ConveyorConfig(buffer_items=32)),
     "conveyor.buffer_items mismatch: archive was produced with "
     "conveyor.buffer_items 64, got a 'histogram' workload with "
     "conveyor.buffer_items 32"),
], ids=["name", "seed", "nodes", "pes_per_node", "updates", "table_size",
        "scale", "distribution", "conveyor"])
def test_run_whatif_rejects_a_different_program(app_archives, archive,
                                                workload, message):
    with api.open_run(app_archives / f"{archive}.aptrc") as run:
        with pytest.raises(ValueError, match="^" + message):
            run.whatif(workload())


def test_run_whatif_accepts_the_program_that_made_the_archive(app_archives):
    with api.open_run(app_archives / "h.aptrc") as run:
        assert run.whatif(_hist())["exit_code"] == 0


def test_run_whatif_rebuilds_the_program_that_made_the_archive(app_archives):
    with api.open_run(app_archives / "h.aptrc") as run:
        assert run.whatif() == api.whatif(_hist())


def test_run_whatif_rejects_a_check_archive_of_another_size(tmp_path):
    """A check-style archive (``Workload.run``) records the problem size
    too: a scale-6 triangle is not the scale-5 one that made it."""
    _tri().run(make_schedules(0, 1)[0], tmp_path / "c.aptrc")
    with api.open_run(tmp_path / "c.aptrc") as run:
        with pytest.raises(ValueError, match="^scale mismatch: archive was "
                           "produced with scale 5, got a 'triangle' "
                           "workload with scale 6"):
            run.whatif(_tri(scale=6))
