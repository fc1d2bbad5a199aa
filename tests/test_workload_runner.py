"""``actorprof run``, ``check`` and ``whatif`` share one workload runner.

The digests below pin the bytes each command writes with its default
arguments: the archive of a healthy ``run``, the ``--sweep-report`` of a
two-point sweep, and the ``--out`` verdict of two audits.  Any change to
how a case study is built, run or archived moves at least one of them.
The rest covers what the three commands check before they run: that a
fault plan fits the machine, and that ``Run.whatif`` is handed the
program that made the archive.
"""

import hashlib
import json

import pytest

import repro.api as api
from repro.check import HistogramWorkload, TriangleWorkload, make_schedules
from repro.core.cli import main
from repro.machine.spec import MachineSpec
from repro.sim.faults import FaultPlan, SlowPE, use_plan

#: sha256 of the files each command line writes to OUT (all other
#: arguments at their defaults).
PINS = {
    "run-histogram": (
        ["run", "histogram", "-o", "OUT"],
        "2c337646b50bd21729144f6494e798957a5c541583a1f600dd7c8221b3abd188"),
    "run-triangle": (
        ["run", "triangle", "-o", "OUT"],
        "ddc52a20cc4a8e6a06730f0549e59bcb85b55911ca770192ff19ec7eff9e4c09"),
    "sweep-report": (
        ["run", "histogram", "--sweep", "seed=0,1", "-o", "DIR",
         "--sweep-report", "OUT"],
        "ba8147757763259d87226e2d8e0b2303f6316e5d44c203206d6dab96662d6bf7"),
    "check-histogram": (
        ["check", "histogram", "--schedules", "3", "--out", "OUT"],
        "2bb5f3b88358a0d7c24b07118234604b5409968720b1588671d3c6dccf2f0454"),
    "check-triangle": (
        ["check", "triangle", "--schedules", "2", "--scale", "6",
         "--out", "OUT"],
        "eef6893b8cdd9a9e44c7a559dd0c547906f4a94277b1956d0d8b3e12808a531b"),
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
    with use_plan(FaultPlan.single_crash(pe=1, at_cycle=10)):
        shadowed = wl.run(schedule, tmp_path / "shadowed.aptrc")
    assert shadowed.archive_sha256 == clean.archive_sha256


# ----------------------------------------------------------------------
# Run.whatif checks the archive was made by the workload it is given
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def app_archives(tmp_path_factory):
    """Small ``actorprof run`` archives: meta records ``app``, not
    ``workload``, plus the problem size."""
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
], ids=["name", "seed", "nodes", "pes_per_node", "updates", "table_size",
        "scale", "distribution"])
def test_run_whatif_rejects_a_different_program(app_archives, archive,
                                                workload, message):
    with api.open_run(app_archives / f"{archive}.aptrc") as run:
        with pytest.raises(ValueError, match="^" + message):
            run.whatif(workload())


def test_run_whatif_accepts_the_program_that_made_the_archive(app_archives):
    with api.open_run(app_archives / "h.aptrc") as run:
        assert run.whatif(_hist())["exit_code"] == 0
