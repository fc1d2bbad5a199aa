"""Tests for the ``actorprof check`` CLI."""

import json

import pytest

from repro.core.cli import main

SMALL = ["--nodes", "1", "--pes-per-node", "4",
         "--updates", "120", "--table-size", "16"]


def test_check_histogram_passes(tmp_path, capsys):
    report = tmp_path / "verdict.json"
    rc = main(["check", "histogram", "--schedules", "2", *SMALL,
               "--skip-store-check", "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "replay of schedule 0: byte-identical" in out
    data = json.loads(report.read_text())
    assert data["verdict"] == "pass"
    assert data["exit_code"] == 0
    assert len(data["outcomes"]) == 2


def test_check_quiet_prints_one_line(capsys):
    rc = main(["check", "histogram", "--schedules", "1", *SMALL,
               "--skip-store-check", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == "histogram: pass"


def test_check_generated_programs(tmp_path, capsys):
    report = tmp_path / "verdicts.json"
    rc = main(["check", "generated", "--schedules", "2", "--programs", "2",
               "--nodes", "1", "--pes-per-node", "4",
               "--skip-store-check", "--quiet", "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "generated-0: pass" in out
    assert "generated-1: pass" in out
    data = json.loads(report.read_text())
    # multi-workload reports carry the aggregated exit codes alongside
    # the per-workload verdicts (a bare list used to hide them)
    assert data["exit_code"] == 0
    assert data["exit_codes"] == []
    assert len(data["reports"]) == 2
    assert all(r["verdict"] == "pass" for r in data["reports"])


def test_check_keep_archives(tmp_path, capsys):
    keep = tmp_path / "archives"
    rc = main(["check", "histogram", "--schedules", "2", *SMALL,
               "--skip-store-check", "--quiet",
               "--keep-archives", str(keep)])
    assert rc == 0
    kept = sorted(p.name for p in (keep / "histogram").glob("*.aptrc"))
    assert "s0.aptrc" in kept and "s1.aptrc" in kept
    assert "s0-replay.aptrc" in kept


def test_check_rejects_zero_schedules(capsys):
    rc = main(["check", "histogram", "--schedules", "0", *SMALL])
    assert rc == 2
    assert "--schedules must be >= 1" in capsys.readouterr().err


def test_check_rejects_unknown_workload():
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


def test_check_rejects_crash_fault_plan(tmp_path, capsys):
    from repro.sim.faults import CrashFault, FaultPlan

    plan_path = tmp_path / "crash.json"
    FaultPlan(crashes=(CrashFault(pe=0, at_cycle=100),)).save(plan_path)
    rc = main(["check", "histogram", "--schedules", "1", *SMALL,
               "--fault-plan", str(plan_path)])
    assert rc == 2
    assert "crashes cannot be audited" in capsys.readouterr().err


def test_check_report_cli_seed_is_reproducible(tmp_path):
    """Same seed, same verdict report (modulo nothing): the JSON verdicts
    of two CLI invocations are identical — a failed audit is replayable
    from its report alone."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = main(["check", "histogram", "--schedules", "2", *SMALL,
                   "--seed", "9", "--skip-store-check", "--quiet",
                   "--out", str(path)])
        assert rc == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())
