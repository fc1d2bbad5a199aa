"""Determinism properties of the parallel audit path.

The contract the paper's tooling depends on: ``actorprof check --jobs N``
is *byte-identical* to ``--jobs 1`` — same JSON verdict, same archive
fingerprints — because both paths compute per-run records with
:func:`repro.check.parallel.record_run` and merge them in schedule
order.  ``jobs=2`` is used throughout so the pooled path really spawns
workers even on small CI runners.
"""

import json

import pytest

from repro.check import HistogramWorkload, audit, workload_from_descriptor
from repro.check.parallel import run_audit_schedule
from repro.core.cli import main
from repro.machine.spec import MachineSpec


def small_workload(seed):
    return HistogramWorkload(updates=60, table_size=16,
                             machine=MachineSpec(1, 4), seed=seed)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_jobs_parallel_audit_is_byte_identical(seed, tmp_path):
    serial = audit(small_workload(seed), schedules=2,
                   out_dir=tmp_path / "serial", store_equivalence=False,
                   jobs=1)
    pooled = audit(small_workload(seed), schedules=2,
                   out_dir=tmp_path / "pooled", store_equivalence=False,
                   jobs=2)
    assert serial.to_json() == pooled.to_json()
    assert ([o.archive_sha256 for o in serial.outcomes]
            == [o.archive_sha256 for o in pooled.outcomes])
    # the archives themselves are byte-identical, not just the verdicts
    for tag in ("s0.aptrc", "s1.aptrc"):
        assert ((tmp_path / "serial" / tag).read_bytes()
                == (tmp_path / "pooled" / tag).read_bytes())


def test_worker_descriptor_round_trip_matches_live_run(tmp_path):
    """run_audit_schedule (the spawned-worker entry) rebuilt from a
    descriptor produces the same fingerprints as the live workload."""
    wl = small_workload(3)
    rebuilt = workload_from_descriptor(wl.descriptor())
    rec = run_audit_schedule(tmp_path, workload=wl.descriptor(),
                             schedule_index=0, schedules=2, tag="s0",
                             store_equivalence=False)
    report = audit(rebuilt, schedules=1, store_equivalence=False)
    assert rec["result_fingerprint"] == report.outcomes[0].result_fingerprint
    assert rec["archive_sha256"] == report.outcomes[0].archive_sha256


def test_cached_audit_report_is_identical(tmp_path):
    cache = tmp_path / "cache"
    first = audit(small_workload(1), schedules=3, store_equivalence=False,
                  cache=cache)
    second = audit(small_workload(1), schedules=3, store_equivalence=False,
                   cache=cache)
    assert first.to_json() == second.to_json()
    # 3 schedules + 2 replays, each cached exactly once
    assert len(list(cache.glob("??/*/manifest.json"))) == 5


def test_cli_jobs_flag_report_is_byte_identical(tmp_path):
    args = ["check", "histogram", "--nodes", "1", "--pes-per-node", "4",
            "--updates", "60", "--table-size", "16", "--schedules", "2",
            "--skip-store-check", "--quiet"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main([*args, "--out", str(r1), "--jobs", "1"]) == 0
    assert main([*args, "--out", str(r2), "--jobs", "2"]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_rejects_zero_jobs(capsys):
    rc = main(["check", "histogram", "--schedules", "1", "--jobs", "0"])
    assert rc == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_audit_rejects_zero_jobs():
    with pytest.raises(ValueError, match="jobs"):
        audit(small_workload(0), schedules=1, jobs=0)


def test_generated_workload_descriptor_round_trip(tmp_path):
    """The random-program workloads survive the descriptor trip too —
    they are what `check generated --jobs N` ships to workers."""
    from repro.check import GeneratedWorkload, generate_spec

    wl = GeneratedWorkload(generate_spec(5, 1), machine=MachineSpec(1, 4),
                           seed=5, name="generated-1")
    clone = workload_from_descriptor(wl.descriptor())
    assert clone.descriptor() == wl.descriptor()
    a = audit(wl, schedules=1, store_equivalence=False)
    b = audit(clone, schedules=1, store_equivalence=False)
    assert json.loads(a.to_json()) == json.loads(b.to_json())
