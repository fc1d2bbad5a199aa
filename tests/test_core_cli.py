"""Tests for the ``actorprof`` CLI."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.core.cli import main
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """One profiled run whose traces feed every CLI test."""
    path = tmp_path_factory.mktemp("traces")
    ap = ActorProf(ProfileFlags.all())

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx)
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        async with ctx.finish():
            a.start()
            for i in range(30):
                a.send(int(ctx.rng.integers(0, 8)),
                       int(ctx.rng.integers(0, ctx.n_pes)))
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(2, 4), profiler=ap, seed=4)
    ap.write_traces(path)
    return path


def test_logical_flag(trace_dir, tmp_path, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-l", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "logical_heatmap.svg").exists()
    out = capsys.readouterr().out
    assert "Logical trace" in out
    assert "total messages: 240" in out


def test_physical_flag(trace_dir, tmp_path, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-p", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "physical_heatmap.svg").exists()
    assert (tmp_path / "physical_heatmap_local_send.svg").exists()
    out = capsys.readouterr().out
    assert "local_send" in out and "nonblock_send" in out


def test_overall_flag(trace_dir, tmp_path, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-s", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "overall_absolute.svg").exists()
    assert (tmp_path / "overall_relative.svg").exists()
    assert "mean fractions" in capsys.readouterr().out


def test_papi_flag(trace_dir, tmp_path, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-lp", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "papi_bars.svg").exists()
    assert "PAPI_TOT_INS" in capsys.readouterr().out


def test_violin_option(trace_dir, tmp_path):
    rc = main([str(trace_dir), "--num-pes", "8", "-l", "-p", "--violin",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    assert (tmp_path / "logical_violin.svg").exists()
    assert (tmp_path / "physical_violin.svg").exists()


def test_all_flags_together(trace_dir, tmp_path, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-l", "-lp", "-s", "-p",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote:" in out


def test_quiet_suppresses_reports(trace_dir, tmp_path, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-l", "--quiet",
               "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_no_flags_is_an_error(trace_dir, capsys):
    rc = main([str(trace_dir), "--num-pes", "8"])
    assert rc == 2
    assert "nothing to do" in capsys.readouterr().err


def test_missing_dir_is_an_error(tmp_path, capsys):
    rc = main([str(tmp_path / "nope"), "--num-pes", "8", "-l"])
    assert rc == 2


def test_timeline_flag(tmp_path):
    """-t renders timeline + utilization charts from trace.json."""
    import numpy as np

    from repro.core import ActorProf, ProfileFlags
    from repro.hclib import Actor, run_spmd
    from repro.machine import MachineSpec

    ap = ActorProf(ProfileFlags.all(enable_timeline=True))

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx)
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    async def program(ctx):
        arr = np.zeros(4, dtype=np.int64)
        a = A(ctx, arr)
        async with ctx.finish():
            a.start()
            for i in range(10):
                a.send(i % 4, (ctx.my_pe + i) % ctx.n_pes)
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(2, 2), profiler=ap, seed=1)
    trace_dir = tmp_path / "traces"
    ap.write_traces(trace_dir)
    out = tmp_path / "charts"
    rc = main([str(trace_dir), "--num-pes", "4", "-t", "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "timeline.svg").exists()
    assert (out / "utilization.svg").exists()


def test_timeline_flag_missing_trace_json(trace_dir, capsys):
    rc = main([str(trace_dir), "--num-pes", "8", "-t"])
    assert rc == 2
    assert "trace.json" in capsys.readouterr().err


def test_chrome_roundtrip_preserves_timeline(tmp_path):
    """timeline_from_chrome inverts write_chrome_trace (span/event counts)."""
    from repro.core.export import timeline_from_chrome, write_chrome_trace
    from repro.core.timeline import TimelineTrace
    from repro.machine import MachineSpec

    tl = TimelineTrace(4)
    tl.add_span(0, "MAIN", 0, 2000)
    tl.add_span(1, "PROC", 500, 900, mailbox=2)
    tl.add_net_event(100, "nonblock_send", 0, 2, 512)
    spec = MachineSpec(2, 2)
    path = write_chrome_trace(tl, spec, tmp_path / "t.json", clock_ghz=2.0)
    loaded, _spec2 = timeline_from_chrome(path)
    assert loaded.span_count() == 2
    assert {k: v.tolist() for k, v in loaded.span_columns().items()} \
        == {k: v.tolist() for k, v in tl.span_columns().items()}
    assert {k: v.tolist() for k, v in loaded.net_columns().items()} \
        == {"time": [100], "kind": [1], "src": [0], "dst": [2], "nbytes": [512]}


def test_query_option(trace_dir, capsys):
    """``actorprof query`` on a trace directory, either section."""
    assert main(["query", str(trace_dir), "--num-pes", "8",
                 "sends group by src top 2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(": " in line for line in lines)
    assert main(["query", str(trace_dir), "--num-pes", "8",
                 "--section", "physical", "ops where kind == local_send"]) == 0
    assert int(capsys.readouterr().out.replace(",", "")) > 0


def test_query_option_bad_target(trace_dir, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["query", str(trace_dir), "--num-pes", "8",
              "--section", "papi", "sends"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'papi'" in capsys.readouterr().err


def test_query_option_bad_expr(trace_dir, capsys):
    rc = main(["query", str(trace_dir), "--num-pes", "8", "frobnicate"])
    assert rc == 2
    assert "query failed" in capsys.readouterr().err


def test_console_script_entry_point(trace_dir, tmp_path):
    """The installed `actorprof` module runs as a subprocess end to end."""
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", str(trace_dir),
         "--num-pes", "8", "-l", "--quiet", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "logical_heatmap.svg").exists()


def test_physical_node_hotspot_chart(trace_dir, tmp_path):
    """-p also emits a node-level heatmap when the run used >1 node."""
    rc = main([str(trace_dir), "--num-pes", "8", "-p", "--quiet",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "physical_heatmap_nodes.svg").exists()
    content = (tmp_path / "physical_heatmap_nodes.svg").read_text()
    assert "node-level hotspots" in content
    # tooltips name nodes, not PEs
    assert "<title>node 0 → node 1: " in content
    assert "<title>node 1 total sends: " in content
    assert "<title>PE" not in content


@pytest.mark.parametrize("flags", [
    ["-p"], ["-l", "-p"],
    ["-l", "-p", "--export-archive", "OUT/run.aptrc"],
    ["query", "--section", "physical", "ops group by src_node"],
])
def test_trace_dir_files_are_parsed_once(trace_dir, tmp_path, monkeypatch,
                                         flags):
    """However many views, exports and queries want a text directory's
    traces, each kind's files are parsed once per invocation (``-p``
    alone used to parse ``PEi_send.csv`` twice, with ``-l`` three times;
    a physical query needs the logical trace's node layout too)."""
    from repro.core import diffing

    calls = []
    for name in ("parse_logical_dir", "parse_physical_file",
                 "parse_papi_dir", "parse_overall_file"):
        def spy(*args, _real=getattr(diffing, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(diffing, name, spy)
    if flags[0] == "query":
        argv = ["query", str(trace_dir), "--num-pes", "8", *flags[1:]]
    else:
        argv = [str(trace_dir), "--num-pes", "8", "--quiet",
                "--out", str(tmp_path),
                *(f.replace("OUT", str(tmp_path)) for f in flags)]
    assert main(argv) == 0
    if flags[0] != "query":
        assert (tmp_path / "physical_heatmap_nodes.svg").exists()
    assert calls.count("parse_logical_dir") == 1
    assert len(calls) == len(set(calls))


# ----------------------------------------------------------------------
# `actorprof faults` + `actorprof run`
# ----------------------------------------------------------------------

def test_faults_template_and_check(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["faults", "template", str(plan_path)]) == 0
    assert plan_path.exists()
    assert main(["faults", "check", str(plan_path), "--num-pes", "4"]) == 0
    out = capsys.readouterr().out
    assert "fault plan" in out and "valid for 4 PEs" in out
    # the default template crashes PE 1, so a 1-PE job rejects it
    assert main(["faults", "check", str(plan_path), "--num-pes", "1"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_faults_template_custom_crash(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["faults", "template", str(plan_path),
                 "--crash", "2:5000", "--drop", "0.25"]) == 0
    from repro.sim import FaultPlan

    plan = FaultPlan.load(plan_path)
    assert plan.crashes[0].pe == 2 and plan.crashes[0].at_cycle == 5000
    assert plan.edges[0].drop == 0.25
    assert main(["faults", "template", str(plan_path), "--crash", "bogus"]) == 2
    assert "PE:CYCLE" in capsys.readouterr().err


def test_faults_check_rejects_bad_plan(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"typo": 1}')
    assert main(["faults", "check", str(bad)]) == 2
    assert "unknown fault plan key" in capsys.readouterr().err


def test_run_healthy_exports_archive(tmp_path, capsys):
    out = tmp_path / "run.aptrc"
    rc = main(["run", "histogram", "--updates", "500", "--table-size", "128",
               "-o", str(out)])
    assert rc == 0
    assert out.exists()
    assert "updates delivered" in capsys.readouterr().out


def test_run_crash_salvages_degraded_archive(tmp_path, capsys):
    from repro.core.store.archive import load_run
    from repro.sim import CrashFault, FaultPlan

    plan_path = tmp_path / "crash.json"
    FaultPlan(crashes=(CrashFault(1, 50_000),)).save(plan_path)
    out = tmp_path / "crashed.aptrc"
    rc = main(["run", "histogram", "--updates", "500", "--table-size", "128",
               "--fault-plan", str(plan_path), "-o", str(out)])
    assert rc == 3  # failed but salvaged
    captured = capsys.readouterr()
    assert "salvaged degraded traces" in captured.err
    traces = load_run(out)
    assert traces.degraded
    assert traces.meta["crashed_pes"] == {"1": 50000}
    # without an archive path the failure is reported but nothing salvaged
    rc = main(["run", "histogram", "--updates", "500", "--table-size", "128",
               "--fault-plan", str(plan_path)])
    assert rc == 1


def test_run_rejects_misfit_plan(tmp_path, capsys):
    from repro.sim import CrashFault, FaultPlan

    plan_path = tmp_path / "crash.json"
    FaultPlan(crashes=(CrashFault(9, 1_000),)).save(plan_path)
    rc = main(["run", "histogram", "--fault-plan", str(plan_path)])
    assert rc == 2
    assert "does not fit" in capsys.readouterr().err


def test_top_level_help_names_every_subcommand(capsys):
    from repro.core.cli import _COMMANDS

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    epilog = capsys.readouterr().out.split("subcommands")[-1]
    for name in _COMMANDS:
        assert name in epilog.replace(",", " ").split(), name
    # any other first word is the visualizer's trace path
    assert main(["frobnicate"]) == 2
    assert "nothing to do" in capsys.readouterr().err
