"""Tests for the trace-store side of the ``actorprof`` CLI.

Covers ``--export-archive``, reading ``.aptrc`` archives directly,
``actorprof runs …``, ``actorprof query`` and ``actorprof diff``.
"""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.core.cli import main
from repro.core.store.archive import load_run
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


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


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces")
    ap = ActorProf(ProfileFlags.all())
    run_spmd(program, machine=MachineSpec(2, 4), profiler=ap, seed=4)
    ap.write_traces(path)
    return path


@pytest.fixture(scope="module")
def archive(trace_dir, tmp_path_factory):
    """The same run re-packed into a .aptrc archive via the CLI."""
    path = tmp_path_factory.mktemp("arch") / "run.aptrc"
    rc = main([str(trace_dir), "--num-pes", "8", "--quiet",
               "--export-archive", str(path)])
    assert rc == 0
    return path


def test_export_archive_contains_all_kinds(trace_dir, tmp_path, capsys):
    path = tmp_path / "run.aptrc"
    rc = main([str(trace_dir), "--num-pes", "8",
               "--export-archive", str(path)])
    assert rc == 0
    assert "archived logical, overall, papi, physical" in capsys.readouterr().out
    traces = load_run(path)
    assert traces.kinds() == ("logical", "physical", "papi", "overall")


def test_archive_input_renders_without_num_pes(archive, tmp_path, capsys):
    rc = main([str(archive), "-l", "-s", "-p", "-lp", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("logical_heatmap.svg", "overall_absolute.svg",
                 "physical_heatmap.svg", "papi_bars.svg"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "total messages: 240" in out


def test_archive_charts_match_directory_charts(trace_dir, archive, tmp_path):
    from_dir, from_arch = tmp_path / "dir", tmp_path / "arch"
    assert main([str(trace_dir), "--num-pes", "8", "-l", "-p", "-s",
                 "--out", str(from_dir), "--quiet"]) == 0
    assert main([str(archive), "-l", "-p", "-s",
                 "--out", str(from_arch), "--quiet"]) == 0
    for svg in sorted(p.name for p in from_dir.iterdir()):
        assert (from_dir / svg).read_text() == (from_arch / svg).read_text()


def test_archive_query_matches_directory_query(trace_dir, archive, tmp_path,
                                               capsys):
    """``actorprof query`` prints the same lines for a trace directory,
    its archive and the archive's registered id, in either section."""
    reg = str(tmp_path / "reg")
    assert main(["runs", "add", str(archive), "--registry", reg,
                 "--id", "demo"]) == 0
    capsys.readouterr()
    for section, expr in (
            ("logical", "sends where src_node != dst_node group by src"),
            ("physical",
             "bytes where kind == nonblock_send group by dst top 3")):
        outputs = []
        for run in ([str(trace_dir), "--num-pes", "8"], [str(archive)],
                    ["demo", "--registry", reg]):
            assert main(["query", *run, expr, "--section", section]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], section
        lines = outputs[0].splitlines()
        assert lines and all(": " in line for line in lines), section


def test_archive_rejects_export_and_timeline(archive, capsys):
    assert main([str(archive), "--export-archive", "x.aptrc"]) == 2
    assert "text trace directory" in capsys.readouterr().err
    assert main([str(archive), "-t"]) == 2
    assert "trace directory" in capsys.readouterr().err


def test_suffixless_archive_is_read_by_its_magic(archive, tmp_path):
    """An archive under any name reads as one: the CLI sniffs its magic
    bytes, so it needs no flag and no ``--num-pes``."""
    renamed = tmp_path / "run.bin"
    renamed.write_bytes(archive.read_bytes())
    for source, out in ((archive, tmp_path / "a"), (renamed, tmp_path / "b")):
        assert main([str(source), "-l", "-s", "--out", str(out),
                     "--quiet"]) == 0
    for svg in ("logical_heatmap.svg", "overall_absolute.svg"):
        assert (tmp_path / "b" / svg).read_text() \
            == (tmp_path / "a" / svg).read_text()


def test_directory_requires_num_pes(trace_dir, capsys):
    for argv in ([str(trace_dir), "-l"], ["query", str(trace_dir), "sends"]):
        assert main(argv) == 2
        assert "--num-pes is required" in capsys.readouterr().err


def test_missing_archive_errors(tmp_path, capsys):
    assert main([str(tmp_path / "nope.aptrc"), "-l"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_compare_against_archive(trace_dir, archive, capsys):
    rc = main(["diff", str(trace_dir), str(archive), "--num-pes", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== comparing" in out
    assert "logical: sends A=240 B=240" in out


def test_runs_add_list_show_rm(archive, tmp_path, capsys):
    reg = str(tmp_path / "reg")
    assert main(["runs", "add", str(archive), "--registry", reg,
                 "--id", "demo"]) == 0
    assert "registered demo" in capsys.readouterr().out

    assert main(["runs", "list", "--registry", reg]) == 0
    assert "demo" in capsys.readouterr().out

    assert main(["runs", "show", "demo", "--registry", reg]) == 0
    out = capsys.readouterr().out
    assert "run:     demo" in out
    assert "section logical" in out and "section overall" in out
    assert "chunk stats (query pushdown enabled)" in out

    assert main(["runs", "rm", "demo", "--registry", reg]) == 0
    assert main(["runs", "list", "--registry", reg]) == 0
    assert "no runs registered" in capsys.readouterr().out


def test_runs_list_and_show_name_the_workload(tmp_path, capsys):
    """``runs list`` shows the descriptor's kind; ``runs show`` prints
    nested meta (the descriptor, the fault plan) as sorted compact JSON."""
    import json

    from repro.check import HistogramWorkload, make_schedules
    from repro.sim.faults import FaultPlan, SlowPE

    wl = HistogramWorkload(updates=60, table_size=16)
    plan = FaultPlan(slow_pes=(SlowPE(pe=1, multiplier=2.0),))
    wl.run(make_schedules(0, 1)[0], tmp_path / "h.aptrc", fault_plan=plan)
    reg = str(tmp_path / "reg")
    assert main(["runs", "add", str(tmp_path / "h.aptrc"), "--registry", reg,
                 "--id", "slow"]) == 0
    capsys.readouterr()
    assert main(["runs", "list", "--registry", reg]) == 0
    assert capsys.readouterr().out.split()[:2] == ["slow", "histogram"]
    assert main(["runs", "show", "slow", "--registry", reg]) == 0
    out = capsys.readouterr().out
    for key, value in [("workload", wl.descriptor()),
                       ("fault_plan", plan.to_dict())]:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert f"meta.{key}: {text}\n" in out
    assert "meta.schedule: 0\n" in out


def test_runs_show_unknown_fails(tmp_path, capsys):
    assert main(["runs", "show", "ghost",
                 "--registry", str(tmp_path / "reg")]) == 2
    assert "unknown run" in capsys.readouterr().err


def test_diff_directory_vs_archive(trace_dir, archive, capsys):
    rc = main(["diff", str(trace_dir), str(archive), "--num-pes", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== comparing" in out
    assert "logical: sends A=240 B=240" in out  # identical runs
    assert "|A−B| matrix mass = 0 messages" in out


def test_diff_two_archives_needs_no_num_pes(archive, capsys):
    assert main(["diff", str(archive), str(archive)]) == 0
    assert "== comparing" in capsys.readouterr().out


def test_diff_resolves_registry_ids(archive, tmp_path, capsys):
    reg = str(tmp_path / "reg")
    assert main(["runs", "add", str(archive), "--registry", reg,
                 "--id", "night"]) == 0
    capsys.readouterr()
    assert main(["diff", "night", str(archive), "--registry", reg]) == 0
    assert "night" in capsys.readouterr().out


def test_diff_unknown_ref_fails(tmp_path, capsys):
    assert main(["diff", "ghost-a", "ghost-b",
                 "--registry", str(tmp_path / "reg")]) == 2
    assert "diff failed" in capsys.readouterr().err


def test_diff_directories_need_num_pes(trace_dir, capsys):
    assert main(["diff", str(trace_dir), str(trace_dir)]) == 2
    assert "--num-pes" in capsys.readouterr().err
