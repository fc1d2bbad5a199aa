"""Tests for the run-comparison (diffing) module and ``actorprof diff``."""

import numpy as np
import pytest

from repro.core.diffing import (
    LogicalDiff,
    OverallDiff,
    PhysicalDiff,
    compare_report,
    open_traces,
)
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.physical import PhysicalTrace
from repro.machine import MachineSpec


def make_logical(hot: bool):
    t = LogicalTrace(MachineSpec(1, 4))
    if hot:
        for _ in range(12):
            t.record(0, 1, 8)
    else:
        for src in range(4):
            for _ in range(3):
                t.record(src, (src + 1) % 4, 8)
    return t


def test_logical_diff():
    d = LogicalDiff.of(make_logical(True), make_logical(False))
    assert d.total_sends_a == d.total_sends_b == 12
    assert d.max_sends_ratio == pytest.approx(4.0)  # 12 vs 3
    assert d.send_imbalance_a == pytest.approx(4.0)
    assert d.send_imbalance_b == pytest.approx(1.0)
    assert d.moved_messages > 0


def test_logical_diff_different_shapes():
    a = LogicalTrace(MachineSpec(1, 2))
    a.record(0, 1, 8)
    b = make_logical(False)
    d = LogicalDiff.of(a, b)
    assert d.moved_messages == -1  # incomparable shapes flagged


def make_overall(fast: bool):
    p = OverallProfile(2)
    scale = 1 if fast else 3
    for pe in range(2):
        p.add_main(pe, 10 * scale)
        p.add_proc(pe, 20 * scale)
        p.add_total(pe, 100 * scale)
    return p


def test_overall_diff():
    d = OverallDiff.of(make_overall(False), make_overall(True))
    assert d.total_ratio == pytest.approx(3.0)
    assert d.comm_share_a == pytest.approx(0.7)
    assert d.comm_share_b == pytest.approx(0.7)


def test_physical_diff():
    a = PhysicalTrace(2)
    a.record("local_send", 100, 0, 1, 0)
    a.record("nonblock_send", 200, 0, 1, 0)
    b = PhysicalTrace(2)
    b.record("local_send", 50, 1, 0, 0)
    d = PhysicalDiff.of(a, b)
    assert d.ops_a == {"local_send": 1, "nonblock_send": 1}
    assert d.ops_b == {"local_send": 1}
    assert d.bytes_ratio == pytest.approx(6.0)


def test_compare_report_text():
    text = compare_report(
        "cyclic", "range",
        logical=LogicalDiff.of(make_logical(True), make_logical(False)),
        overall=OverallDiff.of(make_overall(False), make_overall(True)),
        physical=None,
    )
    assert "comparing 'cyclic' (A) vs 'range' (B)" in text
    assert "hottest-sender ratio 4.00x" in text
    assert "A slower" in text


def test_compare_report_empty():
    assert "no comparable traces" in compare_report("a", "b")


def test_cli_compare(tmp_path, capsys):
    """End-to-end: two profiled runs diffed through the CLI."""
    from repro.core import ActorProf, ProfileFlags
    from repro.core.cli import main
    from repro.experiments.casestudy import case_study_graph
    from repro.apps.triangle import count_triangles

    graph = case_study_graph(6)
    dirs = {}
    for dist in ("cyclic", "range"):
        ap = ActorProf(ProfileFlags.all(papi_sample_interval=64))
        count_triangles(graph, MachineSpec(2, 4), dist, profiler=ap)
        d = tmp_path / dist
        ap.write_traces(d)
        dirs[dist] = d
    rc = main(["diff", str(dirs["cyclic"]), str(dirs["range"]),
               "--num-pes", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== comparing" in out
    assert "total-time ratio A/B" in out
    assert "physical ops (A vs B)" in out
    # the one directory reader: physical.txt gets the logical trace's node
    # layout for `diff` as for the visualizer; absent kinds are absent
    (dirs["range"] / "overall.txt").unlink()
    with open_traces(dirs["range"], 8) as side:
        assert side["physical"].spec == side["logical"].spec
        assert side["physical"].spec.nodes == 2
        assert "papi" in side and "overall" not in side


def test_cli_compare_missing_dir(tmp_path, capsys):
    from repro.core.cli import main

    rc = main(["diff", str(tmp_path), str(tmp_path / "nope"),
               "--num-pes", "4", "--registry", str(tmp_path / "reg")])
    assert rc == 2
