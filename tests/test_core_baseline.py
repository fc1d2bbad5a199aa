"""Tests for the conventional/PSHMEM baseline profilers (paper §V-B)."""

import numpy as np
import pytest

from repro.apps.triangle import count_triangles
from repro.core import ActorProf, ProfileFlags
from repro.core.baseline import (
    ConventionalProfiler,
    PShmemProfiler,
    coverage_report,
)
from repro.graphs import LowerTriangular, graph500_input
from repro.hclib import run_spmd
from repro.machine import MachineSpec
from repro.shmem.runtime import ShmemCall


def test_observer_filtering_unit():
    conv = ConventionalProfiler()
    conv._observe(ShmemCall("shmem_put", 0, 1, 100, 0))
    conv._observe(ShmemCall("shmem_putmem_nbi", 0, 1, 900, 0))
    conv._observe(ShmemCall("memcpy", 0, 0, 500, 0))
    assert conv.profile.total_bytes() == 100
    assert conv.ground_truth.total_bytes() == 1500
    assert conv.byte_coverage() == pytest.approx(100 / 1500)
    assert conv.missed_ops() == {"shmem_putmem_nbi": 1, "memcpy": 1}


def test_pshmem_sees_nonblocking():
    psh = PShmemProfiler()
    psh._observe(ShmemCall("shmem_putmem_nbi", 0, 1, 900, 0))
    psh._observe(ShmemCall("memcpy", 0, 0, 100, 0))
    assert psh.byte_coverage() == pytest.approx(0.9)
    assert psh.missed_ops() == {"memcpy": 1}


def test_empty_run_full_coverage_by_convention():
    assert ConventionalProfiler().byte_coverage() == 1.0


def test_double_attach_rejected():
    conv = ConventionalProfiler()

    class FakeRuntime:
        def register_observer(self, fn):
            pass

    conv.attach(FakeRuntime())
    with pytest.raises(RuntimeError):
        conv.attach(FakeRuntime())


@pytest.fixture(scope="module")
def profiled_triangle():
    graph = LowerTriangular.from_edges(graph500_input(7, edge_factor=8, seed=2))
    conv, psh = ConventionalProfiler(), PShmemProfiler()
    ap = ActorProf(ProfileFlags(enable_trace_physical=True))
    res = count_triangles(graph, MachineSpec(2, 4), "cyclic",
                          profiler=ap, shmem_observers=[conv, psh])
    return conv, psh, ap, res


def test_conventional_profiler_misses_the_traffic(profiled_triangle):
    """The paper's §V-B argument, quantified: conventional tools see
    almost none of the payload an FA-BSP run actually moves."""
    conv, psh, ap, _ = profiled_triangle
    assert conv.byte_coverage() < 0.10
    assert "shmem_putmem_nbi" in conv.missed_ops()
    assert "memcpy" in conv.missed_ops()
    # the PSHMEM wrapper recovers the non-blocking puts...
    assert psh.byte_coverage() > conv.byte_coverage()
    assert "shmem_putmem_nbi" not in psh.missed_ops()
    # ...but still misses the shmem_ptr memcpy path entirely
    assert "memcpy" in psh.missed_ops()
    assert psh.byte_coverage() < 1.0


def test_ground_truth_agrees_with_physical_trace(profiled_triangle):
    """Conveyors' instrumented ops and the observed SHMEM calls line up:
    one nbi put per nonblock_send, one memcpy per local_send."""
    conv, _psh, ap, _ = profiled_triangle
    by_type = ap.physical.counts_by_type()
    assert conv.ground_truth.calls.get("shmem_putmem_nbi", 0) == by_type.get("nonblock_send", 0)
    assert conv.ground_truth.calls.get("memcpy", 0) == by_type.get("local_send", 0)
    # nonblock_progress = quiet + signalling put
    assert conv.ground_truth.calls.get("shmem_quiet", 0) >= 1


def test_coverage_report_text(profiled_triangle):
    conv, psh, _, _ = profiled_triangle
    text = coverage_report(conv, psh)
    assert "conventional" in text
    assert "PSHMEM" in text
    assert "ActorProf" in text


def test_observers_do_not_change_results():
    graph = LowerTriangular.from_edges(graph500_input(6, edge_factor=8, seed=0))
    machine = MachineSpec(1, 4)
    plain = count_triangles(graph, machine, "cyclic")
    observed = count_triangles(graph, machine, "cyclic",
                               shmem_observers=[ConventionalProfiler()])
    assert plain.triangles == observed.triangles
    assert plain.run.clocks == observed.run.clocks


