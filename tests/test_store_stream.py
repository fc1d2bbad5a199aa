"""Tests for the streaming TraceArchiver (incremental spill to .aptrc)."""

import numpy as np
import pytest

from repro.core import ActorProf, LiveMonitor, ProfileFlags
from repro.core.store.archive import Archive, ArchiveError, load_run
from repro.core.store.registry import file_sha256
from repro.core.store.writer import TraceArchiver
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec
from repro.sim.errors import SimulationError

from tests.trace_oracle import same_trace


class Inc(Actor):
    def __init__(self, ctx, arr):
        super().__init__(ctx)
        self.arr = arr

    def process(self, idx, sender):
        self.arr[idx] += 1


async def program(ctx):
    arr = np.zeros(8, dtype=np.int64)
    a = Inc(ctx, arr)
    async with ctx.finish():
        a.start()
        for i in range(60):
            a.send(int(ctx.rng.integers(0, 8)),
                   int(ctx.rng.integers(0, ctx.n_pes)))
        a.done()
    return int(arr.sum())


def reference_run(seed=3):
    ap = ActorProf(ProfileFlags.all())
    run_spmd(program, machine=MachineSpec(2, 4), profiler=ap, seed=seed)
    return ap


def test_streamed_archive_equals_in_memory(tmp_path):
    """Spilled partial aggregates merge back to the exact traces."""
    reference = reference_run()
    arch = TraceArchiver(tmp_path / "run.aptrc", spill_every=50,
                         meta={"app": "stream"})
    run_spmd(program, machine=MachineSpec(2, 4), profiler=arch, seed=3)
    path = arch.close()
    assert arch.spills > 2  # the run actually streamed in several chunks
    traces = load_run(path)
    assert traces.meta["app"] == "stream"
    assert same_trace(traces.logical, reference.logical)
    assert same_trace(traces.physical, reference.physical)


def test_streamed_chunks_are_visible_in_footer(tmp_path):
    arch = TraceArchiver(tmp_path / "run.aptrc", spill_every=25)
    run_spmd(program, machine=MachineSpec(2, 4), profiler=arch, seed=3)
    arch.close()
    with Archive(tmp_path / "run.aptrc") as archive:
        section = archive.section("logical")
        chunks = section.chunk_refs("count")
        assert len(chunks) > 1  # multiple spills → multiple chunks
        assert section.rows == sum(c.count for c in chunks)


def test_archiver_wrapping_inner_profiler(tmp_path):
    """With an inner ActorProf, PAPI + overall sections ride along."""
    inner = ActorProf(ProfileFlags.all())
    arch = TraceArchiver(tmp_path / "run.aptrc", inner=inner, spill_every=40)
    run_spmd(program, machine=MachineSpec(2, 4), profiler=arch, seed=5)
    path = arch.close()
    traces = load_run(path)
    assert traces.kinds() == ("logical", "physical", "papi", "overall")
    assert same_trace(traces.logical, inner.logical)
    assert (traces.overall.t_total == inner.overall.t_total).all()
    assert same_trace(traces.papi, inner.papi_trace)


def test_archiver_wrapping_live_monitor(tmp_path):
    """TraceArchiver composes with other hook decorators."""
    live = LiveMonitor(None, snapshot_every=50)
    arch = TraceArchiver(tmp_path / "run.aptrc", inner=live, spill_every=30)
    run_spmd(program, machine=MachineSpec(2, 4), profiler=arch, seed=3)
    arch.close()
    assert live.current().total_sends == 480  # 60 sends × 8 PEs
    assert load_run(tmp_path / "run.aptrc").logical.total_sends() == 480


def test_archiver_single_use(tmp_path):
    """One rule, one message: the recorder and both decorators refuse a
    second attach, and the refused call leaves the first run's state."""
    arch = TraceArchiver(tmp_path / "run.aptrc")
    live = LiveMonitor(None, snapshot_every=100)
    for profiler in (arch, live, ActorProf(ProfileFlags.all())):
        run_spmd(program, machine=MachineSpec(2, 4), profiler=profiler, seed=3)
        with pytest.raises(SimulationError, match=(
                f"a {type(profiler).__name__} instance profiles exactly "
                f"one run")):
            profiler.attach(object())
    arch.close()
    assert len(live.snapshots) == 4 and live.current().total_sends == 480


def test_close_and_salvage_are_idempotent(tmp_path):
    """A second close() — and a salvage() after close() — returns the
    path and writes nothing, with or without inner PAPI/overall."""
    for inner in (None, ActorProf(ProfileFlags.all())):
        arch = TraceArchiver(tmp_path / f"inner-{inner is not None}.aptrc",
                             inner=inner, spill_every=40)
        run_spmd(program, machine=MachineSpec(2, 4), profiler=arch, seed=5)
        path = arch.close()
        written = (path.read_bytes(), arch.spills)
        assert arch.close() == path
        assert arch.salvage(failure=RuntimeError("too late")) == path
        assert (path.read_bytes(), arch.spills) == written
        assert not load_run(path).degraded


#: sha256 of streamed archives: (spill_every, seed, inner ActorProf?).
#: Re-pinned when format version 2 changed the chunk bytes; every decoded
#: column, attr, chunk count and stat was compared equal to the v1 pins'
#: (written while the archiver still kept its own aggregate dicts, PR 13).
#: Re-pinned for format version 3: each file's version-2 spelling
#: (``tests/archive_tools.as_v2``) is the previous pin, byte for byte.
STREAMED_SHA256 = {
    (25, 3, False):
        "7ce673f3881f3e42eb118fac1cd7652ff3ec0e7a81f290627d92fd62acbebd2a",
    (50, 3, False):
        "323b526be8b71bd639e7288254b8e7c14130c55e81deb9cab7ebe8cf642c815a",
    (40, 5, True):
        "d7b8bc582383060973df9dc2c42cfbceeca031dede6d6fcb1e55b3d49023b380",
}


def test_streamed_archive_bytes_are_pinned(tmp_path):
    """Recording through LogicalTrace/PhysicalTrace and spilling their
    ``to_columns()`` keeps row order, attr order and chunking."""
    for (spill_every, seed, with_inner), want in STREAMED_SHA256.items():
        inner = ActorProf(ProfileFlags.all()) if with_inner else None
        arch = TraceArchiver(tmp_path / f"s{spill_every}.aptrc", inner=inner,
                             spill_every=spill_every)
        run_spmd(program, machine=MachineSpec(2, 4), profiler=arch, seed=seed)
        assert file_sha256(arch.close()) == want, (spill_every, seed, with_inner)


def test_archiver_requires_attach(tmp_path):
    arch = TraceArchiver(tmp_path / "run.aptrc")
    with pytest.raises(ArchiveError, match="not attached"):
        arch.close()
    with pytest.raises(ArchiveError, match="not attached"):
        arch.spill()


def test_bad_spill_every():
    with pytest.raises(ValueError):
        TraceArchiver("x.aptrc", spill_every=0)
