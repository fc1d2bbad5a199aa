"""The ``tri_batch`` benchmark's runtime shape, pinned at a tier-1 scale.

The benchmark workload (``benchmarks/e2e/wl_sim.py::Triangle``) at scale
7 instead of 10: graph500 R-MAT with edge factor 12, ``perlmutter_like(2,
16)``, cyclic distribution, 64-item conveyor buffers, batched handlers,
every profiler flag plus the timeline.  A host-side optimisation of the
conveyor → handler path must leave every number below unchanged: the
scheduler's counters, every PE's virtual clock, the physical op counts
and the archive bytes.  A change that moves one of them changed what the
simulator does, not only what it costs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import ActorProf, ConveyorConfig, MachineSpec, ProfileFlags
from repro.apps import count_triangles
from repro.graphs import LowerTriangular, graph500_input

SCALE, EDGE_FACTOR, SEED = 7, 12, 0

STATS = {"handoffs": 324, "selections": 336, "pred_evals": 477,
         "yield_fast": 10, "events_fired": 0, "event_batches": 0}
CLOCKS_SHA256 = "c7ed2edf445b4ce2d3ea304d7c6ff6e425c8c379a7c567c65f3a0d5fbe3deb7c"
PHYSICAL = {"local_send": 263, "nonblock_send": 99, "nonblock_progress": 91}
#: (format version 3; its version-2 spelling is the previous pin)
ARCHIVE_SHA256 = "a9c7a21ab29318197d1c7465e4a205ebf506fa9051ff0f42572bfa1fe552a2ad"


def test_tri_batch_shape_is_pinned(tmp_path):
    graph = LowerTriangular.from_edges(
        graph500_input(SCALE, EDGE_FACTOR, seed=SEED))
    ap = ActorProf(ProfileFlags.all(enable_timeline=True,
                                    papi_sample_interval=1))
    result = count_triangles(graph, MachineSpec.perlmutter_like(2, 16),
                             "cyclic", profiler=ap,
                             conveyor_config=ConveyorConfig(buffer_items=64),
                             batch=True, validate=True, seed=SEED)
    stats = result.run.world.scheduler.stats
    assert {name: getattr(stats, name) for name in STATS} == STATS
    clocks = np.asarray(result.run.clocks, dtype=np.int64).tobytes()
    assert hashlib.sha256(clocks).hexdigest() == CLOCKS_SHA256
    assert {k: v for k, v in ap.physical.counts_by_type().items()
            if v} == PHYSICAL
    path = tmp_path / "run.aptrc"
    ap.export_archive(path, meta={"app": "Triangle", "seed": SEED}, lod=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARCHIVE_SHA256
