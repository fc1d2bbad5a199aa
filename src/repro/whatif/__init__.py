"""``repro.whatif`` — causal what-if profiling.

Critical-path analysis over the happens-before DAG of one profiled run,
plus a virtual-speedup engine that *replays* the workload under
perturbed cost models and diffs the T_* totals against baseline.  See
``docs/WHATIF.md`` for the DAG model and the scaling semantics.
"""

from repro.whatif.dag import DagRecorder, EventDag, Transfer, build_dag
from repro.whatif.engine import parse_sweep
from repro.whatif.perturb import Scales, WhatifProfiler, parse_scale
from repro.whatif.replay import execute_point, run_totals, run_whatif_point

__all__ = [
    "DagRecorder",
    "EventDag",
    "Scales",
    "Transfer",
    "WhatifProfiler",
    "build_dag",
    "execute_point",
    "parse_scale",
    "parse_sweep",
    "run_totals",
    "run_whatif_point",
]
