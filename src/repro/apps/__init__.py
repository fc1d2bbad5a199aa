"""FA-BSP applications.

The workloads the paper profiles:

* :mod:`~repro.apps.histogram` — the paper's Listings 1–2 (random remote
  increments), the canonical FA-BSP hello-world.
* :mod:`~repro.apps.triangle` — distributed triangle counting
  (Algorithm 1), the Section IV case study, with 1D Cyclic / 1D Range /
  block distributions.
* :mod:`~repro.apps.index_gather` — the bale "ig" kernel as a two-mailbox
  request/response selector.
* :mod:`~repro.apps.permute` — the bale random-permutation kernel.
* :mod:`~repro.apps.transpose` — the bale sparse-transpose kernel.
* :mod:`~repro.apps.toposort` — the bale toposort kernel (asynchronous
  pivot cascades through message handlers).

Every application validates its answer against a serial reference,
mirroring the paper's assertion-based validation.
"""

from repro.apps.histogram import HistogramResult, histogram
from repro.apps.index_gather import IndexGatherResult, index_gather
from repro.apps.permute import PermuteResult, permute
from repro.apps.toposort import ToposortResult, make_toposort_input, toposort
from repro.apps.transpose import TransposeResult, transpose
from repro.apps.triangle import TriangleResult, count_triangles

__all__ = [
    "HistogramResult",
    "IndexGatherResult",
    "PermuteResult",
    "ToposortResult",
    "TransposeResult",
    "TriangleResult",
    "count_triangles",
    "histogram",
    "index_gather",
    "permute",
    "make_toposort_input",
    "toposort",
    "transpose",
]
