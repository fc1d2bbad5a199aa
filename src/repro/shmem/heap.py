"""Symmetric heap: identically-shaped allocations on every PE.

In OpenSHMEM, ``shmem_malloc`` is a collective: every PE allocates the same
size and the returned addresses are "symmetric" — the same offset on every
PE, so a remote PE can be addressed by (symmetric address, rank).  Here the
equivalent is :class:`SymmetricArray`: handle number ``i`` refers to the
``i``-th collective allocation, and indexes a per-PE numpy array.
"""

from __future__ import annotations

import numpy as np

from repro.sim.errors import SimulationError


class SymmetricArray:
    """Handle to one collective allocation across all PEs.

    Obtained from :meth:`SymmetricHeap.alloc` (via
    :meth:`~repro.shmem.runtime.ShmemContext.malloc` in SPMD code).  The
    handle itself is shared; ``local(rank)`` returns rank's backing array.
    """

    def __init__(self, alloc_id: int, shape: tuple[int, ...], dtype: np.dtype, n_pes: int):
        self.alloc_id = alloc_id
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self._backing: list[np.ndarray | None] = [None] * n_pes

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.itemsize

    def local(self, rank: int) -> np.ndarray:
        """The backing array on PE ``rank`` (allocated lazily, zero-filled)."""
        arr = self._backing[rank]
        if arr is None:
            arr = np.zeros(self.shape, dtype=self.dtype)
            self._backing[rank] = arr
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SymmetricArray(id={self.alloc_id}, shape={self.shape}, "
            f"dtype={self.dtype})"
        )


class SymmetricHeap:
    """Allocation bookkeeping shared by all PEs.

    SPMD programs call ``malloc`` symmetrically: the ``k``-th allocation on
    every PE must agree on shape and dtype, mirroring the collective
    semantics of ``shmem_malloc``.  Divergent calls raise
    :class:`~repro.sim.errors.SimulationError` — that is a genuine SPMD
    bug worth failing loudly on.
    """

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self._allocs: list[SymmetricArray] = []
        self._next_id: list[int] = [0] * n_pes  # per-PE allocation cursor

    def alloc(self, rank: int, shape: tuple[int, ...] | int, dtype) -> SymmetricArray:
        """Record PE ``rank``'s next symmetric allocation and return it."""
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimension in shape {shape}")
        dtype = np.dtype(dtype)
        idx = self._next_id[rank]
        self._next_id[rank] += 1
        if idx < len(self._allocs):
            arr = self._allocs[idx]
            if arr.shape != shape or arr.dtype != dtype:
                raise SimulationError(
                    f"symmetric allocation #{idx} diverged: PE {rank} asked for "
                    f"{shape}/{dtype} but an earlier PE allocated "
                    f"{arr.shape}/{arr.dtype}"
                )
            return arr
        if idx != len(self._allocs):  # pragma: no cover - cursor invariant
            raise SimulationError("symmetric heap cursor out of sync")
        arr = SymmetricArray(idx, shape, dtype, self.n_pes)
        self._allocs.append(arr)
        return arr
