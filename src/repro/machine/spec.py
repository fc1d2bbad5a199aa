"""Cluster shape: nodes, PEs, and the node/PE mapping.

The paper's experiments run on 1 or 2 Perlmutter CPU nodes with 16 PEs per
node.  Only the topology of the allocation matters to ActorProf (which PE
pairs are intra-node vs inter-node), so :class:`MachineSpec` captures
exactly that, plus a few descriptive fields used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """Shape of the simulated cluster.

    PEs are numbered ``0 .. nodes*pes_per_node - 1`` in node-major order:
    node ``k`` hosts PEs ``k*pes_per_node .. (k+1)*pes_per_node - 1``.  This
    matches the default SPMD layout of OpenSHMEM launchers.

    Parameters
    ----------
    nodes:
        Number of cluster nodes.
    pes_per_node:
        PEs (OpenSHMEM processing elements) per node; one actor per PE.
    name:
        Free-form description used in reports.
    """

    nodes: int
    pes_per_node: int
    name: str = "simulated-cluster"

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError(f"need at least one node: {self.nodes}")
        if self.pes_per_node <= 0:
            raise ValueError(f"need at least one PE per node: {self.pes_per_node}")

    @property
    def n_pes(self) -> int:
        """Total number of PEs in the allocation."""
        return self.nodes * self.pes_per_node

    def node_of(self, pe: int) -> int:
        """Node index hosting PE ``pe``."""
        self._check_pe(pe)
        return pe // self.pes_per_node

    def local_index(self, pe: int) -> int:
        """Position of ``pe`` within its node (0-based)."""
        self._check_pe(pe)
        return pe % self.pes_per_node

    def pe_at(self, node: int, local: int) -> int:
        """Global PE number for position ``local`` on ``node``."""
        if not 0 <= node < self.nodes:
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        if not 0 <= local < self.pes_per_node:
            raise ValueError(
                f"local index {local} out of range [0, {self.pes_per_node})"
            )
        return node * self.pes_per_node + local

    def same_node(self, a: int, b: int) -> bool:
        """True when PEs ``a`` and ``b`` share a node."""
        self._check_pe(a)
        self._check_pe(b)
        return a // self.pes_per_node == b // self.pes_per_node

    def node_pes(self, node: int) -> range:
        """The PEs hosted on ``node``."""
        if not 0 <= node < self.nodes:
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        start = node * self.pes_per_node
        return range(start, start + self.pes_per_node)

    def _check_pe(self, pe: int) -> None:
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range [0, {self.n_pes})")

    def attrs(self) -> dict:
        """The shape as trace-section attrs / archive footer metadata —
        the one spelling of these keys (:meth:`from_attrs` reads it back)."""
        return {"nodes": self.nodes, "pes_per_node": self.pes_per_node,
                "machine_name": self.name}

    @classmethod
    def from_attrs(cls, attrs) -> "MachineSpec":
        """Inverse of :meth:`attrs`; ``KeyError`` names a missing shape
        key (``machine_name`` is optional)."""
        return cls(nodes=int(attrs["nodes"]),
                   pes_per_node=int(attrs["pes_per_node"]),
                   name=str(attrs.get("machine_name", "simulated-cluster")))

    @classmethod
    def perlmutter_like(cls, nodes: int = 1, pes_per_node: int = 16) -> "MachineSpec":
        """The paper's experimental shapes: 1×16 and 2×16."""
        return cls(nodes=nodes, pes_per_node=pes_per_node, name="perlmutter-like")
