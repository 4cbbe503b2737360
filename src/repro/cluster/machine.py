"""Cluster topology: nodes, CPUs and rank placement.

The experimental CoPs cluster of the paper: 16 dual-Pentium-III (1 GHz)
nodes.  A :class:`ClusterSpec` fixes how many ranks run and how they map
onto nodes (one or two per node — the paper's third factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import NetworkParams

__all__ = ["NodeSpec", "ClusterSpec", "DUAL_CPU_MEMORY_CONTENTION"]

#: Compute slowdown when two ranks share one memory bus and chipset (the
#: measured SMP scaling of dual-PIII boards on memory-bound codes).
DUAL_CPU_MEMORY_CONTENTION = 1.12


@dataclass(frozen=True)
class NodeSpec:
    """One PC in the cluster.

    ``cpu_speed`` scales all compute costs (1.0 = the paper's 1 GHz
    Pentium III); it exists so extrapolation experiments can model faster
    hosts without touching the cost model.
    """

    cpus_per_node: int = 1
    cpu_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cpus_per_node not in (1, 2):
            raise ValueError("cpus_per_node must be 1 or 2 (the paper's levels)")
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """A fully specified platform: ranks, placement, network, seed."""

    n_ranks: int
    network: NetworkParams
    node: NodeSpec = field(default_factory=NodeSpec)
    max_nodes: int = 16  # the CoPs cluster size
    seed: int = 2002

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.n_nodes > self.max_nodes:
            raise ValueError(
                f"{self.n_ranks} ranks on {self.node.cpus_per_node}-CPU nodes "
                f"needs {self.n_nodes} nodes; the cluster has {self.max_nodes}"
            )

    @property
    def n_nodes(self) -> int:
        c = self.node.cpus_per_node
        return (self.n_ranks + c - 1) // c

    def node_of(self, rank: int) -> int:
        """Block placement: ranks 2k and 2k+1 share node k on dual nodes."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.node.cpus_per_node

    @property
    def compute_scale(self) -> float:
        """Multiplier on compute time per rank (clock + SMP bus contention)."""
        contention = DUAL_CPU_MEMORY_CONTENTION if self.node.cpus_per_node == 2 else 1.0
        return contention / self.node.cpu_speed

    def describe(self) -> str:
        return (
            f"{self.n_ranks} ranks on {self.n_nodes} nodes "
            f"({self.node.cpus_per_node} CPU/node), {self.network.name}"
        )
