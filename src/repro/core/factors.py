"""The experimental factor space (the paper's Figure 1).

Three platform factors, each with discrete levels:

* **networking** — ``tcp-gige`` | ``score-gige`` | ``myrinet``
  (plus the prior-work ``tcp-fast-ethernet`` extension level);
* **middleware** — ``mpi`` | ``cmpi``;
* **cpus per node** — ``1`` | ``2``.

A :class:`PlatformConfig` is one point of the space; the *focal point* of
the paper's fractional design is MPI over TCP/IP on Gigabit Ethernet with
uni-processor nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from ..cluster.machine import ClusterSpec, NodeSpec
from ..cluster.network import NETWORKS

__all__ = ["Factor", "FactorSpace", "PlatformConfig", "FOCAL_POINT", "PAPER_FACTOR_SPACE"]

MIDDLEWARE_LEVELS = ("mpi", "cmpi")
CPU_LEVELS = (1, 2)


@dataclass(frozen=True)
class Factor:
    """One experimental factor and its discrete levels."""

    name: str
    levels: tuple

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ValueError(f"factor {self.name!r} needs at least two levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"factor {self.name!r} has duplicate levels")


@dataclass(frozen=True)
class PlatformConfig:
    """One point in the factor space."""

    network: str = "tcp-gige"
    middleware: str = "mpi"
    cpus_per_node: int = 1

    def __post_init__(self) -> None:
        if self.network not in NETWORKS:
            raise ValueError(f"unknown network level {self.network!r}")
        if self.middleware not in MIDDLEWARE_LEVELS:
            raise ValueError(f"unknown middleware level {self.middleware!r}")
        if self.cpus_per_node not in CPU_LEVELS:
            raise ValueError(f"cpus_per_node must be one of {CPU_LEVELS}")

    def cluster_spec(self, n_ranks: int, seed: int = 2002, max_nodes: int = 16) -> ClusterSpec:
        """Materialize this configuration for a given processor count."""
        return ClusterSpec(
            n_ranks=n_ranks,
            network=NETWORKS[self.network](),
            node=NodeSpec(cpus_per_node=self.cpus_per_node),
            max_nodes=max_nodes,
            seed=seed,
        )

    def label(self) -> str:
        cpus = "uni" if self.cpus_per_node == 1 else "dual"
        return f"{self.network}/{self.middleware}/{cpus}"

    def with_level(self, factor_name: str, level) -> "PlatformConfig":
        """A copy with one factor moved to a different level."""
        if factor_name == "network":
            return replace(self, network=level)
        if factor_name == "middleware":
            return replace(self, middleware=level)
        if factor_name == "cpus_per_node":
            return replace(self, cpus_per_node=level)
        raise ValueError(f"unknown factor {factor_name!r}")


#: The reference case of the paper's fractional factorial design.
FOCAL_POINT = PlatformConfig(network="tcp-gige", middleware="mpi", cpus_per_node=1)


@dataclass(frozen=True)
class FactorSpace:
    """A set of factors spanning a discrete design space."""

    factors: tuple[Factor, ...] = field(
        default_factory=lambda: (
            Factor("network", ("tcp-gige", "score-gige", "myrinet")),
            Factor("middleware", MIDDLEWARE_LEVELS),
            Factor("cpus_per_node", CPU_LEVELS),
        )
    )

    def __post_init__(self) -> None:
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValueError("duplicate factor names")

    def points(self) -> Iterator[PlatformConfig]:
        """Every configuration of the full factorial design."""

        def rec(i: int, cfg: PlatformConfig) -> Iterator[PlatformConfig]:
            if i == len(self.factors):
                yield cfg
                return
            f = self.factors[i]
            for level in f.levels:
                yield from rec(i + 1, cfg.with_level(f.name, level))

        yield from rec(0, FOCAL_POINT)


#: The 3 x 2 x 2 = 12-point space of the paper (Sec. 3.1: "all 12 cases").
PAPER_FACTOR_SPACE = FactorSpace()
