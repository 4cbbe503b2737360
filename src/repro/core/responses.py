"""Response variables: what one measured run reports.

The paper's response variables (Sec. 3.1): wall-clock time of the classic
and PME energy calculations, their computation/communication/
synchronization breakdowns, and per-node communication speeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel.result import ParallelRunResult
from .design import DesignPoint

__all__ = ["ResponseRecord"]


@dataclass(frozen=True)
class ResponseRecord:
    """Flat response-variable row for one design point."""

    network: str
    middleware: str
    cpus_per_node: int
    n_ranks: int
    replicate: int

    wall_time: float
    classic_time: float
    pme_time: float
    classic_comp: float
    classic_comm: float
    classic_sync: float
    pme_comp: float
    pme_comm: float
    pme_sync: float
    comm_mean_mbs: float
    comm_min_mbs: float
    comm_max_mbs: float
    final_energy: float
    strategy: str = "replicated"

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        return self.classic_time + self.pme_time

    @property
    def classic_overhead_fraction(self) -> float:
        if self.classic_time <= 0:
            return 0.0
        return (self.classic_comm + self.classic_sync) / self.classic_time

    @property
    def pme_overhead_fraction(self) -> float:
        if self.pme_time <= 0:
            return 0.0
        return (self.pme_comm + self.pme_sync) / self.pme_time

    @property
    def total_comp(self) -> float:
        return self.classic_comp + self.pme_comp

    @property
    def total_comm(self) -> float:
        return self.classic_comm + self.pme_comm

    @property
    def total_sync(self) -> float:
        return self.classic_sync + self.pme_sync

    # ------------------------------------------------------------------
    @classmethod
    def from_run(cls, point: DesignPoint, result: ParallelRunResult) -> "ResponseRecord":
        classic = result.component("classic")
        pme = result.component("pme")
        stats = result.comm_stats()
        return cls(
            network=point.config.network,
            middleware=point.config.middleware,
            cpus_per_node=point.config.cpus_per_node,
            n_ranks=point.n_ranks,
            replicate=point.replicate,
            wall_time=result.wall_time(),
            classic_time=classic.total,
            pme_time=pme.total,
            classic_comp=classic.comp,
            classic_comm=classic.comm,
            classic_sync=classic.sync,
            pme_comp=pme.comp,
            pme_comm=pme.comm,
            pme_sync=pme.sync,
            comm_mean_mbs=stats.mean,
            comm_min_mbs=stats.minimum,
            comm_max_mbs=stats.maximum,
            final_energy=result.energies[-1].total if result.energies else float("nan"),
            strategy=getattr(point, "strategy", "replicated"),
        )
