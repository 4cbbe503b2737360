"""Result container for one simulated parallel MD run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.machine import ClusterSpec
from ..cluster.state import TransferRecord
from ..instrument.commstats import CommSpeedStats, communication_speeds
from ..instrument.timeline import PhaseTotals, Timeline
from ..md.energy import EnergyBreakdown
from .pmd import MDRunConfig

__all__ = ["ParallelRunResult"]


@dataclass
class ParallelRunResult:
    """Everything one run of the simulated cluster produced.

    Time conventions (matching how the paper reports):

    * :meth:`wall_time` — the job's wall clock: the maximum over ranks of
      their total attributed time.
    * :meth:`component` — per-phase breakdown averaged over ranks (the
      stacked-bar charts of Figures 3-9 show per-calculation times; the
      average is the standard way to aggregate per-rank timelines).
    """

    spec: ClusterSpec
    config: MDRunConfig
    energies: list[EnergyBreakdown]
    timelines: list[Timeline]
    transfers: list[TransferRecord]
    final_positions: np.ndarray
    middleware: str = "mpi"
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def wall_time(self) -> float:
        return max(tl.total_seconds() for tl in self.timelines)

    def component(self, phase: str) -> PhaseTotals:
        """Mean per-rank breakdown of one phase (seconds)."""
        totals = [tl.phase_totals(phase) for tl in self.timelines]
        n = len(totals)
        return PhaseTotals(
            comp=sum(t.comp for t in totals) / n,
            comm=sum(t.comm for t in totals) / n,
            sync=sum(t.sync for t in totals) / n,
        )

    def component_time(self, phase: str) -> float:
        return self.component(phase).total

    def total_breakdown(self) -> PhaseTotals:
        """Mean per-rank breakdown of the whole energy calculation."""
        out = PhaseTotals()
        phases = {p for tl in self.timelines for p in tl.phases}
        for phase in phases:
            out = out + self.component(phase)
        return out

    def comm_stats(self) -> CommSpeedStats:
        """Figure 7 statistics: per-node communication speeds (MB/s)."""
        return communication_speeds(self.transfers)
