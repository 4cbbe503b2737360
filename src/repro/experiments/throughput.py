"""Task parallelism vs data parallelism — the paper's closing trade-off.

Motivation (Sec. 1): 'In most clusters currently used for CHARMM, the
utilization of parallelism is limited to executing multiple CHARMM
calculations at the same time (task parallelism)'.  Conclusion: 'running
a single CHARMM calculation faster provides a much shorter turn-around
increasing research productivity', but 'the cost of this additional
network must be evaluated carefully'.

This driver quantifies the trade-off on a 16-node cluster with J
independent calculations queued:

* **task parallel** — each job runs serially on its own node; makespan
  is ``ceil(J / 16) * t(1)``, per-job turnaround ``t(1)``;
* **data parallel (p ranks/job)** — jobs run with p-way parallelism,
  ``16/p`` at a time; makespan ``ceil(J / (16/p)) * t(p)``.

Everything follows from the measured ``t(p)`` of the platform, so the
answer differs per network — which is exactly the paper's point about
whether Myrinet is worth buying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..campaign.runner import CharacterizationRunner
from ..core.design import DesignPoint
from ..core.factors import FOCAL_POINT
from ..core.report import format_table
from ..core.responses import ResponseRecord

__all__ = ["ThroughputPlan", "ThroughputStudy", "throughput_study"]

CLUSTER_NODES = 16


@dataclass(frozen=True)
class ThroughputPlan:
    """One way of running ``n_jobs`` calculations on the cluster."""

    network: str
    ranks_per_job: int
    job_time: float  # turnaround of a single calculation (s)
    concurrent_jobs: int
    makespan: float  # time until the whole batch finishes (s)

    @property
    def throughput(self) -> float:
        """Jobs per second of the steady-state pipeline."""
        return self.concurrent_jobs / self.job_time


@dataclass
class ThroughputStudy:
    """All plans for a batch plus the rendered comparison table."""

    n_jobs: int
    plans: list[ThroughputPlan]
    report: str

    def best_makespan(self, network: str) -> ThroughputPlan:
        candidates = [p for p in self.plans if p.network == network]
        if not candidates:
            raise ValueError(f"no plans for network {network!r}")
        return min(candidates, key=lambda p: p.makespan)

    def best_turnaround(self, network: str) -> ThroughputPlan:
        candidates = [p for p in self.plans if p.network == network]
        if not candidates:
            raise ValueError(f"no plans for network {network!r}")
        return min(candidates, key=lambda p: p.job_time)


def _plan(network: str, record: ResponseRecord, n_jobs: int) -> ThroughputPlan:
    p = record.n_ranks
    concurrent = max(1, CLUSTER_NODES // p)
    waves = math.ceil(n_jobs / concurrent)
    return ThroughputPlan(
        network=network,
        ranks_per_job=p,
        job_time=record.total_time,
        concurrent_jobs=concurrent,
        makespan=waves * record.total_time,
    )


def throughput_study(
    runner: CharacterizationRunner,
    n_jobs: int = 32,
    networks: tuple[str, ...] = ("tcp-gige", "score-gige", "myrinet"),
    processor_levels: tuple[int, ...] = (1, 2, 4, 8),
) -> ThroughputStudy:
    """Conclusion trade-off: task vs data parallelism for a queued batch.

    Measures t(p) per network and derives the batch plans for ``n_jobs``.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    plans: list[ThroughputPlan] = []
    for network in networks:
        cfg = FOCAL_POINT.with_level("network", network)
        records = runner.measure(
            [DesignPoint(config=cfg, n_ranks=p) for p in processor_levels]
        )
        for record in records:
            plans.append(_plan(network, record, n_jobs))

    rows = [
        [
            p.network,
            p.ranks_per_job,
            p.job_time,
            p.concurrent_jobs,
            p.makespan,
            3600.0 * p.throughput,
        ]
        for p in plans
    ]
    report = (
        f"== Task vs data parallelism: {n_jobs} calculations on "
        f"{CLUSTER_NODES} nodes ==\n"
        + format_table(
            [
                "network",
                "ranks/job",
                "turnaround (s)",
                "jobs at once",
                "makespan (s)",
                "jobs/hour",
            ],
            rows,
            precision=2,
        )
    )
    return ThroughputStudy(n_jobs=n_jobs, plans=plans, report=report)
