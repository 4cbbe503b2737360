"""One driver per figure of the paper's evaluation section.

Each ``figureN`` function runs (or recalls) the design points that figure
plots, and returns a :class:`FigureResult` with the structured series and
a printable report matching the paper's rows.  The benchmark harness under
``benchmarks/`` times these drivers and prints their reports; the
integration tests assert the paper's qualitative claims on the series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaign.runner import CharacterizationRunner
from ..core.design import DesignPoint
from ..core.factors import FOCAL_POINT
from ..core.report import breakdown_table, speed_table, time_series_table
from ..core.responses import ResponseRecord
from ..parallel.pmd import MDRunConfig
from ..workloads.cache import myoglobin_system, myoglobin_workload

__all__ = [
    "FigureResult",
    "default_runner",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "fast_ethernet_comparison",
    "extrapolation",
    "grid_outlook",
    "ALL_FIGURES",
]

NETWORK_LEVELS = ("tcp-gige", "score-gige", "myrinet")


@dataclass
class FigureResult:
    """Structured output of one figure driver."""

    figure: str
    description: str
    records: list[ResponseRecord]
    report: str
    series: dict = field(default_factory=dict)

    def by_platform(self) -> dict[str, list[ResponseRecord]]:
        """Records grouped by platform label, each sorted by rank count."""
        groups: dict[str, list[ResponseRecord]] = {}
        for r in self.records:
            cpus = "uni" if r.cpus_per_node == 1 else "dual"
            groups.setdefault(f"{r.network}/{r.middleware}/{cpus}", []).append(r)
        for recs in groups.values():
            recs.sort(key=lambda r: r.n_ranks)
        return groups


def default_runner(n_steps: int = 10, store=None) -> CharacterizationRunner:
    """A runner over the paper's 3552-atom benchmark system.

    ``store`` optionally names a persistent
    :class:`~repro.campaign.store.ResultStore` so regenerated figures
    share design-point results with campaign runs (and with each other,
    across processes); warm-cache regeneration then performs no MD work.
    """
    mg = myoglobin_workload()
    return CharacterizationRunner(
        system=myoglobin_system("pme"),
        positions=mg.positions,
        config=MDRunConfig(n_steps=n_steps),
        store=store,
    )


# ----------------------------------------------------------------------
def figure3(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 3: classic vs PME wall time, reference case, p = 1, 2, 4, 8."""
    records = runner.sweep(FOCAL_POINT)
    series = {
        "p": [r.n_ranks for r in records],
        "classic": [r.classic_time for r in records],
        "pme": [r.pme_time for r in records],
        "total": [r.total_time for r in records],
    }
    return FigureResult(
        figure="figure3",
        description="Execution time of the total energy calculation (reference case)",
        records=records,
        report=time_series_table(records, "Figure 3: TCP/IP + MPI + uni-processor"),
        series=series,
    )


def figure4(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 4: % comp/comm/sync for classic (a) and PME (b), reference case."""
    records = runner.sweep(FOCAL_POINT)
    series = {
        "p": [r.n_ranks for r in records],
        "classic_overhead": [r.classic_overhead_fraction for r in records],
        "pme_overhead": [r.pme_overhead_fraction for r in records],
    }
    report = "\n\n".join(
        [
            breakdown_table(records, "classic", "Figure 4a: reference case"),
            breakdown_table(records, "pme", "Figure 4b: reference case"),
        ]
    )
    return FigureResult(
        figure="figure4",
        description="Breakdown of classic and PME energy calculations (reference case)",
        records=records,
        report=report,
        series=series,
    )


def figure5(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 5: wall times for TCP/IP vs SCore vs Myrinet (MPI, uni)."""
    records: list[ResponseRecord] = []
    for network in NETWORK_LEVELS:
        records += runner.sweep(FOCAL_POINT.with_level("network", network))
    series = {
        network: [r.total_time for r in records if r.network == network]
        for network in NETWORK_LEVELS
    }
    series["p"] = sorted({r.n_ranks for r in records})
    return FigureResult(
        figure="figure5",
        description="Execution time of the total energy calculation for different networks",
        records=records,
        report=time_series_table(records, "Figure 5: networks (MPI, uni-processor)"),
        series=series,
    )


def figure6(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 6: % breakdown per network, classic (a) and PME (b)."""
    records: list[ResponseRecord] = []
    for network in NETWORK_LEVELS:
        records += runner.sweep(FOCAL_POINT.with_level("network", network))
    series = {
        f"{network}_{comp}": [
            getattr(r, f"{comp}_overhead_fraction")
            for r in records
            if r.network == network
        ]
        for network in NETWORK_LEVELS
        for comp in ("classic", "pme")
    }
    report = "\n\n".join(
        [
            breakdown_table(records, "classic", "Figure 6a: networks"),
            breakdown_table(records, "pme", "Figure 6b: networks"),
        ]
    )
    return FigureResult(
        figure="figure6",
        description="Breakdown per network (MPI, uni-processor)",
        records=records,
        report=report,
        series=series,
    )


def figure7(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 7: average and min/max per-node communication speed."""
    records: list[ResponseRecord] = []
    for network in NETWORK_LEVELS:
        cfg = FOCAL_POINT.with_level("network", network)
        points = [DesignPoint(config=cfg, n_ranks=p) for p in (2, 4, 8)]
        records += runner.measure(points)
    series = {
        network: {
            "mean": [r.comm_mean_mbs for r in records if r.network == network],
            "min": [r.comm_min_mbs for r in records if r.network == network],
            "max": [r.comm_max_mbs for r in records if r.network == network],
        }
        for network in NETWORK_LEVELS
    }
    return FigureResult(
        figure="figure7",
        description="Average and variability of communication speed per node",
        records=records,
        report=speed_table(records, "Figure 7: communication speed per node"),
        series=series,
    )


def figure8(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 8: MPI vs CMPI middleware (TCP/IP, uni-processor)."""
    records = runner.sweep(FOCAL_POINT)
    records += runner.sweep(FOCAL_POINT.with_level("middleware", "cmpi"))
    series = {
        mw: {
            "classic": [r.classic_time for r in records if r.middleware == mw],
            "pme": [r.pme_time for r in records if r.middleware == mw],
            "total": [r.total_time for r in records if r.middleware == mw],
            "sync": [r.total_sync for r in records if r.middleware == mw],
        }
        for mw in ("mpi", "cmpi")
    }
    report = "\n\n".join(
        [
            time_series_table(records, "Figure 8a: middleware (TCP/IP, uni)"),
            breakdown_table(records, "total", "Figure 8b: middleware"),
        ]
    )
    return FigureResult(
        figure="figure8",
        description="Impact of the middleware (MPI vs CMPI)",
        records=records,
        report=report,
        series=series,
    )


def figure9(runner: CharacterizationRunner) -> FigureResult:
    """Fig. 9: uni vs dual CPUs per node, on TCP/IP (a) and Myrinet (b)."""
    records: list[ResponseRecord] = []
    for network in ("tcp-gige", "myrinet"):
        for cpus in (1, 2):
            cfg = FOCAL_POINT.with_level("network", network).with_level(
                "cpus_per_node", cpus
            )
            records += runner.sweep(cfg)
    series = {
        f"{network}_{'uni' if cpus == 1 else 'dual'}": [
            r.total_time
            for r in records
            if r.network == network and r.cpus_per_node == cpus
        ]
        for network in ("tcp-gige", "myrinet")
        for cpus in (1, 2)
    }
    return FigureResult(
        figure="figure9",
        description="Impact of dual-processor nodes (TCP/IP and Myrinet)",
        records=records,
        report=time_series_table(records, "Figure 9: uni vs dual processors"),
        series=series,
    )


# ---------------------------------------------------------------- extensions
def fast_ethernet_comparison(runner: CharacterizationRunner) -> FigureResult:
    """Sec. 4.1 prior-work claim: Fast Ethernet ~ Gigabit Ethernet on TCP/IP."""
    records = runner.sweep(FOCAL_POINT)
    records += runner.sweep(FOCAL_POINT.with_level("network", "tcp-fast-ethernet"))
    series = {
        net: [r.total_time for r in records if r.network == net]
        for net in ("tcp-gige", "tcp-fast-ethernet")
    }
    return FigureResult(
        figure="fast_ethernet",
        description="Fast Ethernet vs Gigabit Ethernet under TCP/IP (prior-work claim)",
        records=records,
        report=time_series_table(records, "Extension: Fast Ethernet vs GigE (TCP/IP)"),
        series=series,
    )


def extrapolation(runner: CharacterizationRunner) -> FigureResult:
    """Conclusion claim: scalability limits towards 16-32 processors."""
    records: list[ResponseRecord] = []
    for network in ("tcp-gige", "score-gige", "myrinet"):
        cfg = FOCAL_POINT.with_level("network", network)
        points = [DesignPoint(config=cfg, n_ranks=p) for p in (1, 2, 4, 8, 16)]
        records += runner.measure(points)
    series = {
        network: [r.total_time for r in records if r.network == network]
        for network in ("tcp-gige", "score-gige", "myrinet")
    }
    series["p"] = sorted({r.n_ranks for r in records})
    return FigureResult(
        figure="extrapolation",
        description="Scalability extrapolation to the full 16-node cluster",
        records=records,
        report=time_series_table(records, "Extension: scaling to 16 processors"),
        series=series,
    )


def grid_outlook(runner: CharacterizationRunner) -> FigureResult:
    """Conclusion claim: migration 'to the global computational grid'
    remains a particular challenge — estimate the damage.

    Runs the reference calculation at p=2 and p=4 over a simulated
    wide-area path and reports the slowdown versus the local cluster.
    """
    records = runner.measure(
        [DesignPoint(config=FOCAL_POINT, n_ranks=p) for p in (1, 2, 4)]
    )
    grid_cfg = FOCAL_POINT.with_level("network", "wide-area-grid")
    records += runner.measure(
        [DesignPoint(config=grid_cfg, n_ranks=p) for p in (2, 4)]
    )
    local = {r.n_ranks: r.total_time for r in records if r.network == "tcp-gige"}
    grid = {r.n_ranks: r.total_time for r in records if r.network == "wide-area-grid"}
    series = {
        "p": sorted(grid),
        "local": [local[p] for p in sorted(grid)],
        "grid": [grid[p] for p in sorted(grid)],
        "serial": local[1],
        "slowdown": [grid[p] / local[p] for p in sorted(grid)],
    }
    return FigureResult(
        figure="grid_outlook",
        description="Wide-area (grid) outlook for a single parallel calculation",
        records=records,
        report=time_series_table(records, "Extension: wide-area grid outlook"),
        series=series,
    )


#: Registry used by the benchmark harness.
ALL_FIGURES = {
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "fast_ethernet": fast_ethernet_comparison,
    "extrapolation": extrapolation,
    "grid_outlook": grid_outlook,
}
