"""One driver per measured table: the paper's figures, extensions, ablations.

Each driver runs (or recalls) the design points its table needs and
returns a result — a :class:`FigureResult`, or the throughput and
factorial studies' own types — with the structured series and a
printable ``.report`` matching the paper's rows.  ``python -m repro
figures`` prints the reports of :data:`ALL_FIGURES`
(``EXPERIMENTS.tables.txt`` is that output, pinned by
``tests/experiments/test_pinned_tables.py``); the integration tests
assert the paper's qualitative claims on the series.

The ablations at the end vary what sits *under* a factor level — a
protocol threshold, the SMP interrupt penalties, the synchronization
primitive, the PME mesh — to show which mechanism carries which of the
paper's shapes.  No design point can express such a platform, so their
runs bypass the record store and go to
:func:`~repro.parallel.run.run_parallel_md` directly, over the runner's
workload, run configuration and cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..campaign.runner import CharacterizationRunner
from ..cluster import ClusterSpec, NodeSpec, myrinet_gm, tcp_gigabit_ethernet
from ..cmpi import CMPIMiddleware
from ..core.design import DesignPoint
from ..core.factors import FOCAL_POINT
from ..core.report import breakdown_table, format_table, speed_table, time_series_table
from ..core.responses import ResponseRecord
from ..md.system import MDSystem
from ..mpi import MPIWorld, collectives
from ..parallel.pmd import MDRunConfig
from ..parallel.run import RunOptions, run_parallel_md
from ..sim import Simulator
from ..workloads.cache import myoglobin_system, myoglobin_workload
from .factorial import run_full_factorial
from .throughput import throughput_study

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
    "ablation_eager",
    "ablation_interrupts",
    "ablation_middleware_sync",
    "ablation_pme_grid",
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


# ----------------------------------------------------------------- ablations
EAGER_THRESHOLDS = (4 * 1024, 64 * 1024, 1024 * 1024)
PME_GRIDS = ((48, 24, 32), (64, 32, 40), (80, 36, 48), (96, 48, 64))
#: The two sweeps that run one platform many times settle within four
#: steps; the interrupt ablation keeps the paper's full window.
SWEEP_STEPS = 4


def _run(runner: CharacterizationRunner, spec: ClusterSpec, max_steps=None, system=None):
    """One MPI run of the runner's workload (or ``system``) on ``spec``.

    Runs of the runner's own workload go through its trajectory session:
    only the platform differs between an ablation's rows, so all but the
    first run of each trajectory replay its op stream.
    """
    config = runner.config
    if max_steps is not None and config.n_steps > max_steps:
        config = replace(config, n_steps=max_steps)
    shared = True
    if system is None:
        system = runner.system
        shared = runner.session.cache()
    options = RunOptions(config=config, cost=runner.cost, shared_compute=shared)
    return run_parallel_md(system, runner.positions, spec, options)


def _result(figure: str, title: str, headers, rows) -> FigureResult:
    """An ablation's table; ``series`` holds its columns under the headers."""
    return FigureResult(
        figure=figure,
        description=f"Ablation: {title}",
        records=[],
        report=f"== Ablation: {title} ==\n" + format_table(headers, rows),
        series={h: [row[i] for row in rows] for i, h in enumerate(headers)},
    )


def ablation_eager(runner: CharacterizationRunner) -> FigureResult:
    """Eager/rendezvous threshold on TCP/IP at p = 8.

    The 3N force-combine vector (~85 KB) straddles typical thresholds:
    the protocol switch moves time between the sender's sync (rendezvous
    hand-shake wait) and the receiver's sync (unexpected-message wait).
    """
    rows = []
    for threshold in EAGER_THRESHOLDS:
        net = replace(tcp_gigabit_ethernet(), eager_threshold=threshold)
        spec = ClusterSpec(n_ranks=8, network=net, seed=23)
        total = _run(runner, spec, SWEEP_STEPS).total_breakdown()
        rows.append([threshold // 1024, total.total, total.comm, total.sync])
    return _result(
        "ablation_eager",
        "eager/rendezvous threshold (TCP, p=8)",
        ["eager KB", "total (s)", "comm (s)", "sync (s)"],
        rows,
    )


def ablation_interrupts(runner: CharacterizationRunner) -> FigureResult:
    """Dual-CPU TCP/IP with and without the interrupt bottleneck (Sec. 4.3).

    The paper *hypothesizes* that dual-processor TCP collapses because
    one CPU services all NIC interrupts.  The simulator makes that
    testable: switch the SMP interrupt penalties off and see whether the
    collapse disappears.
    """
    tcp = tcp_gigabit_ethernet()
    no_irq_penalty = replace(
        tcp,
        smp_efficiency_penalty=1.0,
        smp_irq_multiplier=1.0,
        smp_overhead_multiplier=1.0,
    )
    dual = NodeSpec(cpus_per_node=2)
    rows = []
    for p in (2, 4, 8):
        runs = [
            _run(runner, ClusterSpec(n_ranks=p, network=net, node=dual, seed=31))
            for net in (tcp, no_irq_penalty)
        ]
        rows.append([p, *(run.total_breakdown().total for run in runs)])
    return _result(
        "ablation_interrupts",
        "dual-CPU TCP with/without the interrupt bottleneck",
        ["p (dual nodes)", "with IRQ bottleneck (s)", "without (s)"],
        rows,
    )


def _sync_cost(network, p: int, middleware: str, rounds: int = 20, seed: int = 11) -> float:
    """Virtual seconds of one global synchronization, averaged over ``rounds``."""
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=p, network=network, seed=seed))

    def prog(ep):
        for _ in range(rounds):
            if middleware == "cmpi":
                yield from CMPIMiddleware().sync(ep)
            else:
                yield from collectives.barrier(ep)

    for r in range(p):
        sim.spawn(prog(world.endpoints[r]), name=f"r{r}")
    sim.run()
    return max(ep.timeline.total_seconds() for ep in world.endpoints) / rounds


def ablation_middleware_sync(runner: CharacterizationRunner) -> FigureResult:
    """CMPI's neighbour-ring sync vs the MPI barrier, in isolation.

    The CMPI sync pattern (p-1 one-byte rounds per global operation) is
    the pathology behind Figure 8.  Measured with no MD around it — the
    runner's workload is not used — on TCP/IP and Myrinet, separating
    the protocol cost from the data-volume cost.
    """
    rows = [
        [p]
        + [
            1e3 * _sync_cost(network(), p, middleware)
            for network in (tcp_gigabit_ethernet, myrinet_gm)
            for middleware in ("mpi", "cmpi")
        ]
        for p in (2, 4, 8, 16)
    ]
    return _result(
        "ablation_middleware_sync",
        "synchronization primitives",
        [
            "p", "MPI barrier tcp (ms)", "CMPI sync tcp (ms)",
            "MPI barrier myri (ms)", "CMPI sync myri (ms)",
        ],
        rows,
    )


def ablation_pme_grid(runner: CharacterizationRunner) -> FigureResult:
    """PME mesh sweep: serial PME cost vs p = 8 PME wall time on TCP/IP.

    The FFT mesh size sets both the reciprocal-space accuracy and the
    volume of the all-to-all transposes.
    """
    base = runner.system
    rows = []
    for grid in PME_GRIDS:
        system = MDSystem(
            base.topology, base.forcefield, base.box, base.scheme,
            electrostatics="pme", pme_grid=grid,
        )
        serial, par8 = (
            _run(
                runner,
                ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=17),
                SWEEP_STEPS,
                system,
            )
            for p in (1, 8)
        )
        pme8 = par8.component("pme")
        rows.append(
            [
                "x".join(map(str, grid)),
                serial.component_time("pme"),
                pme8.total,
                100 * (pme8.comm + pme8.sync) / pme8.total,
            ]
        )
    return _result(
        "ablation_pme_grid",
        "PME mesh sweep",
        ["mesh", "serial pme (s)", "p=8 pme (s)", "p=8 overhead %"],
        rows,
    )


#: Every measured table of EXPERIMENTS.md, by id: ``driver(runner)``
#: returns a result whose ``.report`` is the table.  ``python -m repro
#: figures --all`` prints them in this order, and that output is
#: ``EXPERIMENTS.tables.txt``.
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
    "throughput": throughput_study,
    "full_factorial": run_full_factorial,
    "ablation_eager": ablation_eager,
    "ablation_interrupts": ablation_interrupts,
    "ablation_middleware_sync": ablation_middleware_sync,
    "ablation_pme_grid": ablation_pme_grid,
}
