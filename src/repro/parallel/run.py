"""Run one parallel MD job on a simulated cluster.

The public entry point is :func:`run_parallel_md`.  Everything about
*how* a run executes — middleware, run configuration, cost model,
sanitizer, tracing, shared-compute deduplication — travels in one frozen
:class:`RunOptions` value.  (The pre-:class:`RunOptions` keyword form
went through a deprecation cycle and has been removed; passing the old
keywords is now a :class:`TypeError`.)
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.machine import ClusterSpec
from ..cmpi.middleware import CMPIMiddleware
from ..md.integrator import maxwell_boltzmann_velocities
from ..md.neighborlist import NeighborList, exclusion_codes
from ..md.system import MDSystem
from ..mpi.endpoint import replay_program
from ..mpi.middleware import Middleware, MPIMiddleware
from ..mpi.world import MPIWorld
from ..sim.engine import SimulationError, Simulator
from .costmodel import PIII_1GHZ, MachineCostModel
from .decomposition import AtomDecomposition
from .pmd import MDRunConfig, RankOutcome, rank_program
from .result import ParallelRunResult
from .shared import SharedComputeCache, middleware_identity

if TYPE_CHECKING:  # avoid the core -> parallel -> core import cycle
    from ..core.design import DesignPoint
    from ..instrument.commstats import CommTrace
    from ..instrument.tracing import SpanTracer

__all__ = ["RunOptions", "run_parallel_md", "make_middleware", "rank_system_clone"]


def make_middleware(name: str) -> Middleware:
    """Middleware factory for the experimental design levels."""
    if name == "mpi":
        return MPIMiddleware()
    if name == "cmpi":
        return CMPIMiddleware()
    raise ValueError(f"unknown middleware level {name!r}")


def rank_system_clone(base: MDSystem) -> MDSystem:
    """A view of the system with its own neighbour-list state.

    Replicated-data CHARMM gives every rank its own neighbour list; a run
    under a :class:`SharedComputeCache` gives all its ranks one clone.
    Everything immutable (topology, parameter tables, PME influence
    function) is shared.
    """
    clone = copy.copy(base)
    clone.neighbor_list = NeighborList(base.box, base.scheme, base.exclusions)
    return clone


@dataclass(frozen=True)
class RunOptions:
    """How one parallel MD run executes — the whole knob surface.

    Parameters
    ----------
    middleware:
        ``"mpi"``, ``"cmpi"`` or a :class:`Middleware` instance.
    config:
        Steps/dt/seed; ``None`` means the paper's 10-step measurement run.
    cost:
        Machine cost model (defaults to the calibrated 1 GHz PIII).
    sanitize:
        Run under the communication sanitizer
        (:mod:`repro.analysis.sanitizer`): every matched message, transfer
        window and timeline is invariant-checked; the first violation
        raises, and warnings (REP404) are kept in
        ``result.extra["sanitizer_warnings"]``.  Passive — timings are
        bit-identical to a plain run.
    trace:
        Optional :class:`~repro.instrument.commstats.CommTrace`; when
        given, every send/recv/collective event is recorded and the
        trace is attached to ``result.extra["comm_trace"]``.
    span_tracer:
        Optional :class:`~repro.instrument.tracing.SpanTracer`; when
        given, every timeline attribution of every rank is mirrored as a
        virtual-clock span (exportable as Chrome trace-event JSON).
        Passive — the run is bit-identical with or without it, and the
        spans charge zero virtual seconds.
    shared_compute:
        Deduplicate replicated-data computations (neighbour-list builds,
        PME stencils, once-per-run setup) across the simulated ranks via
        a :class:`SharedComputeCache`.  ``True`` (the default) makes a
        fresh cache for this run; ``False`` makes none (the oracle the
        bit-identity tests compare against); a :class:`SharedComputeCache`
        instance — what a campaign's
        :class:`~repro.parallel.shared.TrajectorySession` passes, a fresh
        one per run — is used as given: under either strategy, the first
        run of a trajectory records its op streams and later platform
        variants replay them instead of running the rank programs (the
        sanitizer and a ``trace`` watch a replay as they watch a live
        run).  A wall-clock optimization only: energies, trajectories,
        virtual timelines, transfers and trace events are bit-identical
        whichever is passed.
    strategy:
        ``"replicated"`` (CHARMM's replicated-data scheme, the default)
        or ``"spatial"`` (cell-grid domain decomposition with halo
        exchange, :mod:`repro.parallel.spatial`).  Spatial runs produce
        bit-identical energies and trajectories at the same rank count;
        only the communication schedule differs.  Spatial covers the
        classic (cutoff) path only — combining it with PME raises.
    spatial_grid:
        Optional forced rank grid ``(gx, gy, gz)`` for the spatial
        strategy (product must equal the rank count); ``None`` picks the
        greedy near-cubic grid.  Ignored for ``strategy="replicated"``.
    """

    middleware: str | Middleware = "mpi"
    config: MDRunConfig | None = None
    cost: MachineCostModel = PIII_1GHZ
    sanitize: bool = False
    trace: "CommTrace | None" = None
    span_tracer: "SpanTracer | None" = None
    shared_compute: bool | SharedComputeCache = True
    strategy: str = "replicated"
    spatial_grid: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.strategy not in ("replicated", "spatial"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected 'replicated' or 'spatial'"
            )

    @classmethod
    def for_point(
        cls,
        point: "DesignPoint",
        *,
        config: MDRunConfig | None = None,
        cost: MachineCostModel = PIII_1GHZ,
        sanitize: bool = False,
        trace: "CommTrace | None" = None,
        span_tracer: "SpanTracer | None" = None,
        shared_compute: bool | SharedComputeCache = True,
    ) -> "RunOptions":
        """THE :class:`DesignPoint` → :class:`RunOptions` conversion.

        A design point fixes *what* is measured (the platform levels —
        including the middleware factor and the decomposition strategy);
        everything else about *how* the run executes is supplied here.
        The campaign layer's one executor
        (:func:`~repro.campaign.engine.execute_built`, behind the engine,
        the federated worker and ``CharacterizationRunner``), the CLI
        ``run`` verb and the benchmarks all build their options through
        this one classmethod, so a design point means the same run
        everywhere.
        """
        return cls(
            middleware=point.config.middleware,
            config=config,
            cost=cost,
            sanitize=sanitize,
            trace=trace,
            span_tracer=span_tracer,
            shared_compute=shared_compute,
            strategy=getattr(point, "strategy", "replicated"),
        )

    def replace(self, **changes) -> "RunOptions":
        """A copy with the given fields replaced (options are frozen)."""
        return dataclasses.replace(self, **changes)


def _coerce_options(options) -> RunOptions:
    """Validate the ``options`` argument to one :class:`RunOptions` value."""
    if options is None:
        return RunOptions()
    if isinstance(options, (str, Middleware)):
        raise TypeError(
            "run_parallel_md() no longer accepts a bare middleware as the "
            f"options argument; pass RunOptions(middleware={options!r})"
        )
    if not isinstance(options, RunOptions):
        raise TypeError(f"options must be a RunOptions, got {type(options).__name__}")
    return options


def run_parallel_md(
    system: MDSystem,
    positions: np.ndarray,
    cluster: ClusterSpec,
    options: RunOptions | None = None,
) -> ParallelRunResult:
    """Simulate one parallel CHARMM MD run and collect its timelines.

    Parameters
    ----------
    system:
        The (serial) MD system; per-rank clones are derived internally.
    positions:
        Initial coordinates, shape (n_atoms, 3).
    cluster:
        Platform: rank count, placement, network.
    options:
        Everything about *how* the run executes (middleware, run config,
        cost model, sanitizer, tracing, shared compute) — see
        :class:`RunOptions`.  ``None`` means all defaults.
    """
    opts = _coerce_options(options)
    config = opts.config or MDRunConfig()
    mw = (
        opts.middleware
        if isinstance(opts.middleware, Middleware)
        else make_middleware(opts.middleware)
    )
    # a campaign session's trajectory is recorded by its first run and
    # replayed by the rest; the sanitizer and a CommTrace watch either
    shared = opts.shared_compute
    session = shared.session if isinstance(shared, SharedComputeCache) else None

    rng = np.random.default_rng(config.velocity_seed)
    velocities = maxwell_boltzmann_velocities(system.masses, config.temperature, rng)

    sim = Simulator()
    world = MPIWorld(
        sim, cluster,
        sanitize=opts.sanitize, trace=opts.trace, span_tracer=opts.span_tracer,
    )
    recorders = None
    try:
        recorded = None
        if session is not None:
            key = (
                system, opts.strategy, opts.spatial_grid, cluster.n_ranks, config, opts.cost,
                middleware_identity(mw),
            )
            recorded = session.recorded_run(key, positions)
            if recorded is None:
                recorders = session.recorders(key, cluster.n_ranks)
        if recorded is not None:
            streams = zip(world.endpoints, recorded.streams)
            programs = [replay_program(ep, stream) for ep, stream in streams]
            assemble = recorded.outcome
        else:
            for ep, recorder in zip(world.endpoints, recorders or ()):
                ep.recorder = recorder
            # the strategy chooses the per-rank generators and how their
            # outcomes become energies + final positions; everything else
            # exists once
            strategy = _spatial_programs if opts.strategy == "spatial" else _replicated_programs
            programs, assemble = strategy(
                system, positions, velocities, cluster, opts, config, mw, world
            )
        procs = [sim.spawn(gen, name=f"rank{rank}") for rank, gen in enumerate(programs)]
        try:
            sim.run()
        except SimulationError as exc:
            # a deadlock names its processes; say who waits on whom
            msgs, recvs = world.leftovers()
            raise SimulationError(
                f"{exc}; blocked traffic: messages={msgs} recvs={recvs}"
            ) from exc
        if world.sanitizer is not None:
            world.sanitizer.check_final(world)  # leftovers raise REP305 here
        world.assert_drained()
    finally:
        # a finished run is acyclic, so reference counting frees its world,
        # queues and requests at once instead of the cyclic collector
        for ep in world.endpoints:
            ep.world = None

    energies, final_positions = assemble([p.result for p in procs])
    if recorders is not None:
        session.commit(key, positions, recorders, energies, final_positions)
    result = ParallelRunResult(
        spec=cluster,
        config=config,
        energies=energies,
        timelines=[ep.timeline for ep in world.endpoints],
        transfers=world.state.transfers,
        final_positions=final_positions,
        middleware=mw.name,
    )
    if opts.trace is not None:
        result.extra["comm_trace"] = opts.trace
    if world.sanitizer is not None:
        result.extra["sanitizer_warnings"] = world.sanitizer.violations
    return result


def _replicated_programs(
    system: MDSystem,
    positions: np.ndarray,
    velocities: np.ndarray,
    cluster: ClusterSpec,
    opts: RunOptions,
    config: MDRunConfig,
    mw: Middleware,
    world: MPIWorld,
):
    """Replicated data: atom blocks, allreduce + allgather per step.

    Every rank ends with the full energy log and coordinates, so rank 0's
    outcome is the run's.
    """
    shared = opts.shared_compute
    if not isinstance(shared, SharedComputeCache):
        shared = SharedComputeCache() if shared else None
    elif shared.n_real_builds:
        # its generation-keyed entries are the previous run's
        raise ValueError("a SharedComputeCache instance serves one run")

    decomp = AtomDecomposition(system.n_atoms, cluster.n_ranks)
    # the ranks' coordinates are bit-identical: under the cache they hold
    # one clone, so one neighbour list; without it each its own (the oracle)
    shared_clone = rank_system_clone(system) if shared is not None else None
    programs = [
        rank_program(
            ep=world.endpoints[rank],
            mw=mw,
            system=shared_clone if shared is not None else rank_system_clone(system),
            decomp=decomp,
            cost=opts.cost,
            config=config,
            positions0=positions,
            velocities0=velocities,
            shared=shared,
        )
        for rank in range(cluster.n_ranks)
    ]

    def assemble(outcomes: list[RankOutcome]):
        return outcomes[0].energies, outcomes[0].final_positions

    return programs, assemble


def _spatial_programs(
    system: MDSystem,
    positions: np.ndarray,
    velocities: np.ndarray,
    cluster: ClusterSpec,
    opts: RunOptions,
    config: MDRunConfig,
    mw: Middleware,
    world: MPIWorld,
):
    """Spatial decomposition: cells of the box, halo exchange + migration.

    Energies never travel in-band: the driver-side ledger assembles them,
    and final positions are stitched from each rank's owned atoms.
    """
    from .spatial import SpatialDecomposition, SpatialEngine, SpatialLedger
    from .spatial import spatial_rank_program
    from .spatial.engine import SpatialOutcome

    if system.uses_pme:
        raise ValueError(
            "strategy='spatial' covers the classic (cutoff) path only; "
            "PME's slab FFT needs the replicated strategy"
        )
    decomp = SpatialDecomposition.for_cluster(
        system.box, cluster.n_ranks, system.scheme.r_cut, grid=opts.spatial_grid
    )
    vdecomp = AtomDecomposition(system.n_atoms, cluster.n_ranks)
    ledger = SpatialLedger(system, vdecomp, mw.name)
    # identical on every rank: built once per run, not once per engine
    lj_tables = system.forcefield.lj_tables(system.topology.type_names)
    excl_codes = exclusion_codes(system.exclusions, system.n_atoms)
    programs = [
        spatial_rank_program(
            ep=world.endpoints[rank],
            mw=mw,
            decomp=decomp,
            engine=SpatialEngine(
                system=system,
                decomp=decomp,
                vdecomp=vdecomp,
                rank=rank,
                cost=opts.cost,
                middleware=mw.name,
                ledger=ledger,
                positions0=positions,
                velocities0=velocities,
                lj_tables=lj_tables,
                excl_codes=excl_codes,
            ),
            config=config,
        )
        for rank in range(cluster.n_ranks)
    ]

    def assemble(outcomes: list[SpatialOutcome]):
        final_positions = np.full((system.n_atoms, 3), np.nan)
        for out in outcomes:
            final_positions[out.owned] = out.positions
        if not np.isfinite(final_positions).all():
            raise RuntimeError("spatial run lost atoms: final ownership is not a partition")
        return ledger.assemble(), final_positions

    return programs, assemble
