"""The SPMD rank program: parallel CHARMM MD over simulated MPI.

Structure of one step (the paper's Figure 2, 'with PME model'):

* **classic phase** — (optional) barrier, neighbour-list maintenance,
  this rank's bonded slice + pair block;
* **PME phase** — slab spread, forward FFT (all-to-all personalized),
  influence multiply, inverse FFT (all-to-all personalized), partial
  force interpolation, exclusion slice;
* **classic phase** — the all-to-all *collective*: one allreduce of
  energies + forces, leapfrog integration of the rank's atoms, coordinate
  allgather.

Every rank computes real numpy forces on real coordinates; the step
asserts nothing about time — virtual seconds are charged through the
cost model.  :func:`serial_reference_run` performs the identical update
sequence without MPI so the tests can assert trajectory equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..analysis.contract import ContractOp, ScheduleContract
from ..md.energy import EnergyBreakdown
from ..md.neighborlist import NeighborList
from ..md.system import MDSystem
from ..md.units import ACCEL_CONVERT
from ..mpi.endpoint import RankEndpoint
from ..mpi.middleware import Middleware
from .costmodel import MachineCostModel
from .decomposition import AtomDecomposition
from .pclassic import ParallelClassic
from .ppme import ParallelPME
from .shared import SharedComputeCache

__all__ = [
    "MDRunConfig",
    "RankOutcome",
    "STEP_SCHEDULE_CONTRACT",
    "rank_program",
    "serial_reference_run",
    "energy_to_vector",
    "vector_to_energy",
]

#: The communication schedule one MD step promises (paper Figure 2).
#: The static verifier extracts the actual sequence from
#: :func:`rank_program` and checks conformance (rule REP406); flags gate
#: the optional per-step barrier and the PME phase.
STEP_SCHEDULE_CONTRACT = ScheduleContract(
    name="replicated-data-step",
    per_step=(
        ContractOp("barrier", when="barrier", note="per-step synchronization"),
        ContractOp("alltoallv", when="pme", note="forward-FFT transpose"),
        ContractOp("alltoallv", when="pme", note="inverse-FFT transpose"),
        ContractOp("allreduce", note="energies + forces combine"),
        ContractOp("allgatherv", note="coordinate redistribution"),
    ),
    flags=("barrier", "pme"),
)

_ENERGY_FIELDS = [f.name for f in fields(EnergyBreakdown)]


def energy_to_vector(e: EnergyBreakdown) -> np.ndarray:
    return np.array([getattr(e, name) for name in _ENERGY_FIELDS], dtype=np.float64)


def vector_to_energy(v: np.ndarray) -> EnergyBreakdown:
    return EnergyBreakdown(**{name: float(v[i]) for i, name in enumerate(_ENERGY_FIELDS)})


@dataclass(frozen=True)
class MDRunConfig:
    """Parameters of one measured MD run (the paper uses 10 steps)."""

    n_steps: int = 10
    dt: float = 0.0005  # ps
    temperature: float = 300.0
    velocity_seed: int = 2002
    barrier_per_step: bool = True

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class RankOutcome:
    """What one rank returns when its program finishes."""

    rank: int
    energies: list[EnergyBreakdown] = field(default_factory=list)
    final_positions: np.ndarray | None = None


def rank_program(
    ep: RankEndpoint,
    mw: Middleware,
    system: MDSystem,
    decomp: AtomDecomposition,
    cost: MachineCostModel,
    config: MDRunConfig,
    positions0: np.ndarray,
    velocities0: np.ndarray,
    shared: SharedComputeCache | None = None,
):
    """Generator driven by the simulator; returns a :class:`RankOutcome`.

    ``system`` is a clone of the run's system (it owns mutable
    neighbour-list state): this rank's private one, or, with ``shared``,
    the one every rank holds; ``positions0``/``velocities0`` are the shared
    initial conditions — velocities follow the leapfrog convention
    (v at t - dt/2).  ``shared``, when given, is the run-wide
    :class:`SharedComputeCache` deduplicating replicated-data work across
    ranks; physics, trajectories and virtual timelines are bit-identical
    with or without it.
    """
    tl = ep.timeline
    lo, hi = decomp.atom_range(ep.rank)
    positions = positions0.copy()
    velocities = velocities0[lo:hi].copy()
    masses = system.masses[lo:hi, None]

    classic = ParallelClassic(system, decomp, ep.rank, cost, shared=shared)
    ppme: ParallelPME | None = None
    if system.uses_pme:
        ppme = ParallelPME(
            pme=system.pme,
            box=system.box,
            decomp=decomp,
            exclusions=system.exclusions,
            charges=system.charges,
            n_ranks=ep.size,
            rank=ep.rank,
            cost=cost,
            shared=shared,
        )

    nl: NeighborList = system.neighbor_list
    outcome = RankOutcome(rank=ep.rank)

    for _step in range(config.n_steps):
        # ---- classic energy calculation --------------------------------
        with tl.phase("classic"):
            if config.barrier_per_step:
                yield from mw.barrier(ep)
            if shared is not None:
                # positions generation counter == step index: coordinates
                # only change at the step-end allgather
                pairs = shared.neighbor_pairs(nl, positions, _step)
            else:
                pairs = nl.ensure(positions)
            if nl.last_ensure_rebuilt:
                yield from ep.compute(cost.neighbor_build(nl.last_candidates))
            res = classic.compute(positions, pairs, nl.step_prefilter())
            yield from ep.compute(classic.compute_seconds(res))
            forces = res.forces
            energies = res.energies

        # ---- PME energy calculation -------------------------------------
        if ppme is not None:
            with tl.phase("pme"):
                pres = yield from ppme.reciprocal(ep, mw, positions, generation=_step)
                forces = forces + pres.forces
                energies = energies + EnergyBreakdown(
                    pme_reciprocal=pres.reciprocal_energy,
                    pme_self=pres.self_energy,
                    pme_exclusion=pres.exclusion_energy,
                )

        # ---- combine, integrate, redistribute ---------------------------
        with tl.phase("classic"):
            packed = np.concatenate([energy_to_vector(energies), forces.ravel()])
            packed = yield from mw.allreduce(ep, packed)
            total_energy = vector_to_energy(packed[: len(_ENERGY_FIELDS)])
            all_forces = packed[len(_ENERGY_FIELDS) :].reshape(-1, 3)
            outcome.energies.append(total_energy)

            yield from ep.compute(cost.integrate(hi - lo))
            accel = all_forces[lo:hi] / masses * ACCEL_CONVERT
            velocities = velocities + accel * config.dt
            own_positions = positions[lo:hi] + velocities * config.dt

            blocks = yield from mw.allgatherv(ep, own_positions)
            positions = np.concatenate(blocks, axis=0)

    outcome.final_positions = positions
    return outcome


def serial_reference_run(
    system: MDSystem,
    config: MDRunConfig,
    positions0: np.ndarray,
    velocities0: np.ndarray,
) -> tuple[list[EnergyBreakdown], np.ndarray]:
    """The identical leapfrog update sequence, single process, no MPI.

    Ground truth for the parallel-equals-serial tests and the p=1 level
    of the experiments.
    """
    positions = positions0.copy()
    velocities = velocities0.copy()
    masses = system.masses[:, None]
    energies_log: list[EnergyBreakdown] = []
    for _step in range(config.n_steps):
        energies, forces = system.classic_energy_forces(positions)
        if system.uses_pme:
            pme_e, pme_f = system.pme_energy_forces(positions)
            energies = energies + pme_e
            forces = forces + pme_f
        energies_log.append(energies)
        accel = forces / masses * ACCEL_CONVERT
        velocities = velocities + accel * config.dt
        positions = positions + velocities * config.dt
    return energies_log, positions
