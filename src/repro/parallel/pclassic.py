"""Replicated-data classic energy calculation (one rank's share).

The classic component of the energy routine: the rank's slice of the
bonded-term tables plus its block of the cutoff pair list.  Coordinates
are replicated, so no communication happens here; the all-to-all
collective combine is issued by the step driver afterwards
(:mod:`repro.parallel.pmd`), exactly as in the paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.contract import ScheduleContract
from ..md.bonded import bonded_energy_forces
from ..md.energy import EnergyBreakdown
from ..md.nonbonded import NonbondedKernel
from ..md.system import MDSystem
from .costmodel import MachineCostModel
from .decomposition import AtomDecomposition, slice_bonded_tables
from .shared import SharedComputeCache

__all__ = ["ParallelClassic", "SCHEDULE_CONTRACT"]

#: The classic phase is replicated-data compute: no communication at
#: all — the combine is the step driver's allreduce, not ours.  The
#: static verifier holds us to that (rule REP406).
SCHEDULE_CONTRACT = ScheduleContract(name="classic-phase", per_step=())


@dataclass(frozen=True)
class ClassicResult:
    """One rank's classic-energy output plus its cost-model counters."""

    energies: EnergyBreakdown
    forces: np.ndarray
    #: pairs actually evaluated inside the cutoff (cost-model input)
    n_pairs: int
    #: bonded terms evaluated
    n_terms: int


class ParallelClassic:
    """One rank's classic-energy evaluator."""

    def __init__(
        self,
        system: MDSystem,
        decomp: AtomDecomposition,
        rank: int,
        cost: MachineCostModel,
        shared: SharedComputeCache | None = None,
    ) -> None:
        self.system = system
        self.decomp = decomp
        self.rank = rank
        self.cost = cost
        self.tables = slice_bonded_tables(system.bonded_tables, decomp, rank)
        # the per-atom LJ tables are identical on every rank: build once
        lj_tables = None
        if shared is not None:
            lj_tables = shared.once(
                "lj-tables",
                lambda: system.forcefield.lj_tables(system.topology.type_names),
            )
        # a private kernel so per-rank pair counters do not interleave
        self.kernel = NonbondedKernel(
            system.forcefield,
            system.topology.type_names,
            system.charges,
            system.box,
            system.scheme,
            elec_mode=system.nonbonded.elec_mode,
            ewald_alpha=system.nonbonded.ewald_alpha,
            lj_tables=lj_tables,
        )

    def compute(
        self,
        positions: np.ndarray,
        j: np.ndarray,
        starts: np.ndarray,
        reach: tuple[np.ndarray, float] | None = None,
    ) -> ClassicResult:
        """Evaluate this rank's block of the list ``(j, starts)``; pure
        computation, no yields.

        ``reach`` is the list's certificate
        (:meth:`~repro.md.neighborlist.NeighborList.step_prefilter`),
        aligned with ``j`` and cut with it to the rank's block.
        """
        block = self.decomp.pair_block(starts, self.rank)
        if reach is not None:
            reach = reach[0][block], reach[1]
        bonded_e, forces = bonded_energy_forces(positions, self.system.box, self.tables)
        hi = self.decomp.atom_range(self.rank)[1]
        nb_e, nb_f = self.kernel.compute(positions, j[block], starts[: hi + 1], reach)
        forces += nb_f
        return ClassicResult(
            energies=EnergyBreakdown(
                bond=bonded_e["bond"],
                angle=bonded_e["angle"],
                dihedral=bonded_e["dihedral"],
                improper=bonded_e["improper"],
                lj=nb_e.lj,
                elec_direct=nb_e.elec,
            ),
            forces=forces,
            n_pairs=self.kernel.last_pair_count,
            n_terms=self.tables.n_terms,
        )

    def compute_seconds(self, result: ClassicResult) -> float:
        """Virtual compute time for a :meth:`compute` call."""
        return self.cost.classic_pairs(result.n_pairs) + self.cost.bonded(result.n_terms)
