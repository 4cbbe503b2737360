"""The MD system: topology + force field + box + energy evaluators.

:class:`MDSystem` wires the kernels together in exactly the structure the
paper's Figure 2 describes:

* **classic energy calculation** — bonded terms plus cutoff non-bonded
  (shift/switch truncation without PME, or the erfc direct-space term with
  PME);
* **PME energy calculation** — B-spline spreading, 3-D FFT, influence
  function, inverse FFT, force interpolation, plus self and exclusion
  terms.

The same evaluators are reused by the parallel rank program in
:mod:`repro.parallel.pmd`, which slices their inputs per rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pme.ewald import choose_alpha, exclusion_correction, self_energy
from ..pme.pme import PME
from .bonded import BondedTables, bonded_energy_forces
from .box import PeriodicBox
from .cutoff import CutoffScheme
from .energy import EnergyBreakdown
from .forcefield import ForceField
from .neighborlist import NeighborList
from .nonbonded import NonbondedKernel
from .topology import Topology

__all__ = ["MDSystem", "ElectrostaticsModel"]


class ElectrostaticsModel:
    """Electrostatics treatment selector (string enum)."""

    SHIFT = "shift"  # classic CHARMM: shifted truncation at the cutoff
    PME = "pme"  # particle-mesh Ewald


@dataclass
class _PMEBundle:
    pme: PME
    alpha: float
    e_self: float


class MDSystem:
    """A ready-to-simulate molecular system.

    Parameters
    ----------
    topology:
        Atoms and bonded terms.
    forcefield:
        Parameter tables covering every type in ``topology``.
    box:
        Periodic box.
    scheme:
        Cutoff parameters (10 A truncation in the paper's runs).
    electrostatics:
        ``"shift"`` (classic) or ``"pme"``.
    pme_grid:
        FFT mesh, required when ``electrostatics="pme"``; the paper's
        system uses ``(80, 36, 48)``.
    pme_order:
        B-spline order, default 4.
    ewald_tolerance:
        Direct-space truncation error target used to pick alpha.
    """

    def __init__(
        self,
        topology: Topology,
        forcefield: ForceField,
        box: PeriodicBox,
        scheme: CutoffScheme | None = None,
        electrostatics: str = ElectrostaticsModel.SHIFT,
        pme_grid: tuple[int, int, int] | None = None,
        pme_order: int = 4,
        ewald_tolerance: float = 1e-5,
    ) -> None:
        if electrostatics not in (ElectrostaticsModel.SHIFT, ElectrostaticsModel.PME):
            raise ValueError(f"unknown electrostatics model {electrostatics!r}")
        self.topology = topology
        self.forcefield = forcefield
        self.box = box
        self.scheme = scheme or CutoffScheme()
        self.electrostatics = electrostatics

        self.charges = topology.charges
        self.masses = topology.masses
        self.exclusions = topology.exclusion_pairs()
        self.bonded_tables = BondedTables(topology, forcefield)
        self.neighbor_list = NeighborList(box, self.scheme, self.exclusions)

        self._pme: _PMEBundle | None = None
        if electrostatics == ElectrostaticsModel.PME:
            if pme_grid is None:
                raise ValueError("electrostatics='pme' requires pme_grid")
            alpha = choose_alpha(self.scheme.r_cut, ewald_tolerance)
            self._pme = _PMEBundle(
                pme=PME(box, pme_grid, alpha, pme_order),
                alpha=alpha,
                e_self=self_energy(self.charges, alpha),
            )
            elec_mode, ewald_alpha = "ewald", alpha
        else:
            elec_mode, ewald_alpha = "shift", None

        self.nonbonded = NonbondedKernel(
            forcefield,
            topology.type_names,
            self.charges,
            box,
            self.scheme,
            elec_mode=elec_mode,
            ewald_alpha=ewald_alpha,
        )

    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return self.topology.n_atoms

    @property
    def uses_pme(self) -> bool:
        return self._pme is not None

    @property
    def pme(self) -> PME:
        if self._pme is None:
            raise RuntimeError("system was built without PME")
        return self._pme.pme

    @property
    def ewald_alpha(self) -> float:
        if self._pme is None:
            raise RuntimeError("system was built without PME")
        return self._pme.alpha

    # ------------------------------------------------------------------
    def classic_energy_forces(
        self, positions: np.ndarray
    ) -> tuple[EnergyBreakdown, np.ndarray]:
        """The time-domain component: bonded + cutoff non-bonded.

        The neighbour list is brought up to date for ``positions``, and
        its certificate lets the kernel drop the rows it proves out of
        reach (bitwise invisible).
        """
        j, starts = self.neighbor_list.ensure(positions)
        bonded_e, forces = bonded_energy_forces(positions, self.box, self.bonded_tables)
        nb_e, nb_f = self.nonbonded.compute(
            positions, j, starts, self.neighbor_list.step_prefilter()
        )
        forces += nb_f
        return (
            EnergyBreakdown(
                bond=bonded_e["bond"],
                angle=bonded_e["angle"],
                dihedral=bonded_e["dihedral"],
                improper=bonded_e["improper"],
                lj=nb_e.lj,
                elec_direct=nb_e.elec,
            ),
            forces,
        )

    def pme_energy_forces(self, positions: np.ndarray) -> tuple[EnergyBreakdown, np.ndarray]:
        """The frequency-domain component: reciprocal + self + exclusion."""
        if self._pme is None:
            raise RuntimeError("system was built without PME")
        rec = self._pme.pme.reciprocal(positions, self.charges)
        e_excl, f_excl = exclusion_correction(
            positions, self.charges, self.exclusions, self.box, self._pme.alpha
        )
        return (
            EnergyBreakdown(
                pme_reciprocal=rec.energy,
                pme_self=self._pme.e_self,
                pme_exclusion=e_excl,
            ),
            rec.forces + f_excl,
        )

    def energy_forces(self, positions: np.ndarray) -> tuple[EnergyBreakdown, np.ndarray]:
        """Full potential energy and forces (classic + PME when enabled)."""
        breakdown, forces = self.classic_energy_forces(positions)
        if self._pme is not None:
            pme_breakdown, pme_forces = self.pme_energy_forces(positions)
            breakdown = breakdown + pme_breakdown
            forces = forces + pme_forces
        return breakdown, forces
