"""CHARMM-style molecular dynamics engine (the paper's application substrate).

Public surface:

* :class:`~repro.md.topology.Topology` and friends — molecular structure.
* :func:`~repro.md.forcefield.default_forcefield` — parameter tables.
* :class:`~repro.md.box.PeriodicBox`, :class:`~repro.md.cutoff.CutoffScheme`.
* :class:`~repro.md.system.MDSystem` — energy/force evaluators with the
  classic/PME split the paper characterizes.
* :class:`~repro.md.integrator.VelocityVerlet` — dynamics.

The package holds what the characterization runs — the classic and PME
energy calculation of an NVE step — and the references its tests compare
against.  SHAKE/RATTLE, thermostats, trajectory observables and file I/O
are not here: no figure, workload or CLI verb reaches them.
"""

from .bonded import BondedTables, bonded_energy_forces
from .box import PeriodicBox
from .cutoff import CutoffScheme, shift_function, switch_function
from .energy import EnergyBreakdown
from .forcefield import ForceField, default_forcefield
from .integrator import MDState, VelocityVerlet, kinetic_energy, maxwell_boltzmann_velocities
from .neighborlist import NeighborList, brute_force_pairs
from .nonbonded import NonbondedKernel, PairEnergies
from .system import ElectrostaticsModel, MDSystem
from .topology import Angle, Atom, Bond, Dihedral, Improper, Topology

__all__ = [
    "Angle",
    "Atom",
    "Bond",
    "BondedTables",
    "bonded_energy_forces",
    "brute_force_pairs",
    "CutoffScheme",
    "Dihedral",
    "ElectrostaticsModel",
    "EnergyBreakdown",
    "ForceField",
    "default_forcefield",
    "Improper",
    "kinetic_energy",
    "maxwell_boltzmann_velocities",
    "MDState",
    "MDSystem",
    "NeighborList",
    "NonbondedKernel",
    "PairEnergies",
    "PeriodicBox",
    "shift_function",
    "switch_function",
    "Topology",
    "VelocityVerlet",
]
