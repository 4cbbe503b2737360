"""Molecular topology: atoms, bonded connectivity and exclusion lists.

A :class:`Topology` is the static description of a molecular system — which
atoms exist, their types, charges and masses, and how they are connected.
It deliberately mirrors the information in a CHARMM PSF file, because the
parallel decomposition in :mod:`repro.parallel` distributes work over the
entries of these tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Atom",
    "Bond",
    "Angle",
    "Dihedral",
    "Improper",
    "Topology",
    "derive_angles",
    "derive_dihedrals",
]


@dataclass(frozen=True)
class Atom:
    """One atom record.

    Attributes
    ----------
    name:
        Atom name within its residue (e.g. ``"CA"``).
    type_name:
        Force-field atom type (key into :class:`repro.md.forcefield.ForceField`).
    charge:
        Partial charge in units of the elementary charge.
    mass:
        Mass in amu.
    residue:
        Residue name (e.g. ``"ALA"``, ``"TIP3"``).
    residue_index:
        0-based index of the residue the atom belongs to.
    segment:
        Segment identifier (``"PROT"``, ``"SOLV"``, ...).
    """

    name: str
    type_name: str
    charge: float
    mass: float
    residue: str = "UNK"
    residue_index: int = 0
    segment: str = "MAIN"


@dataclass(frozen=True)
class Bond:
    """Harmonic bond between atoms ``i`` and ``j``."""

    i: int
    j: int


@dataclass(frozen=True)
class Angle:
    """Harmonic angle ``i - j - k`` centred on ``j``."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Dihedral:
    """Proper torsion ``i - j - k - l`` about the ``j - k`` bond."""

    i: int
    j: int
    k: int
    l: int


@dataclass(frozen=True)
class Improper:
    """Improper torsion keeping ``i`` in the plane of ``j, k, l``."""

    i: int
    j: int
    k: int
    l: int


@dataclass
class Topology:
    """Complete bonded description of a molecular system.

    The constructor performs index validation; use :meth:`validate` after
    mutating the tables in place.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    angles: list[Angle] = field(default_factory=list)
    dihedrals: list[Dihedral] = field(default_factory=list)
    impropers: list[Improper] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def charges(self) -> np.ndarray:
        """Partial charges as a float64 array of shape (n_atoms,)."""
        return np.array([a.charge for a in self.atoms], dtype=np.float64)

    @property
    def masses(self) -> np.ndarray:
        """Masses as a float64 array of shape (n_atoms,)."""
        return np.array([a.mass for a in self.atoms], dtype=np.float64)

    @property
    def type_names(self) -> list[str]:
        return [a.type_name for a in self.atoms]

    def total_charge(self) -> float:
        return float(sum(a.charge for a in self.atoms))

    # ------------------------------------------------------------------
    # validation and merging
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range or degenerate terms.

        Names the first offending term in table order (bonds, angles,
        dihedrals, impropers) and, within it, the first offending column.
        """
        n = len(self.atoms)
        for what, terms, idx in (
            ("bond", self.bonds, self.bond_index_array()),
            ("angle", self.angles, self.angle_index_array()),
            ("dihedral", self.dihedrals, self.dihedral_index_array()),
            ("improper", self.impropers, self.improper_index_array()),
        ):
            out_of_range = (idx < 0) | (idx >= n)
            # a column repeats when it equals any column to its left
            repeated = np.zeros_like(out_of_range)
            for col in range(1, idx.shape[1]):
                repeated[:, col] = np.any(idx[:, :col] == idx[:, col : col + 1], axis=1)
            bad = out_of_range | repeated
            if not bad.any():
                continue
            row = int(np.argmax(bad.any(axis=1)))
            col = int(np.argmax(bad[row]))
            index = int(idx[row, col])
            if out_of_range[row, col]:
                raise ValueError(
                    f"{what} {terms[row]}: atom index {index} out of range [0, {n})"
                )
            raise ValueError(f"{what} {terms[row]}: repeated atom index {index}")

    def merge(self, other: "Topology") -> "Topology":
        """Concatenate two topologies, re-indexing the second one."""
        return Topology.concat([self, other])

    @classmethod
    def concat(cls, parts: Sequence["Topology"]) -> "Topology":
        """Concatenate many topologies in one pass (linear, not quadratic)."""
        atoms: list[Atom] = []
        bonds: list[Bond] = []
        angles: list[Angle] = []
        dihedrals: list[Dihedral] = []
        impropers: list[Improper] = []
        offset = 0
        res_offset = 0
        for part in parts:
            atoms.extend(
                Atom(
                    name=a.name,
                    type_name=a.type_name,
                    charge=a.charge,
                    mass=a.mass,
                    residue=a.residue,
                    residue_index=a.residue_index + res_offset,
                    segment=a.segment,
                )
                for a in part.atoms
            )
            bonds.extend(Bond(b.i + offset, b.j + offset) for b in part.bonds)
            angles.extend(
                Angle(a.i + offset, a.j + offset, a.k + offset) for a in part.angles
            )
            dihedrals.extend(
                Dihedral(d.i + offset, d.j + offset, d.k + offset, d.l + offset)
                for d in part.dihedrals
            )
            impropers.extend(
                Improper(i.i + offset, i.j + offset, i.k + offset, i.l + offset)
                for i in part.impropers
            )
            offset += part.n_atoms
            res_offset += 1 + max((a.residue_index for a in part.atoms), default=-1)
        merged = cls.__new__(cls)
        merged.atoms = atoms
        merged.bonds = bonds
        merged.angles = angles
        merged.dihedrals = dihedrals
        merged.impropers = impropers
        merged.validate()
        return merged

    # ------------------------------------------------------------------
    # exclusions
    # ------------------------------------------------------------------
    def bonded_neighbours(self) -> list[set[int]]:
        """Adjacency sets implied by the bond table."""
        adj: list[set[int]] = [set() for _ in range(self.n_atoms)]
        for b in self.bonds:
            adj[b.i].add(b.j)
            adj[b.j].add(b.i)
        return adj

    def exclusion_pairs(self, max_separation: int = 3) -> np.ndarray:
        """Pairs (i < j) within ``max_separation`` bonds of each other.

        CHARMM excludes 1-2 and 1-3 interactions and scales 1-4; this engine
        follows the common simplification of excluding 1-2, 1-3 **and** 1-4
        (``max_separation=3``) outright, which keeps the workload shape
        identical while avoiding a second scaled non-bonded pass.

        Returns
        -------
        ndarray of shape (n_excl, 2), int64, lexicographically sorted.
        """
        if max_separation < 1:
            raise ValueError("max_separation must be >= 1")
        adj = self.bonded_neighbours()
        pairs: set[tuple[int, int]] = set()
        for start in range(self.n_atoms):
            # breadth-first search out to max_separation bonds
            frontier = {start}
            visited = {start}
            for _ in range(max_separation):
                nxt: set[int] = set()
                for u in frontier:
                    nxt |= adj[u] - visited
                visited |= nxt
                frontier = nxt
            for other in visited - {start}:
                pairs.add((min(start, other), max(start, other)))
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.array(sorted(pairs), dtype=np.int64)
        return arr

    # ------------------------------------------------------------------
    # term tables as arrays (what the vectorized kernels consume)
    # ------------------------------------------------------------------
    def bond_index_array(self) -> np.ndarray:
        return _index_array([(b.i, b.j) for b in self.bonds], 2)

    def angle_index_array(self) -> np.ndarray:
        return _index_array([(a.i, a.j, a.k) for a in self.angles], 3)

    def dihedral_index_array(self) -> np.ndarray:
        return _index_array([(d.i, d.j, d.k, d.l) for d in self.dihedrals], 4)

    def improper_index_array(self) -> np.ndarray:
        return _index_array([(i.i, i.j, i.k, i.l) for i in self.impropers], 4)


def _index_array(rows: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    if not rows:
        return np.empty((0, width), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def derive_angles(bonds: Sequence[Bond], n_atoms: int) -> list[Angle]:
    """All angle terms implied by the bond graph (every i-j-k path).

    This matches how CHARMM's ``AUTOGENERATE ANGLES`` fills the angle
    table from connectivity.
    """
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for b in bonds:
        adj[b.i].append(b.j)
        adj[b.j].append(b.i)
    angles: list[Angle] = []
    for j in range(n_atoms):
        nbrs = sorted(adj[j])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                angles.append(Angle(nbrs[a], j, nbrs[b]))
    return angles


def derive_dihedrals(bonds: Sequence[Bond], n_atoms: int) -> list[Dihedral]:
    """All proper torsions implied by the bond graph (every i-j-k-l path).

    Matches CHARMM's ``AUTOGENERATE DIHEDRALS``: one term per distinct
    four-atom path through a central bond, excluding three-membered rings.
    """
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for b in bonds:
        adj[b.i].append(b.j)
        adj[b.j].append(b.i)
    dihedrals: list[Dihedral] = []
    for b in bonds:
        j, k = (b.i, b.j) if b.i < b.j else (b.j, b.i)
        for i in sorted(adj[j]):
            if i == k:
                continue
            for l in sorted(adj[k]):
                if l == j or l == i:
                    continue
                dihedrals.append(Dihedral(i, j, k, l))
    return dihedrals
