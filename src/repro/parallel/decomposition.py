"""Work decomposition for the replicated-data parallel CHARMM.

CHARMM's parallelization of the period distributes *work items* while
replicating coordinates on every rank:

* **atoms** — contiguous blocks; a rank integrates its own atoms and owns
  the pair-list entries whose first atom falls in its block (the source
  of the natural load imbalance the paper's sync times show);
* **bonded terms** — contiguous slices of each term table;
* **mesh planes** — contiguous x-slabs for the spreading/FFT stages and
  y-slabs for the transposed layout.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..analysis.contract import ScheduleContract
from ..md.bonded import BondedTables

__all__ = [
    "Decomposition",
    "AtomDecomposition",
    "SlabDecomposition",
    "slice_bonded_tables",
]


class Decomposition(abc.ABC):
    """How work is split over ranks — and what that costs in messages.

    The paper's question is whether CHARMM's replicated-data scheme has
    "easy" parallelism left; the answer lives in the communication
    schedule each decomposition induces.  Every implementation therefore
    declares its per-step schedule as a
    :class:`~repro.analysis.contract.ScheduleContract`, which the static
    verifier (:mod:`repro.analysis.static_schedule`) checks against the
    schedule actually extracted from the rank program (rule REP406).
    How ownership is expressed differs per scheme — contiguous atom
    blocks (:class:`AtomDecomposition`), mesh-plane slabs
    (:class:`SlabDecomposition`), cells of the periodic box
    (:class:`repro.parallel.spatial.SpatialDecomposition`) — so the only
    shared obligation is the contract itself.
    """

    @abc.abstractmethod
    def schedule_contract(self) -> ScheduleContract:
        """The per-MD-step communication schedule this decomposition induces."""


def _block_bounds(n_items: int, n_parts: int) -> np.ndarray:
    """Boundaries of ``n_parts`` near-equal contiguous blocks (len n_parts+1)."""
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    base = n_items // n_parts
    extra = n_items % n_parts
    sizes = np.full(n_parts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


@dataclass(frozen=True)
class AtomDecomposition(Decomposition):
    """Contiguous atom blocks over ``n_ranks`` ranks (replicated data)."""

    n_atoms: int
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1 or self.n_atoms < self.n_ranks:
            raise ValueError(
                f"cannot split {self.n_atoms} atoms over {self.n_ranks} ranks"
            )

    def schedule_contract(self) -> ScheduleContract:
        # replicated data induces the step driver's all-to-all schedule
        from .pmd import STEP_SCHEDULE_CONTRACT

        return STEP_SCHEDULE_CONTRACT

    @property
    def bounds(self) -> np.ndarray:
        return _block_bounds(self.n_atoms, self.n_ranks)

    def atom_range(self, rank: int) -> tuple[int, int]:
        b = self.bounds
        return int(b[rank]), int(b[rank + 1])

    def pair_block(self, pairs: np.ndarray, rank: int) -> slice:
        """The rows of a (sorted-by-i) pair list owned by ``rank``.

        Ownership: the rank whose atom block contains ``i`` (the smaller
        index).  Pair lists from :class:`repro.md.neighborlist.NeighborList`
        are lexicographically sorted, so the block is one contiguous
        slice, which cuts anything aligned with the list's rows (its
        certificate's distances) the same way.
        """
        lo, hi = self.atom_range(rank)
        start = int(np.searchsorted(pairs[:, 0], lo, side="left"))
        stop = int(np.searchsorted(pairs[:, 0], hi, side="left"))
        return slice(start, stop)

    def term_slice(self, n_terms: int, rank: int) -> slice:
        """Contiguous slice of a bonded-term table for ``rank``."""
        b = _block_bounds(n_terms, self.n_ranks)
        return slice(int(b[rank]), int(b[rank + 1]))


def slice_bonded_tables(tables: BondedTables, decomp: AtomDecomposition, rank: int) -> BondedTables:
    """A rank's share of the bonded-term tables (contiguous slices)."""
    out = BondedTables.__new__(BondedTables)
    s = decomp.term_slice(len(tables.bond_idx), rank)
    out.bond_idx = tables.bond_idx[s]
    out.bond_kb = tables.bond_kb[s]
    out.bond_r0 = tables.bond_r0[s]
    s = decomp.term_slice(len(tables.angle_idx), rank)
    out.angle_idx = tables.angle_idx[s]
    out.angle_k = tables.angle_k[s]
    out.angle_t0 = tables.angle_t0[s]
    s = decomp.term_slice(len(tables.dihedral_idx), rank)
    out.dihedral_idx = tables.dihedral_idx[s]
    out.dihedral_k = tables.dihedral_k[s]
    out.dihedral_n = tables.dihedral_n[s]
    out.dihedral_delta = tables.dihedral_delta[s]
    s = decomp.term_slice(len(tables.improper_idx), rank)
    out.improper_idx = tables.improper_idx[s]
    out.improper_k = tables.improper_k[s]
    out.improper_psi0 = tables.improper_psi0[s]
    return out


@dataclass(frozen=True)
class SlabDecomposition(Decomposition):
    """Contiguous plane slabs along one mesh axis."""

    n_planes: int
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1 or self.n_planes < self.n_ranks:
            raise ValueError(
                f"cannot split {self.n_planes} planes over {self.n_ranks} ranks"
            )

    def schedule_contract(self) -> ScheduleContract:
        # slab-decomposed mesh work communicates exactly through the two
        # distributed-FFT transposes (all-to-all personalized)
        from .ppme import SCHEDULE_CONTRACT

        return SCHEDULE_CONTRACT

    @property
    def bounds(self) -> np.ndarray:
        return _block_bounds(self.n_planes, self.n_ranks)

    def plane_range(self, rank: int) -> tuple[int, int]:
        """(start, count) of the planes owned by ``rank``."""
        b = self.bounds
        return int(b[rank]), int(b[rank + 1] - b[rank])

    def split(self, array: np.ndarray, axis: int = 0) -> list[np.ndarray]:
        """Split an array along ``axis`` into the per-rank slabs."""
        b = self.bounds
        return [
            np.take(array, np.arange(b[r], b[r + 1]), axis=axis)
            for r in range(self.n_ranks)
        ]
