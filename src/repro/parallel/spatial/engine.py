"""Bit-exact spatial replay engine: forces, energies, halo bookkeeping.

The acceptance bar for the spatial decomposition is not "close": energies
and trajectories must be **bitwise identical** to the replicated-data run
at the same rank count.  Floating-point addition is not associative, so
the engine cannot simply "sum what it owns" — it must *replay* the exact
accumulation orders the replicated path uses:

* per-pair and per-bonded-row values are pure elementwise functions of
  their own row (:meth:`repro.md.nonbonded.NonbondedKernel.pair_terms`,
  ``*_row_terms`` in :mod:`repro.md.bonded`), so any subset evaluates to
  bitwise-identical rows;
* ``np.bincount`` and ``np.add.at`` accumulate sequentially in array
  order from zero (:func:`~repro.md.bonded.scatter_rows`,
  :class:`_PairBuckets`), so restricting a scatter to the subsequence
  touching one bin preserves that bin's bits — the engine buckets every
  contribution by *(virtual replicated rank, owned atom)* and scatters
  in the replicated call order;
* the replicated allreduce folds per-rank blocks in a fixed tree (MPI:
  binomial/recursive-doubling, both equal :func:`binomial_fold`; CMPI:
  each rank's chain over raw peer blocks), which the engine replays per
  owned atom after local accumulation.

Energies need full per-block contiguous arrays under ``np.sum`` (pairwise
summation), which no single spatial rank holds — so ranks post per-row
energies to a driver-side :class:`SpatialLedger`, which reduces each step
to its per-virtual-rank sums and fold as soon as the step's last rank has
posted, with zero simulated communication.

Pair search is buffered the way the replicated path's Verlet list is: a
rank searches its known atoms once per *rebuild*, out to
``r_cut + skin``, and between rebuilds selects rows of that list
(:meth:`SpatialEngine._step_pairs`).

Unknown coordinates are NaN-poisoned each step.  That guards what is
evaluated by *index*: a bonded row or a fold that reaches past the halo
goes NaN and the finite-forces assertion (or the ledger's never-posted
check) fails loudly.  It does not guard pairs — a pair whose partner is
unknown is simply absent from every candidate set — so pair coverage
rests on the halo shipping everything within ``r_cut`` and on the
selection argument in :meth:`SpatialEngine._step_pairs`, and is what the
bit-identity tests against the replicated path check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...instrument.counters import (
    FORCE_EVALUATIONS,
    FRESH_ATOMS,
    OWNERSHIP_EPOCHS,
    PAIRLIST_BUILDS,
)
from ...md.bonded import (
    angle_row_terms,
    bond_row_terms,
    dihedral_row_terms,
    improper_row_terms,
    scatter_rows,
)
from ...md.energy import EnergyBreakdown
from ...md.neighborlist import (
    absent_from,
    build_rows,
    certified_bound,
    max_displacement2,
)
from ...md.nonbonded import NonbondedKernel
from ...md.system import MDSystem
from ...md.units import ACCEL_CONVERT
from ..costmodel import MachineCostModel
from ..decomposition import AtomDecomposition, _block_bounds
from ..pmd import energy_to_vector, vector_to_energy
from .decomposition import SpatialDecomposition

__all__ = [
    "SpatialEngine",
    "SpatialLedger",
    "SpatialMigrationError",
    "SpatialOutcome",
    "binomial_fold",
]


class SpatialMigrationError(RuntimeError):
    """Owned atoms crossed more than one cell of the rank grid in one step.

    The migration schedule is single-hop: per dimension, an atom is handed
    to the neighbouring cell or stays.  ``atoms`` are the offenders' global
    indices on ``rank`` at ``step``; ``dim`` is the grid axis when the
    check that fired knows it, else ``None``.
    """

    def __init__(
        self, rank: int, step: int, atoms: np.ndarray, dim: int | None = None
    ) -> None:
        self.rank = rank
        self.step = step
        self.atoms = tuple(int(a) for a in atoms)
        self.dim = dim
        # the fields are the args, so the error survives pickling
        super().__init__(rank, step, self.atoms, dim)

    def __str__(self) -> str:
        shown = ", ".join(map(str, self.atoms[:8]))
        more = f" (+{len(self.atoms) - 8} more)" if len(self.atoms) > 8 else ""
        axis = "" if self.dim is None else f" along dim {self.dim}"
        return (
            f"rank {self.rank} step {self.step}: atoms [{shown}]{more} moved "
            f"more than one cell{axis} in one step, but migration is "
            "single-hop — use a shorter timestep, or fewer ranks along that "
            "axis so the cells are wider"
        )


def binomial_fold(blocks: list[np.ndarray]) -> np.ndarray:
    """Fold per-rank blocks exactly as the simulated MPI allreduce does.

    Power-of-two rank counts use recursive doubling, other counts use a
    binomial-tree reduce to rank 0 plus broadcast — both produce the
    balanced-binary combination tree this loop builds (IEEE addition is
    commutative bitwise, so the pairings are all that matters).
    """
    acc = list(blocks)
    p = len(acc)
    mask = 1
    while mask < p:
        for r in range(0, p, 2 * mask):
            if r + mask < p:
                acc[r] = acc[r] + acc[r + mask]
        mask *= 2
    return acc[0]


@dataclass
class SpatialOutcome:
    """What one spatial rank returns when its program finishes."""

    rank: int
    owned: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray


class SpatialLedger:
    """Driver-side energy assembly for a spatial run.

    Ranks post raw per-row energies for the rows they spatially own
    (bonded terms by their column-0 atom, pairs by the smaller index), so
    coverage is exactly-once by construction.  A rank posts its bonded
    rows first and its pairs last; when the last rank's pairs of a step
    arrive the ledger assembles, per *replicated* block, each term's rows
    (pairs merged from every rank's post in pair order), sums each block
    with ``np.sum`` — the identical contiguous array the replicated rank
    summed — folds the per-virtual-rank energy vectors with the
    middleware's fold order and drops the rows, so it holds one
    :class:`EnergyBreakdown` per finished step plus the rows of the steps
    still in flight (ranks pipeline freely, so several can be).  No
    simulated communication is involved.
    """

    def __init__(
        self, system: MDSystem, vdecomp: AtomDecomposition, middleware: str
    ) -> None:
        if middleware not in ("mpi", "cmpi"):
            raise ValueError(f"unknown middleware {middleware!r} for spatial fold")
        self.middleware = middleware
        self.n_atoms = system.n_atoms
        self.vbounds = vdecomp.bounds
        self.n_ranks = vdecomp.n_ranks
        t = system.bonded_tables
        self._term_rows = {
            "bond": len(t.bond_idx),
            "angle": len(t.angle_idx),
            "dihedral": len(t.dihedral_idx),
            "improper": len(t.improper_idx),
        }
        #: rows of the steps not yet folded: step -> (bonded posts, pair posts)
        self._open: dict[int, tuple[list, list]] = {}
        self._folded: dict[int, EnergyBreakdown] = {}

    # ------------------------------------------------------------------
    def _posts(self, step: int) -> tuple[list, list]:
        if step in self._folded:
            raise RuntimeError(
                f"step {step}: rows posted twice — every rank had already "
                "posted this step"
            )
        return self._open.setdefault(step, ([], []))

    def post_bonded(
        self, term: str, step: int, rows: np.ndarray, e_rows: np.ndarray
    ) -> None:
        """One rank's per-row energies for the term rows it owns."""
        self._posts(step)[0].append((term, rows, e_rows))

    def post_pairs(
        self, step: int, codes: np.ndarray, e_lj: np.ndarray, e_el: np.ndarray
    ) -> None:
        """One rank's per-pair energies for the pairs ``i < j`` it owns
        (by ``i``), as strictly ascending ``codes = i * n_atoms + j``.

        This is the rank's last post of the step; the ``n_ranks``-th one
        folds the step.
        """
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError(
                f"step {step}: pair codes must be strictly ascending within a post"
            )
        bonded, pairs = self._posts(step)
        pairs.append((codes, e_lj, e_el))
        if len(pairs) == self.n_ranks:
            del self._open[step]
            self._folded[step] = self._fold(step, bonded, pairs)

    def assemble(self) -> list[EnergyBreakdown]:
        """Per-step total energies, bitwise equal to the replicated log."""
        if self._open:
            step = min(self._open)
            raise RuntimeError(
                f"step {step}: pairs of {self.n_ranks - len(self._open[step][1])} "
                f"of {self.n_ranks} ranks were never posted"
            )
        n_steps = len(self._folded)
        if any(step not in self._folded for step in range(n_steps)):
            raise RuntimeError(
                f"folded steps {sorted(self._folded)} are not 0..{n_steps - 1}: "
                "a step was never posted"
            )
        return [self._folded[step] for step in range(n_steps)]

    # ------------------------------------------------------------------
    def _fold(self, step: int, bonded: list, posts: list) -> EnergyBreakdown:
        """Reduce one complete step's rows to its folded energies."""
        p = self.n_ranks
        term_sums: dict[str, list[float]] = {}
        for term, n_rows in self._term_rows.items():
            full = np.full(n_rows, np.nan)
            for posted_term, rows, e_rows in bonded:
                if posted_term == term:
                    full[rows] = e_rows
            if n_rows and not np.isfinite(full).all():
                missing = int(np.count_nonzero(~np.isfinite(full)))
                raise RuntimeError(
                    f"step {step}: {missing} {term} rows were never posted "
                    "(or went NaN on an uncovered halo import)"
                )
            b = _block_bounds(n_rows, p)
            term_sums[term] = [
                float(np.sum(full[b[v] : b[v + 1]])) for v in range(p)
            ]

        # a virtual rank's pairs, ``i`` in [b0, b1), are the codes in
        # [b0 * n, b1 * n): one contiguous slice of every post, so each is
        # merged, ordered and summed on its own — the same contiguous
        # array the replicated rank summed
        n = np.int64(self.n_atoms)
        evecs = []
        for v in range(p):
            bounds = (self.vbounds[v] * n, self.vbounds[v + 1] * n)
            block = []
            for post in posts:
                start, stop = np.searchsorted(post[0], bounds)
                block.append([x[start:stop] for x in post])
            codes, e_lj, e_el = (np.concatenate(col) for col in zip(*block))
            order = np.argsort(codes, kind="stable")
            codes = codes.take(order)
            if len(codes) and np.any(codes[1:] == codes[:-1]):
                raise RuntimeError(f"step {step}: a pair was posted twice")
            evecs.append(
                energy_to_vector(
                    EnergyBreakdown(
                        bond=term_sums["bond"][v],
                        angle=term_sums["angle"][v],
                        dihedral=term_sums["dihedral"][v],
                        improper=term_sums["improper"][v],
                        lj=float(np.sum(e_lj.take(order))),
                        elec_direct=float(np.sum(e_el.take(order))),
                    )
                )
            )
        if self.middleware == "mpi":
            folded = binomial_fold(evecs)
        else:
            # rank 0's chain over raw peer blocks, in arrival order
            folded = evecs[0]
            for k in range(1, p):
                folded = folded + evecs[p - k]
        return vector_to_energy(folded)


#: Bytes of each ``(rows, known, 3)`` float64 temporary of the fresh-atom
#: rule's dense test (:meth:`SpatialEngine._fresh_codes`): a rank that
#: knows 1,500 atoms tests 116 fresh atoms per block.  The difference and
#: its minimum image are alive together, so a block peaks near 8 MiB.
FRESH_BLOCK_BYTES = 4 * 2**20


@dataclass
class _PairList:
    """One rank's buffered pair list; see :meth:`SpatialEngine._step_pairs`.

    The rows ``i < j`` within ``r_cut + skin`` at the build that touched
    an atom owned then, exclusions removed, in ascending ``(i, j)``
    order, as the replicated list's builder gives them
    (:func:`~repro.md.neighborlist.build_rows`): atom ``a``'s partners
    are ``j[starts[a]:starts[a + 1]]`` (INBLO and JNB), and beside that
    triple only the build's reference state.  Pairs only: their kernel
    parameters are elementwise functions of per-atom tables, so the
    kernel derives them from each step's rows and drops them with them.
    """

    #: row starts per atom, ``n_atoms + 1`` of them, and the ``int32`` partner column
    starts: np.ndarray
    j: np.ndarray
    #: build-time pair distances, row for row
    ref_d: np.ndarray
    #: coordinates and masks as they were at the build
    ref_positions: np.ndarray
    known: np.ndarray
    owned: np.ndarray


@dataclass
class _TermRows:
    """One bonded term's rows that touch an owned atom, gathered once per
    ownership epoch."""

    term: str
    row_terms: Callable
    #: the touched rows' atoms and parameters
    idx: np.ndarray
    params: list[np.ndarray]
    #: scatter bin of every touched row, per atom column
    bins: list[np.ndarray]
    #: which touched rows this rank posts (owner of column 0), and their
    #: global row numbers
    posted: np.ndarray
    posted_rows: np.ndarray


@dataclass
class _Ownership:
    """Everything that depends only on the owned set: rebuilt when a
    migration changed it (:meth:`SpatialEngine._ownership`)."""

    #: the owned mask it was derived from (never written), and its atoms
    mask: np.ndarray
    owned: np.ndarray
    #: contribution bins: ``p`` virtual ranks x (owned slots + one trash
    #: slot that absorbs scatter onto ghosts)
    slots: int
    nbins: int
    local_of: np.ndarray
    terms: list[_TermRows]


class _PairBuckets:
    """:meth:`SpatialEngine.compute_forces`' consumer of the pair tiles
    (:meth:`NonbondedKernel.pair_terms`): the pair forces bucketed by
    (virtual rank, owned slot), and the owned rows posted to the ledger,
    bit for bit those of the assembled arrays.

    Forces: ``np.add.at`` adds each tile's rows into zeroed ``(3, nbins)``
    accumulators for ``i`` and for ``j``, in list order from 0.0 — the
    additions one ``bincount`` per bin over the whole step makes.  Rows
    owned by their ``i`` are kept as ``(code, e_lj, e_el)`` in rows sized
    by the step's owned candidates, of which the filled prefix is posted.
    """

    def __init__(
        self, own: _Ownership, vbounds: np.ndarray, n_atoms: int, n_owned_rows: int
    ) -> None:
        self.own = own
        self.vbounds = vbounds
        self.n_atoms = np.int64(n_atoms)
        self.acc_i = np.zeros((3, own.nbins))
        self.acc_j = np.zeros((3, own.nbins))
        self.codes = np.empty(n_owned_rows, dtype=np.int64)
        self.e_lj = np.empty(n_owned_rows)
        self.e_el = np.empty(n_owned_rows)
        self.kept = 0

    def __call__(self, start: int, part: tuple) -> None:
        i, j, e_lj, e_el, fvec = part
        if not len(i):
            return
        own = self.own
        # ``i`` is sorted, so each virtual rank's rows are one run
        runs = np.diff(np.searchsorted(i, self.vbounds))
        bins_i = np.repeat(np.arange(0, own.nbins, own.slots, dtype=np.int64), runs)
        bins_j = bins_i + own.local_of.take(j)
        bins_i += own.local_of.take(i)
        # add.at wants contiguous 1-D weights: one transposed copy per tile
        c = np.ascontiguousarray(fvec.T)
        for dim in range(3):
            np.add.at(self.acc_i[dim], bins_i, c[dim])
            np.add.at(self.acc_j[dim], bins_j, c[dim])
        mine = np.flatnonzero(own.mask.take(i))
        kept = slice(self.kept, self.kept + len(mine))
        self.codes[kept] = i.take(mine) * self.n_atoms + j.take(mine)
        self.e_lj[kept] = e_lj.take(mine)
        self.e_el[kept] = e_el.take(mine)
        self.kept = kept.stop

    def result(self, filled: int) -> tuple:
        """``(acc_nb, codes, e_lj, e_el)``: the ``(nbins, 3)`` pair
        forces and the kept rows."""
        kept = self.kept
        return (
            np.subtract(self.acc_i, self.acc_j).T,
            self.codes[:kept],
            self.e_lj[:kept],
            self.e_el[:kept],
        )


class SpatialEngine:
    """One spatial rank's numerics: state, halo payloads, bit-exact replay."""

    def __init__(
        self,
        system: MDSystem,
        decomp: SpatialDecomposition,
        vdecomp: AtomDecomposition,
        rank: int,
        cost: MachineCostModel,
        middleware: str,
        ledger: SpatialLedger,
        positions0: np.ndarray,
        velocities0: np.ndarray,
        lj_tables: tuple[np.ndarray, np.ndarray],
        excl_codes: np.ndarray,
    ) -> None:
        """``lj_tables`` (``forcefield.lj_tables``) and ``excl_codes``
        (:func:`repro.md.neighborlist.exclusion_codes`) are the same on
        every rank of a run, so the driver builds them once."""
        if middleware not in ("mpi", "cmpi"):
            raise ValueError(f"unknown middleware {middleware!r} for spatial replay")
        self.decomp = decomp
        self.vdecomp = vdecomp
        self.rank = rank
        self.cost = cost
        self.middleware = middleware
        self.ledger = ledger
        self.box = system.box
        self.scheme = system.scheme
        self.masses = system.masses
        self.n_atoms = system.n_atoms
        self.r_cut = system.scheme.r_cut
        self.vbounds = vdecomp.bounds
        self._coords = decomp.rank_coords(rank)

        self.positions = np.asarray(positions0, dtype=np.float64).copy()
        self.velocities = np.asarray(velocities0, dtype=np.float64).copy()
        self.owned_mask = decomp.owners(self.positions) == rank
        self.known_mask = self.owned_mask.copy()
        #: cell coordinates of the owned atoms, valid once ``_classified``
        self._cells = np.zeros((self.n_atoms, 3), dtype=np.int64)
        self._classified = False

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
        self._excl_codes = excl_codes
        self._list: _PairList | None = None

        t = system.bonded_tables
        p = vdecomp.n_ranks
        self._terms = (
            ("bond", t.bond_idx, _block_bounds(len(t.bond_idx), p), bond_row_terms,
             (t.bond_kb, t.bond_r0)),
            ("angle", t.angle_idx, _block_bounds(len(t.angle_idx), p), angle_row_terms,
             (t.angle_k, t.angle_t0)),
            ("dihedral", t.dihedral_idx, _block_bounds(len(t.dihedral_idx), p),
             dihedral_row_terms, (t.dihedral_k, t.dihedral_n, t.dihedral_delta)),
            ("improper", t.improper_idx, _block_bounds(len(t.improper_idx), p),
             improper_row_terms, (t.improper_k, t.improper_psi0)),
        )

        self._step = -1
        self._pulse_store: dict[tuple[int, int], np.ndarray] = {}
        self._epoch: _Ownership | None = None
        self._forces_owned: np.ndarray | None = None
        self._owned_idx: np.ndarray | None = None

    # -- step lifecycle ------------------------------------------------
    def begin_step(self) -> None:
        """Reset ghosts; NaN-poison every coordinate the halo must refill."""
        self._step += 1
        self.known_mask = self.owned_mask.copy()
        self.positions[~self.known_mask] = np.nan
        self._pulse_store = {}

    def end_step(self) -> None:
        """Every owned atom must sit in this rank's cell after migration."""
        owned = np.flatnonzero(self.owned_mask)
        wrong = np.any(self._owned_cells(owned) != self._coords, axis=1)
        if np.any(wrong):
            raise SpatialMigrationError(self.rank, self._step, owned[wrong])

    def _owned_cells(self, owned: np.ndarray) -> np.ndarray:
        """Cell coordinates of the ``owned`` atoms this step.

        The owned atoms are classified once, at the first migration call
        after :meth:`integrate` moved them, and an arrival on receipt
        (:meth:`migrate_receive`).  The cell test is elementwise per atom,
        so these are the bits a fresh ``cell_coords`` would give.
        """
        if not self._classified:
            self._cells[owned] = self.decomp.cell_coords(self.positions[owned])
            self._classified = True
        return self._cells[owned]

    def outcome(self) -> SpatialOutcome:
        owned = np.nonzero(self.owned_mask)[0]
        return SpatialOutcome(
            rank=self.rank,
            owned=owned,
            positions=self.positions[owned].copy(),
            velocities=self.velocities[owned].copy(),
        )

    # -- halo exchange -------------------------------------------------
    def halo_payload(self, dim: int, pulse: int, direction: int) -> np.ndarray:
        """``(m, 4)`` rows ``[atom_index, x, y, z]`` to send this pulse.

        Pulse 0 selects the known atoms within ``r_cut`` of the departing
        face (``direction`` 0 = toward the minus neighbour, 1 = plus);
        later pulses forward the previous arrival verbatim, moving ghost
        blocks one region further per pulse (systolic multi-depth halo).
        """
        if pulse > 0:
            return self._pulse_store[(dim, direction)]
        known = np.nonzero(self.known_mask)[0]
        wrapped = self.box.wrap(self.positions[known])
        lo, hi = self.decomp.region(self.rank, dim)
        if direction == 0:
            sel = wrapped[:, dim] <= lo + self.r_cut
        else:
            sel = wrapped[:, dim] >= hi - self.r_cut
        idxs = known[sel]
        payload = np.empty((len(idxs), 4), dtype=np.float64)
        payload[:, 0] = idxs
        payload[:, 1:4] = self.positions[idxs]
        return payload

    def halo_receive(
        self, dim: int, pulse: int, direction: int, data: np.ndarray
    ) -> None:
        """Merge arrived ghosts (idempotent) and stash them for forwarding."""
        data = np.asarray(data, dtype=np.float64).reshape(-1, 4)
        self._pulse_store[(dim, direction)] = data
        if len(data):
            idxs = data[:, 0].astype(np.int64)
            self.positions[idxs] = data[:, 1:4]
            self.known_mask[idxs] = True

    # -- migration -----------------------------------------------------
    def migrate_payload(self, dim: int, direction: int) -> np.ndarray:
        """``(m, 7)`` rows ``[atom_index, pos, vel]`` leaving along ``dim``.

        ``delta = (cell - mine) mod g`` classifies crossers: ``g - 1``
        moved down, ``1`` moved up; with ``g == 2`` both faces lead to the
        same neighbour and all crossers go down.  Anything else moved more
        than one cell in a single step — a physical impossibility at MD
        timesteps — and is a hard error, matching the single-hop schedule
        the contract declares.
        """
        g = self.decomp.grid[dim]
        owned = np.flatnonzero(self.owned_mask)
        delta = (self._owned_cells(owned)[:, dim] - self._coords[dim]) % g
        if direction == 0:
            bad = (delta != 0) & (delta != 1) & (delta != g - 1)
            if np.any(bad):
                raise SpatialMigrationError(self.rank, self._step, owned[bad], dim)
            sel = delta == g - 1
        else:
            sel = (delta == 1) & (delta != g - 1)
        sent = owned[sel]
        payload = np.empty((len(sent), 7), dtype=np.float64)
        payload[:, 0] = sent
        payload[:, 1:4] = self.positions[sent]
        payload[:, 4:7] = self.velocities[sent]
        self.owned_mask[sent] = False
        return payload

    def migrate_receive(self, dim: int, data: np.ndarray) -> None:
        """Adopt arrived atoms immediately so later rounds see them."""
        data = np.asarray(data, dtype=np.float64).reshape(-1, 7)
        if len(data):
            idxs = data[:, 0].astype(np.int64)
            self.owned_mask[idxs] = True
            self.known_mask[idxs] = True
            self.positions[idxs] = data[:, 1:4]
            self.velocities[idxs] = data[:, 4:7]
            self._cells[idxs] = self.decomp.cell_coords(data[:, 1:4])

    # -- force replay ----------------------------------------------------
    def _ownership(self) -> _Ownership:
        """The current ownership epoch, rebuilt only when the owned set
        changed since the last one (a migration moved an atom in or out).

        The slot map and every bonded term's touched rows, parameters,
        scatter bins and posted rows depend on nothing else, so steps
        between migrations reuse them.
        """
        epoch = self._epoch
        if epoch is not None and np.array_equal(epoch.mask, self.owned_mask):
            return epoch
        OWNERSHIP_EPOCHS.increment()
        mask = self.owned_mask.copy()
        owned = np.flatnonzero(mask)
        k_own = len(owned)
        slots = k_own + 1
        local_of = np.full(self.n_atoms, k_own, dtype=np.int64)
        local_of[owned] = np.arange(k_own, dtype=np.int64)
        terms = []
        for term, idx, bounds, row_terms, params in self._terms:
            touch = np.flatnonzero(np.any(mask[idx], axis=1))
            rows = idx[touch]
            base = (np.searchsorted(bounds, touch, side="right") - 1) * slots
            posted = mask[rows[:, 0]]
            terms.append(
                _TermRows(
                    term=term,
                    row_terms=row_terms,
                    idx=rows,
                    params=[prm[touch] for prm in params],
                    bins=[base + local_of[rows[:, col]] for col in range(idx.shape[1])],
                    posted=posted,
                    posted_rows=touch[posted],
                )
            )
        self._epoch = _Ownership(
            mask=mask,
            owned=owned,
            slots=slots,
            nbins=self.vdecomp.n_ranks * slots,
            local_of=local_of,
            terms=terms,
        )
        return self._epoch

    def _build_list(self, known: np.ndarray, owned_mask: np.ndarray) -> _PairList:
        """Search this rank's known atoms once, out to ``r_cut + skin``,
        with the replicated list's builder
        (:func:`~repro.md.neighborlist.build_rows`) restricted to the known
        atoms and to the pairs that touch an owned one: ghost-ghost pairs
        are not this rank's."""
        PAIRLIST_BUILDS.increment()
        j, starts, ref_d = build_rows(
            self.positions, self.box, self.scheme.list_cutoff, self._excl_codes,
            atoms=known, touch=owned_mask,
        )
        return _PairList(
            starts=starts,
            j=j,
            ref_d=ref_d,
            ref_positions=self.positions.copy(),
            known=self.known_mask.copy(),
            owned=owned_mask,  # an epoch's mask, never written
        )

    def _fresh_codes(
        self, lst: _PairList, i: np.ndarray, known: np.ndarray, owned_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted codes of the fresh atoms' candidate pairs ``lst`` lacks,
        and the list row each would go before.

        Fresh atoms are known now but were not at the build, or owned now
        but were not at the build.  A dense minimum-image test of those
        few atoms against every known atom, at the tree's padded radius,
        in blocks of fresh atoms sized by :data:`FRESH_BLOCK_BYTES`:
        pairs touching an owned atom, exclusions removed, each once.
        ``i`` is the list's row atom column; the list's codes are derived
        from it only on a step that has fresh atoms.
        """
        fresh = np.flatnonzero(
            (self.known_mask & ~lst.known) | (owned_mask & ~lst.owned)
        )
        if not len(fresh):
            none = np.empty(0, dtype=np.int64)
            return none, none
        FRESH_ATOMS.increment(len(fresh))
        cut2 = (self.r_cut * (1.0 + 1e-9)) ** 2
        pos_known = self.positions[known]
        found: list[np.ndarray] = []
        # one fresh atom's row of a (rows, known, 3) temporary is pos_known
        block = max(1, FRESH_BLOCK_BYTES // pos_known.nbytes)
        for start in range(0, len(fresh), block):
            part = fresh[start : start + block]
            dr = self.box.min_image(
                self.positions[part][:, None, :] - pos_known[None, :, :]
            )
            a, b = np.nonzero(np.einsum("ijk,ijk->ij", dr, dr) <= cut2)
            lo = np.minimum(part[a], known[b])
            hi = np.maximum(part[a], known[b])
            keep = (lo != hi) & (owned_mask[lo] | owned_mask[hi])
            found.append(lo[keep] * np.int64(self.n_atoms) + hi[keep])
        codes = np.unique(np.concatenate(found))
        codes = codes[absent_from(self._excl_codes, codes)]
        listed = i * np.int64(self.n_atoms) + lst.j
        codes = codes[absent_from(listed, codes)]
        return codes, np.searchsorted(listed, codes)

    def _step_pairs(self, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A sorted superset of this step's ``i < j`` pairs within ``r_cut``
        that touch an owned atom — which :meth:`NonbondedKernel.pair_terms`
        then cuts, by its exact ``r2 <= r_cut**2`` test, to bitwise the
        restriction of the replicated filtered pair list to this rank.

        Three clauses make the superset complete.  Take a pair the exact
        test accepts now, both atoms known, one owned:

        * *the tree proposes, the exact test decides* — if at the last
          build both atoms were known and one was owned, the pair was
          within ``r_cut + 2 * max_disp <= r_cut + skin`` then (a
          separation changes by at most its two atoms' displacements, and
          the list is rebuilt before any displacement exceeds
          ``skin / 2``), so :meth:`_build_list` holds it;
        * *the displacement certificate* — its build-time distance is then
          at most :func:`~repro.md.neighborlist.certified_bound`, so the
          row selection below keeps it; rows with an atom that has left
          the halo, or with no atom still owned, are dropped — they are
          not this rank's pairs this step;
        * *the fresh-atom rule* — otherwise one of its atoms is *fresh*:
          known now but not at the build (a ghost that drifted into the
          halo) or owned now but not at the build (it migrated in), and
          :meth:`_fresh_codes` tests every fresh atom against every known
          one.  A fresh candidate the list already holds is the list's to
          decide (both its atoms have reference coordinates), so only the
          others are merged in, at their sorted positions.

        ``skin == 0`` certifies nothing and rebuilds every step through
        the same code.  Displacements are measured on the atoms known at
        the build *and* now — exactly the atoms of the rows selected.
        The returned rows ``(j, starts)``, in the list's own layout, live
        for one step, and so do the kernel parameters
        :meth:`NonbondedKernel.pair_terms` derives from them; the list's
        row atom column ``i`` is expanded from its row starts for the step
        and dropped with it.
        """
        owned_mask = self._ownership().mask
        lst = self._list
        max_disp = None  # no certificate: a build is due
        if lst is not None and self.scheme.skin > 0.0:
            common = np.flatnonzero(lst.known & self.known_mask)
            disp2 = max_displacement2(
                self.box, self.positions[common], lst.ref_positions[common]
            )
            if disp2 <= (0.5 * self.scheme.skin) ** 2:
                max_disp = float(np.sqrt(disp2))
        if max_disp is None:
            lst = self._list = self._build_list(known, owned_mask)
            max_disp = 0.0

        i = np.repeat(np.arange(self.n_atoms, dtype=np.int64), np.diff(lst.starts))
        j = lst.j
        ok = lst.ref_d <= certified_bound(self.r_cut, max_disp)
        if np.any(lst.known & ~self.known_mask):  # an atom left the halo
            ok &= self.known_mask.take(i) & self.known_mask.take(j)
        if np.any(lst.owned & ~owned_mask):  # an atom migrated out
            ok &= owned_mask.take(i) | owned_mask.take(j)
        rows = np.flatnonzero(ok)
        del ok

        codes, at = self._fresh_codes(lst, i, known, owned_mask)
        del i
        # an atom's selected rows start after those of the atoms before it
        starts = np.searchsorted(rows, lst.starts)
        j = j.take(rows)
        if len(codes):
            # each new row goes to its sorted position: after the selected
            # rows before it, and after the new rows of the atoms before its own
            new_i, new_j = np.divmod(codes, self.n_atoms)
            j = np.insert(j, np.searchsorted(rows, at), new_j)
            starts += np.searchsorted(new_i, np.arange(self.n_atoms + 1))
        return j, starts

    def compute_forces(self) -> float:
        """Replay the replicated force path for the owned atoms; return cost.

        Every contribution is bucketed by (virtual replicated rank,
        owned-atom slot) — one extra trash slot absorbs scatter onto
        ghosts — accumulated in the replicated call order, then folded
        across virtual ranks with the middleware's exact fold.  The pair
        tiles are bucketed as they come (:class:`_PairBuckets`): besides
        the step's rows, nothing of list length is held but the
        owned rows posted to the ledger.
        """
        FORCE_EVALUATIONS.increment()
        p = self.vdecomp.n_ranks
        own = self._ownership()
        owned, slots, nbins = own.owned, own.slots, own.nbins
        k_own = len(owned)
        known = np.flatnonzero(self.known_mask)

        j, starts = self._step_pairs(known)
        buckets = _PairBuckets(
            own, self.vbounds, self.n_atoms, int(np.diff(starts)[own.mask].sum())
        )
        acc_nb, codes, e_lj, e_el = self.kernel.pair_terms(
            self.positions, j, starts, None, buckets
        )
        del j, starts, buckets

        total_rows = 0
        acc_terms: list[np.ndarray] = []
        for t in own.terms:
            if len(t.idx):
                e_rows, scatter = t.row_terms(self.positions, self.box, t.idx, *t.params)
                acc_terms.append(
                    scatter_rows([(t.bins[col], frows) for col, frows in scatter], nbins)
                )
                self.ledger.post_bonded(t.term, self._step, t.posted_rows, e_rows[t.posted])
                total_rows += len(t.idx)
            else:
                acc_terms.append(np.zeros((nbins, 3), dtype=np.float64))
        # last: the ledger folds a step when its last rank's pairs arrive
        self.ledger.post_pairs(self._step, codes, e_lj, e_el)

        # replicated combine order: (((bond + angle) + dih) + imp) + nonbonded
        contrib = acc_terms[0]
        contrib += acc_terms[1]
        contrib += acc_terms[2]
        contrib += acc_terms[3]
        contrib += acc_nb
        contrib = contrib.reshape(p, slots, 3)

        if self.middleware == "mpi":
            folded = binomial_fold([contrib[v] for v in range(p)])
            forces_owned = folded[:k_own]
        else:
            # CMPI: each virtual rank's allreduce result is its own chain
            # over raw peer blocks; replay the chain of each atom's owner
            forces_owned = np.empty((k_own, 3), dtype=np.float64)
            vatom = np.searchsorted(self.vbounds, owned, side="right") - 1
            for v in np.unique(vatom):
                sel = vatom == v
                data = contrib[v, :k_own][sel]
                for k in range(1, p):
                    data = data + contrib[(v - k) % p, :k_own][sel]
                forces_owned[sel] = data

        if not np.isfinite(forces_owned).all():
            raise RuntimeError(
                f"rank {self.rank} step {self._step}: non-finite folded forces "
                "— the halo failed to cover an interaction"
            )
        self._forces_owned = forces_owned
        self._owned_idx = owned
        return (
            self.cost.neighbor_build(k_own * len(known))
            + self.cost.classic_pairs(self.kernel.last_pair_count)
            + self.cost.bonded(total_rows)
        )

    def integrate(self, dt: float) -> float:
        """Leapfrog update of the owned atoms; elementwise per atom, so
        bitwise equal to the replicated slice update."""
        owned = self._owned_idx
        accel = self._forces_owned / self.masses[owned][:, None] * ACCEL_CONVERT
        self.velocities[owned] = self.velocities[owned] + accel * dt
        self.positions[owned] = self.positions[owned] + self.velocities[owned] * dt
        self._classified = False
        return self.cost.integrate(len(owned))
