"""Cell-list based Verlet neighbour list.

Builds the pair list that both the classic cutoff kernel and the PME
direct-space kernel iterate over.  Candidate pairs come from a periodic
``cKDTree`` query (every pair, when the box is too small for a toroidal
tree query); the *final* pair set is decided by one exact
minimum-image distance filter, so the candidate source is unobservable
in the results:

* the tree query radius is padded by a relative ``1e-9`` so pairs the
  tree metric and ``min_image`` disagree about at the ulp level are
  still proposed (and then settled by the exact filter);
* ``last_candidates`` — the cost-model's neighbour-search workload — is
  *defined* as the cell-enumeration candidate count, computed
  arithmetically from the cell populations, so virtual timings do not
  depend on what proposed the candidates.

The list carries a ``skin`` margin so it stays valid while no atom has moved
more than ``skin / 2`` since the build (:meth:`NeighborList.needs_rebuild`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from ..instrument.counters import NEIGHBOR_BUILDS
from .box import PeriodicBox
from .cutoff import CutoffScheme
from .nonbonded import accept_within, row_tiles

__all__ = ["NeighborList", "brute_force_pairs"]


def brute_force_pairs(
    positions: np.ndarray, box: PeriodicBox, cutoff: float
) -> np.ndarray:
    """All pairs (i < j) within ``cutoff`` by direct O(N^2) search.

    Reference implementation used by the tests to validate the cell list;
    chunked over rows to bound memory.
    """
    n = len(positions)
    cutoff2 = cutoff * cutoff
    chunks: list[np.ndarray] = []
    chunk_rows = max(1, 2_000_000 // max(n, 1))
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        dr = positions[start:stop, None, :] - positions[None, :, :]
        dr = box.min_image(dr)
        d2 = np.einsum("ijk,ijk->ij", dr, dr)
        ii, jj = np.nonzero(d2 <= cutoff2)
        ii = ii + start
        keep = ii < jj
        chunks.append(np.stack([ii[keep], jj[keep]], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(chunks, axis=0)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order].astype(np.int64)


def brute_force_nearest(
    points: np.ndarray, targets: np.ndarray, box: PeriodicBox, chunk: int = 256
) -> np.ndarray:
    """Minimum-image distance from each point to its nearest target by
    direct search (``inf`` when there are no targets).

    Reference implementation for :func:`nearest_distance`, and the cheaper
    one for a handful of points; chunked over points to bound memory.
    """
    out = np.empty(len(points), dtype=np.float64)
    for start in range(0, len(points), chunk):
        sl = slice(start, start + chunk)
        dr = box.min_image(points[sl, None, :] - targets[None, :, :])
        out[sl] = np.sqrt(np.einsum("ijk,ijk->ij", dr, dr).min(axis=1, initial=np.inf))
    return out


def _cell_grid(box: PeriodicBox, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Number of cells per dimension and the cell edge lengths."""
    n_cells = np.maximum(1, np.floor(box.lengths / cutoff).astype(np.int64))
    return n_cells, box.lengths / n_cells


def _neighbour_cell_pairs(n_cells: np.ndarray) -> np.ndarray:
    """Unique unordered pairs of (linear) cell indices that can host a pair.

    Includes the self pair (c, c).  With very small grids (fewer than three
    cells along an axis) different offsets alias to the same neighbour, so
    the result is deduplicated.

    The box and cutoff are fixed for the lifetime of a list, so the grid —
    and therefore this O(cells x 27) set loop — never changes between
    rebuilds; the result is memoized on the grid tuple.
    """
    return _neighbour_cell_pairs_cached(*(int(v) for v in n_cells))


@lru_cache(maxsize=32)
def _neighbour_cell_pairs_cached(nx: int, ny: int, nz: int) -> np.ndarray:
    coords = np.array(
        [(x, y, z) for x in range(nx) for y in range(ny) for z in range(nz)],
        dtype=np.int64,
    )
    lin = coords[:, 0] * ny * nz + coords[:, 1] * nz + coords[:, 2]

    offsets = np.array(
        [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
        dtype=np.int64,
    )
    pairs: set[tuple[int, int]] = set()
    for off in offsets:
        nb = (coords + off) % np.array([nx, ny, nz])
        nb_lin = nb[:, 0] * ny * nz + nb[:, 1] * nz + nb[:, 2]
        for a, b in zip(lin, nb_lin):
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    out = np.array(sorted(pairs), dtype=np.int64)
    out.setflags(write=False)  # shared across builds via the memo
    return out


def _encode(pairs: np.ndarray, n_atoms: int) -> np.ndarray:
    """Encode (i, j) pairs as i * n_atoms + j for fast membership tests."""
    return pairs[:, 0] * np.int64(n_atoms) + pairs[:, 1]


# ----------------------------------------------------------------------
# Pair-list building blocks.  :meth:`NeighborList.build` composes them over
# all atoms; the spatial engine (:mod:`repro.parallel.spatial.engine`)
# composes the same functions over one rank's known atoms, so both lists
# are decided by one exact test and certified by one bound.


def exclusion_codes(exclusions: np.ndarray, n_atoms: int) -> np.ndarray:
    """Sorted pair codes of the ``i < j`` exclusion rows."""
    if exclusions.size:
        return np.sort(_encode(exclusions, n_atoms))
    return np.empty(0, dtype=np.int64)


def tree_candidates(
    wrapped: np.ndarray, box: PeriodicBox, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ``lo < hi`` of ``wrapped`` proposed by a periodic k-d tree.

    The query radius is padded by a relative ``1e-9``, so the proposal is
    a superset of what :func:`within_cutoff` accepts.  When the box is
    too small for a toroidal query at this radius, every pair is
    proposed; the exact test decides either way.
    """
    padded = cutoff * (1.0 + 1e-9)
    if not len(wrapped) or padded >= 0.5 * float(np.min(box.lengths)):
        return np.triu_indices(len(wrapped), k=1)
    # ``wrap`` guarantees coordinates in [0, L)
    cand = cKDTree(wrapped, boxsize=box.lengths).query_pairs(
        padded, output_type="ndarray"
    )
    return cand[:, 0].astype(np.int64, copy=False), cand[:, 1].astype(np.int64, copy=False)


#: Nearest targets the tree proposes per point in :func:`nearest_distance`.
NEAREST_PROPOSALS = 8


def nearest_distance(
    points: np.ndarray, targets: np.ndarray, box: PeriodicBox
) -> np.ndarray:
    """:func:`brute_force_nearest`, bit for bit, at k-d tree cost.

    A periodic k-d tree proposes each point's :data:`NEAREST_PROPOSALS`
    nearest targets; the reference's minimum-image + ``einsum`` arithmetic
    decides among them.  The tree's metric and ours differ at the ulp
    level, so a target the tree ranks beyond the proposals could only be
    the nearest if it ties with the tree's nearest: a point whose last
    proposal lies within ``1e-9`` of the box edge of its first (more
    near-equidistant targets than proposals) is decided densely instead.
    """
    k = NEAREST_PROPOSALS
    if len(targets) <= k or not len(points):
        return brute_force_nearest(points, targets, box)
    tree = cKDTree(box.wrap(targets), boxsize=box.lengths)
    tree_d, near = tree.query(box.wrap(points), k=k)
    dr = box.min_image(points[:, None, :] - targets[near])
    out = np.sqrt(np.einsum("ijk,ijk->ij", dr, dr).min(axis=1))
    tied = np.flatnonzero(tree_d[:, -1] - tree_d[:, 0] <= 1e-9 * float(np.max(box.lengths)))
    if len(tied):
        out[tied] = brute_force_nearest(points[tied], targets, box)
    return out


def within_cutoff(
    positions: np.ndarray,
    box: PeriodicBox,
    lo: np.ndarray,
    hi: np.ndarray,
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The exact accept test: ``(rows, d2)`` of the pairs within ``cutoff``.

    Minimum-image displacement and a squared-distance compare — identical
    arithmetic whatever proposed the candidates, so the accepted set is too.
    The proposals are walked in the pair kernel's row tiles
    (:func:`repro.md.nonbonded.row_tiles`); the verdict is per row, so the
    tiling is invisible in the result.
    """
    cut2 = cutoff * cutoff
    tiles = row_tiles(len(lo))
    if len(tiles) == 1:
        rows, _, d2 = accept_within(positions, box, lo, hi, cut2)
        return rows, d2.take(rows)
    rows_out = np.empty(len(lo), dtype=np.intp)
    d2_out = np.empty(len(lo), dtype=np.float64)
    filled = 0
    for tile in tiles:
        rows, _, d2 = accept_within(positions, box, lo[tile], hi[tile], cut2)
        stop = filled + len(rows)
        np.add(rows, tile.start, out=rows_out[filled:stop])
        d2.take(rows, out=d2_out[filled:stop])
        filled = stop
    return rows_out[:filled], d2_out[:filled]


def absent_from(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``codes`` not in ``sorted_codes`` (a
    sorted-membership test; same booleans as ``~np.isin``) — how the
    exclusions leave a pair list."""
    if not len(sorted_codes) or not len(codes):
        return np.ones(len(codes), dtype=bool)
    at = np.searchsorted(sorted_codes, codes)
    at[at == len(sorted_codes)] = 0
    return sorted_codes[at] != codes


def drop_excluded(codes: np.ndarray, excl_codes: np.ndarray) -> np.ndarray:
    """Row numbers of the unique pair ``codes`` in ascending code order,
    the rows whose code is in the sorted ``excl_codes`` left out — how
    the exclusions leave a freshly built pair list.

    Sorting first and then searching the few exclusion codes in the
    sorted codes costs a fraction of searching every candidate code in
    the exclusion table; the kept rows and their order are the same.
    """
    order = np.argsort(codes)
    if not len(excl_codes) or not len(codes):
        return order
    ordered = codes.take(order)
    at = np.searchsorted(ordered, excl_codes)
    at[at == len(ordered)] = 0  # beyond every code: matches nothing below
    return np.delete(order, at[ordered.take(at) == excl_codes])


def max_displacement2(
    box: PeriodicBox, positions: np.ndarray, ref_positions: np.ndarray
) -> float:
    """Largest squared minimum-image displacement between two coordinate sets."""
    dr = box.min_image(positions - ref_positions)
    return float(np.max(np.einsum("ij,ij->i", dr, dr))) if len(dr) else 0.0


def certified_bound(r_cut: float, max_disp: float) -> float:
    """Largest build-time distance of a pair that can reach ``r_cut`` now.

    The minimum-image distance is a metric on the torus, so a pair's
    separation changes by at most the sum of its two atoms' displacements
    since the build: a pair whose build-time distance exceeds
    ``r_cut + 2 * max_disp`` cannot pass the exact ``r2 <= r_cut**2``
    test.  The ``1e-6`` A margin swallows the rounding of the stored
    ``sqrt`` and of the displacement measurement.
    """
    return r_cut + 2.0 * max_disp + 1e-6


@dataclass
class NeighborList:
    """A rebuildable Verlet pair list with exclusions applied at build time.

    Parameters
    ----------
    box:
        The periodic box (fixed for the lifetime of the list).
    scheme:
        Cutoff parameters; pairs are collected out to
        ``scheme.list_cutoff = r_cut + skin``.
    exclusions:
        Array of shape (n_excl, 2) with ``i < j`` rows to omit from the
        list (bonded exclusions).
    """

    box: PeriodicBox
    scheme: CutoffScheme
    exclusions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    pairs: np.ndarray = field(init=False, default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    _ref_positions: np.ndarray | None = field(init=False, default=None)
    _excl_codes: np.ndarray | None = field(init=False, default=None)
    n_builds: int = field(init=False, default=0)
    #: candidate pairs examined by the last build (cost-model input)
    last_candidates: int = field(init=False, default=0)
    #: True when the most recent ``ensure`` call rebuilt the list
    last_ensure_rebuilt: bool = field(init=False, default=False)
    #: build-time pair distances aligned with ``pairs`` rows; together
    #: with :attr:`last_max_disp` they certify :meth:`step_prefilter`
    pair_ref_d: np.ndarray | None = field(init=False, default=None, repr=False)
    #: largest atom displacement since the build, as measured by the most
    #: recent rebuild check (inf until a check validates the list)
    last_max_disp: float = field(init=False, default=float("inf"))

    def __post_init__(self) -> None:
        self.box.check_cutoff(self.scheme.r_cut)
        if self.exclusions.size and np.any(self.exclusions[:, 0] >= self.exclusions[:, 1]):
            raise ValueError("exclusion rows must satisfy i < j")

    # ------------------------------------------------------------------
    def build(self, positions: np.ndarray) -> np.ndarray:
        """(Re)build the pair list for the given positions.

        Returns the new ``pairs`` array of shape (n_pairs, 2), ``i < j``.
        """
        NEIGHBOR_BUILDS.increment()
        positions = np.asarray(positions, dtype=np.float64)
        n = len(positions)
        if self._excl_codes is None:
            self._excl_codes = exclusion_codes(self.exclusions, n)

        cutoff = self.scheme.list_cutoff
        wrapped = self.box.wrap(positions)
        n_cells, cell_len = _cell_grid(self.box, cutoff)
        ny, nz = int(n_cells[1]), int(n_cells[2])

        cell_xyz = np.minimum(
            (wrapped / cell_len).astype(np.int64), n_cells - 1
        )
        cell_of_atom = cell_xyz[:, 0] * ny * nz + cell_xyz[:, 1] * nz + cell_xyz[:, 2]
        total_cells = int(np.prod(n_cells))

        # The cost model's neighbour-search workload is the cell
        # enumeration's candidate count.  It only depends on the cell
        # populations — self cells contribute m*(m-1)/2, cross cells
        # la*lb — so it is computed arithmetically, whatever proposes
        # the actual candidates.
        cell_pairs = _neighbour_cell_pairs(n_cells)
        sizes = np.bincount(cell_of_atom, minlength=total_cells).astype(np.int64)
        ca, cb = cell_pairs[:, 0], cell_pairs[:, 1]
        sa, sb = sizes[ca], sizes[cb]
        self_pair = ca == cb
        self.last_candidates = int(
            (sa[self_pair] * (sa[self_pair] - 1) // 2).sum()
            + (sa[~self_pair] * sb[~self_pair]).sum()
        )

        # the tree proposes a padded superset; the exact filter decides
        lo, hi = tree_candidates(wrapped, self.box, cutoff)
        sel, d2 = within_cutoff(positions, self.box, lo, hi, cutoff)
        lo, hi = lo.take(sel), hi.take(sel)
        # sorting the (unique) packed codes gives exactly the
        # lexsort((hi, lo)) permutation, in about half the time
        keep = drop_excluded(lo * np.int64(n) + hi, self._excl_codes)
        self.pairs = np.stack([lo.take(keep), hi.take(keep)], axis=1)
        self.pair_ref_d = np.sqrt(d2.take(keep))

        self._ref_positions = positions.copy()
        self.last_max_disp = 0.0
        self.n_builds += 1
        return self.pairs

    # ------------------------------------------------------------------
    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """True if any atom moved more than ``skin / 2`` since the build."""
        if self._ref_positions is None or self.scheme.skin == 0.0:
            self.last_max_disp = float("inf")
            return True
        max_disp2 = max_displacement2(self.box, np.asarray(positions), self._ref_positions)
        if max_disp2 > (0.5 * self.scheme.skin) ** 2:
            self.last_max_disp = float("inf")
            return True
        self.last_max_disp = float(np.sqrt(max_disp2))
        return False

    def ensure(self, positions: np.ndarray) -> np.ndarray:
        """Rebuild if required; return the current pair list."""
        self.last_ensure_rebuilt = self.needs_rebuild(positions)
        if self.last_ensure_rebuilt:
            self.build(positions)
        return self.pairs

    def step_prefilter(self) -> tuple[np.ndarray, float] | None:
        """The certificate of the last rebuild decision, or ``None``.

        ``(ref_d, bound)``: the build-time pair distances aligned with
        :attr:`pairs` rows, and the largest build-time distance a pair
        can have while still reaching ``r_cut`` at the coordinates that
        decision was taken for (:func:`certified_bound`).  Rows beyond
        the bound cannot pass the exact ``r2 <= r_cut**2`` test, so a
        kernel handed the certificate as ``reach``
        (:meth:`~repro.md.nonbonded.NonbondedKernel.pair_terms`) drops
        them before the minimum-image chain and accepts — bit for bit —
        the pairs it would have accepted without it.

        The certificate holds for those coordinates only (or for
        bit-identical copies of them, as every rank of a replicated run
        holds): a caller evaluating other coordinates must take a new
        decision (:meth:`ensure`) first.  ``None`` until a decision has
        certified the list.
        """
        if self.pair_ref_d is None or not np.isfinite(self.last_max_disp):
            return None
        return self.pair_ref_d, certified_bound(self.scheme.r_cut, self.last_max_disp)
