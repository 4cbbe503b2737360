"""Non-bonded pair kernels: Lennard-Jones + electrostatics over a pair list.

Two electrostatic modes, matching the two energy calculations the paper
characterizes:

* ``"shift"`` — classic CHARMM truncation: ``C q_i q_j / r`` multiplied by
  the shift function that takes energy and force to zero at the cutoff.
* ``"ewald"`` — the PME *direct-space* term ``C q_i q_j erfc(alpha r) / r``;
  the reciprocal-space complement lives in :mod:`repro.pme`.

The Lennard-Jones term uses the CHARMM switching function over
``[r_on, r_cut]`` in both modes.

:class:`NonbondedKernel` performs the cutoff filter and the force
scatter; the per-pair arithmetic on the surviving rows is
:func:`pair_physics_numpy`, a pure elementwise function of one pair row
and the single source of truth every path (serial, replicated, spatial)
reproduces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from ..instrument.counters import FORCE_EVALUATIONS
from .box import PeriodicBox
from .cutoff import CutoffScheme, shift_function, switch_function
from .forcefield import ForceField
from .units import COULOMB_CONSTANT

__all__ = ["NonbondedKernel", "PairEnergies", "pair_physics_numpy"]

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)

#: Rows per tile of the pair pipeline.  One evaluation is a chain of ~60
#: elementwise numpy passes, each allocating its result; on a list too
#: long for those temporaries to stay in L2 every pass streams through
#: memory, so lists are walked in row tiles, whole chain per tile.
#: Measured on the 451,078-row myoglobin list in its CSR form, with its
#: certificate (ms per ``compute``, median of 25 interleaved rounds /
#: tracemalloc peak of one call): one tile 76.0 / 77.9 MB; tiles of
#: 131,072 rows 58.4 / 29.3 MB; 65,536 49.5 / 20.0 MB; 32,768 47.7 /
#: 13.8 MB; 16,384 46.7 / 10.7 MB; 8,192 47.9 / 9.1 MB; 4,096 57.3 /
#: 8.3 MB.  Time is flat from 8 k to 64 k rows, per-call numpy overhead
#: below that; the peak falls with the tile until the two energy rows of
#: the reduction dominate.  16 k rows sit on the time plateau at about
#: half of 64 k's peak: ``myo_pme_p1`` read 114.6 MB ``peak_rss_mb``
#: against 120.9 MB at 65,536 (medians, 3 interleaved ledger pairs).
PAIR_TILE_ROWS = 16_384


def row_tiles(n_rows: int) -> list[slice]:
    """The row slices a list of ``n_rows`` pairs is walked in.

    A list that fits one tile (an empty one included) is one slice, so
    short lists take exactly the untiled steps.  Longer lists are cut into
    the fewest tiles of at most :data:`PAIR_TILE_ROWS` rows, all of equal
    length to within a row: a list just over one tile is two half tiles,
    not a full tile and a sliver, so no tile's temporaries outgrow what
    its share of the list needs.
    """
    n_tiles = max(1, -(-n_rows // PAIR_TILE_ROWS))
    cuts = [(k * n_rows) // n_tiles for k in range(n_tiles)] + [max(n_rows, 1)]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


def row_atoms(starts: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """The row atom column ``i`` of rows ``[r0, r1)`` of a list with row
    starts ``starts``: one ``np.repeat`` over the atoms those rows belong
    to, each as often as it has rows among them."""
    a0 = int(np.searchsorted(starts, r0, side="right")) - 1
    a1 = max(a0, int(np.searchsorted(starts, r1, side="left")))
    counts = np.diff(np.clip(starts[a0 : a1 + 1], r0, r1))
    return np.repeat(np.arange(a0, a1, dtype=np.int64), counts)


def accept_within(
    positions: np.ndarray, box: PeriodicBox, i: np.ndarray, j: np.ndarray, cut2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact accept test on one tile of candidate pairs ``(i, j)``.

    Gather, minimum image, squared distance, ``r2 <= cut2``: returns
    ``(sel, dr, r2)`` — the accepted row numbers, and the displacement
    and squared separation of *every* row.  Elementwise per row, so a
    pair's verdict and values do not depend on what shares its tile.
    Index-based gathers and compression (``take``/``flatnonzero``) give
    the values of fancy/boolean indexing several times faster.
    """
    pi = positions.take(i, axis=0)
    dr = box.min_image(np.subtract(pi, positions.take(j, axis=0), out=pi))
    r2 = np.einsum("ij,ij->i", dr, dr)
    return np.flatnonzero(r2 <= cut2), dr, r2


@dataclass(frozen=True)
class PairEnergies:
    """Energies (kcal/mol) from one non-bonded evaluation."""

    lj: float
    elec: float

    @property
    def total(self) -> float:
        return self.lj + self.elec


def pair_physics_numpy(
    r2: np.ndarray,
    dr: np.ndarray,
    eps_ij: np.ndarray,
    rmin_ij: np.ndarray,
    qq: np.ndarray,
    scheme: CutoffScheme,
    elec_mode: str,
    ewald_alpha: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference pair physics on cutoff-filtered rows.

    Parameters are per-pair arrays: squared separation ``r2``, the
    minimum-image displacement ``dr`` (force direction), the combined LJ
    parameters ``eps_ij``/``rmin_ij`` and the charge product ``qq``
    (Coulomb constant included).  Returns ``(e_lj, e_el, fvec)``.
    """
    r = np.sqrt(r2)
    inv_r = 1.0 / r

    # --- Lennard-Jones with switching ------------------------------
    u = rmin_ij * inv_r
    u2 = u * u
    x6 = u2 * u2 * u2
    x12 = x6 * x6
    e_lj_raw = eps_ij * (x12 - 2.0 * x6)
    de_lj_raw = -12.0 * eps_ij * inv_r * (x12 - x6)
    # Below the switch-on radius S = 1 and dS/dr = 0, so the raw values
    # pass through untouched; evaluate the switching polynomial only on
    # the rows inside the [r_on, r_cut] window (elementwise, so the
    # windowed rows carry the exact bits switch_function would give on
    # the full array).  The raw arrays are fresh temporaries, so the
    # windowed rows are patched in place after their raw values are
    # captured — no copies of the full arrays.
    e_lj_pair = e_lj_raw
    de_lj = de_lj_raw
    window = np.flatnonzero(r >= scheme.switch_on)
    if len(window):
        s, ds = switch_function(r.take(window), scheme.switch_on, scheme.r_cut)
        e_w = e_lj_raw.take(window)
        d_w = de_lj_raw.take(window)
        e_lj_pair[window] = e_w * s
        de_lj[window] = d_w * s + e_w * ds

    # --- electrostatics ---------------------------------------------
    if elec_mode == "shift":
        sh, dsh = shift_function(r, scheme.r_cut)
        e_el_pair = qq * inv_r * sh
        de_el = qq * (-inv_r * inv_r * sh + inv_r * dsh)
    else:
        alpha = float(ewald_alpha)  # validated by the kernel constructor
        erfc_ar = erfc(alpha * r)
        e_el_pair = qq * inv_r * erfc_ar
        de_el = -qq * inv_r * (
            erfc_ar * inv_r + _TWO_OVER_SQRT_PI * alpha * np.exp(-(alpha * r) ** 2)
        )

    de_total = de_lj + de_el
    fvec = (-de_total * inv_r)[:, None] * dr  # force on atom i
    return e_lj_pair, e_el_pair, fvec


class NonbondedKernel:
    """Evaluates LJ + electrostatics over an explicit pair list.

    Parameters
    ----------
    forcefield:
        Source of per-type LJ parameters.
    type_names:
        Atom types, length ``n_atoms``.
    charges:
        Partial charges (e), length ``n_atoms``.
    box, scheme:
        Geometry and cutoff parameters.
    elec_mode:
        ``"shift"`` or ``"ewald"``.
    ewald_alpha:
        Ewald splitting parameter (1/A); required when ``elec_mode="ewald"``.
    lj_tables:
        Optional precomputed ``(eps, rmin_half)`` per-atom tables — the
        tables are identical on every replicated-data rank, so the shared
        compute layer builds them once and hands them to each kernel.
    """

    def __init__(
        self,
        forcefield: ForceField,
        type_names: list[str],
        charges: np.ndarray,
        box: PeriodicBox,
        scheme: CutoffScheme,
        elec_mode: str = "shift",
        ewald_alpha: float | None = None,
        lj_tables: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if elec_mode not in ("shift", "ewald"):
            raise ValueError(f"unknown elec_mode {elec_mode!r}")
        if elec_mode == "ewald" and (ewald_alpha is None or ewald_alpha <= 0):
            raise ValueError("elec_mode='ewald' requires a positive ewald_alpha")
        self.box = box
        self.scheme = scheme
        self.elec_mode = elec_mode
        self.ewald_alpha = ewald_alpha
        self.charges = np.asarray(charges, dtype=np.float64)
        if lj_tables is None:
            lj_tables = forcefield.lj_tables(type_names)
        self.eps, self.rmin_half = lj_tables
        if len(self.charges) != len(self.eps):
            raise ValueError("charges and type_names disagree on atom count")
        #: number of pair interactions evaluated in the last call (cost model)
        self.last_pair_count: int = 0

    # ------------------------------------------------------------------
    def pair_terms(
        self,
        positions: np.ndarray,
        j: np.ndarray,
        starts: np.ndarray,
        reach: tuple[np.ndarray, float] | None,
        consume,
    ):
        """Per-pair energies and forces for the pairs within the true cutoff,
        handed to ``consume`` one row tile at a time.

        The pairs are rows of a list in CHARMM's non-bonded layout: ``j``
        is the partner column (JNB) of the rows to evaluate, and
        ``starts`` the row starts (INBLO) of a list whose last ``len(j)``
        rows they are — atom ``a``'s rows are ``starts[a]`` to
        ``starts[a + 1]``.  A whole list passes its ``(j, starts)``; a
        block of row atoms ``[lo, hi)`` passes ``j[starts[lo]:starts[hi]]``
        and ``starts[:hi + 1]``, both views.  Each tile's row atoms ``i``
        are one ``np.repeat`` over the atoms whose rows it covers
        (:func:`row_atoms`).

        Each tile's part is ``(i, j, e_lj_pair, e_el_pair, fvec)``: every
        array is restricted to the tile's pairs inside ``scheme.r_cut``,
        and ``fvec`` is the force on atom ``i`` (atom ``j`` receives
        ``-fvec``).  Every value is a pure elementwise function of its own
        pair, so callers holding any sub- or superset of a pair list obtain
        bitwise-identical rows — the property the spatial-decomposition
        engine relies on to reproduce the replicated-data forces exactly,
        and the one that lets the rows be evaluated :data:`PAIR_TILE_ROWS`
        at a time: the whole chain runs per tile, and each tile's accepted
        rows go, in list order, to ``consume(start, part)`` (``start`` rows
        were accepted before the tile).  The call returns
        ``consume.result(n_accepted)``.  :meth:`compute` reduces the tiles
        (:class:`_Reduction`), the spatial engine buckets them per virtual
        rank; nothing assembles the list-length arrays.

        ``reach`` is an optional certificate ``(ref_d, bound)`` with
        ``ref_d`` aligned with ``j``
        (:meth:`repro.md.neighborlist.NeighborList.step_prefilter`, cut
        as ``j`` was): rows whose ``ref_d`` exceeds ``bound`` cannot
        pass the exact cutoff test, so they are dropped *before* the
        minimum-image chain and the accepted rows — every downstream bit
        — are those of the call without it.
        """
        filled = 0
        base = int(starts[-1]) - len(j)
        for tile in row_tiles(len(j)):
            part = self._tile_terms(positions, j, starts, base, tile, reach)
            consume(filled, part)
            filled += len(part[0])
        self.last_pair_count = filled
        return consume.result(filled)

    def _tile_terms(
        self,
        positions: np.ndarray,
        j: np.ndarray,
        starts: np.ndarray,
        base: int,
        tile: slice,
        reach: tuple[np.ndarray, float] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`pair_terms` of the rows ``j[tile]``, which are the list's
        rows ``base + tile.start`` onwards.

        ``reach``'s ``ref_d`` is aligned with ``j`` and sliced by the
        same tile.  The combined LJ/charge parameters are gathered from
        the per-atom tables for the accepted rows only, and die with the
        tile.
        """
        j = j[tile]
        i = row_atoms(starts, base + tile.start, base + tile.start + len(j))
        if reach is not None:
            # rows beyond the certified bound cannot pass the exact test
            # below; dropping them up front skips their share of the
            # minimum-image chain
            ref_d, bound = reach
            pre = np.flatnonzero(ref_d[tile] <= bound)
            if len(pre) < len(i):
                i, j = i.take(pre), j.take(pre)
        sel, dr, r2 = accept_within(positions, self.box, i, j, self.scheme.r_cut**2)
        i, j, dr, r2 = i.take(sel), j.take(sel), dr.take(sel, axis=0), r2.take(sel)
        if len(i) == 0:
            empty = np.empty(0, dtype=np.float64)
            return i, j, empty, empty, np.empty((0, 3), dtype=np.float64)

        # sqrt(eps_i * eps_j), rmin_i + rmin_j and C * q_i * q_j, taken in
        # place on the gathers (a product commutes to the bit, so q_i * C
        # is C * q_i)
        eps_ij = self.eps.take(i)
        eps_ij *= self.eps.take(j)
        np.sqrt(eps_ij, out=eps_ij)
        rmin_ij = self.rmin_half.take(i)
        rmin_ij += self.rmin_half.take(j)
        qq = self.charges.take(i)
        qq *= COULOMB_CONSTANT
        qq *= self.charges.take(j)
        e_lj_pair, e_el_pair, fvec = pair_physics_numpy(
            r2, dr, eps_ij, rmin_ij, qq, self.scheme, self.elec_mode, self.ewald_alpha
        )
        return i, j, e_lj_pair, e_el_pair, fvec

    # ------------------------------------------------------------------
    def compute(
        self,
        positions: np.ndarray,
        j: np.ndarray,
        starts: np.ndarray,
        reach: tuple[np.ndarray, float] | None = None,
    ) -> tuple[PairEnergies, np.ndarray]:
        """Energy and forces for the pairs within the true cutoff.

        The rows ``(j, starts)`` are those of :meth:`pair_terms` and may
        include the neighbour-list skin; pairs beyond ``scheme.r_cut`` are
        filtered there (which also takes the optional certificate
        ``reach``), and the tiles are reduced as they come
        (:class:`_Reduction`): nothing of list length but two energy rows
        is held.
        """
        FORCE_EVALUATIONS.increment()
        if len(j) == 0:
            self.last_pair_count = 0
            return PairEnergies(0.0, 0.0), np.zeros((len(positions), 3))
        return self.pair_terms(
            positions, j, starts, reach, _Reduction(len(positions), len(j))
        )


class _Reduction:
    """:meth:`NonbondedKernel.compute`'s consumer: the energies and forces
    of the tiles, bit for bit those of the assembled arrays.

    Forces: ``np.add.at`` adds each tile's rows into zeroed per-dimension
    accumulators for ``i`` and for ``j``, in list order from 0.0 — the
    additions one ``bincount`` over the whole list makes.  Energies: each
    tile's rows are written into a candidate-length row, and ``np.sum``
    runs over the filled prefix, so the pairwise sum sees the array an
    assembled evaluation returns.
    """

    def __init__(self, n_atoms: int, n_rows: int) -> None:
        self.acc_i = np.zeros((3, n_atoms))
        self.acc_j = np.zeros((3, n_atoms))
        self.e_lj = np.empty(n_rows)
        self.e_el = np.empty(n_rows)

    def __call__(self, start: int, part: tuple) -> None:
        i, j, e_lj, e_el, fvec = part
        stop = start + len(i)
        self.e_lj[start:stop] = e_lj
        self.e_el[start:stop] = e_el
        # add.at wants contiguous 1-D weights: one transposed copy per tile
        c = np.ascontiguousarray(fvec.T)
        for dim in range(3):
            np.add.at(self.acc_i[dim], i, c[dim])
            np.add.at(self.acc_j[dim], j, c[dim])

    def result(self, filled: int) -> tuple[PairEnergies, np.ndarray]:
        energies = PairEnergies(
            float(np.sum(self.e_lj[:filled])), float(np.sum(self.e_el[:filled]))
        )
        return energies, np.ascontiguousarray(np.subtract(self.acc_i, self.acc_j).T)
