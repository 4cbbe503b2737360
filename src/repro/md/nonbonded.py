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

import weakref
from dataclasses import dataclass
from typing import Callable

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
#: Measured on the 451,078-row myoglobin list (ms per ``compute``, median
#: of 25 interleaved rounds): one tile 57.5; tiles of 131,072 rows 42.5;
#: 65,536 39.9; 32,768 43.1; 16,384 41.5; 8,192 41.8; 4,096 44.2;
#: 1,024 62.5 — flat from 8 k to 64 k rows, per-call numpy overhead below
#: that.  The top of the plateau keeps the tile count smallest.
PAIR_TILE_ROWS = 65_536


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


def _scatter_forces(
    forces: np.ndarray, i: np.ndarray, j: np.ndarray, contrib: np.ndarray
) -> None:
    """Accumulate pair forces (+contrib on ``i``, -contrib on ``j``) in place.

    ``bincount`` wants contiguous 1-D weights; one transposed copy of the
    contribution matrix up front beats six strided column extractions.
    """
    n = len(forces)
    c = np.ascontiguousarray(contrib.T)
    for dim in range(3):
        forces[:, dim] += np.bincount(i, weights=c[dim], minlength=n)
        forces[:, dim] -= np.bincount(j, weights=c[dim], minlength=n)


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
        shared_statics: Callable | None = None,
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
        # per-pair statics (eps_ij, rmin_ij, qq) cached for the lifetime
        # of one pair-list base array; see _statics_rows.  shared_statics,
        # when given, deduplicates that computation across rank kernels
        # (every replicated rank sees the same base array and identical
        # parameter tables, so one evaluation serves all); a caller that
        # derives each step's rows from a longer-lived list seeds the
        # cache itself (adopt_statics)
        self._shared_statics = shared_statics
        self._statics_base: weakref.ref | None = None
        self._statics: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # optional certified candidate pre-drop; see attach_prefilter
        self._prefilter: Callable | None = None
        #: number of pair interactions evaluated in the last call (cost model)
        self.last_pair_count: int = 0

    # ------------------------------------------------------------------
    def attach_prefilter(self, fn: Callable | None) -> None:
        """Install a certified candidate pre-drop hook.

        ``fn(positions, base)`` returns ``(ref_d, bound)`` or ``None``;
        see :meth:`repro.md.neighborlist.NeighborList.step_prefilter`.
        Rows of ``base`` whose ``ref_d`` exceeds ``bound`` are dropped
        *before* the minimum-image chain in :meth:`pair_terms` — by the
        hook's contract they cannot pass the exact cutoff test, so the
        accepted pair rows (and every downstream bit) are unchanged.
        """
        self._prefilter = fn

    @staticmethod
    def _row_slice(pairs: np.ndarray) -> tuple[np.ndarray, int] | None:
        """``(base, offset)`` when ``pairs`` is a plain row-slice view.

        Returns ``None`` for views that are not contiguous row slices of
        their base (callers fall back to per-call computation, bitwise
        identical either way).
        """
        base = pairs.base if isinstance(pairs.base, np.ndarray) else pairs
        if (
            pairs.ndim != 2
            or base.ndim != 2
            or base.shape[1:] != pairs.shape[1:]
            or base.strides != pairs.strides
        ):
            return None
        span = base.strides[0]
        if span <= 0:
            return None
        delta = pairs.__array_interface__["data"][0] - base.__array_interface__["data"][0]
        if delta < 0 or delta % span:
            return None
        off = delta // span
        if off + len(pairs) > len(base):
            return None
        return base, int(off)

    def _statics_rows(
        self, pairs: np.ndarray, sliced: tuple[np.ndarray, int] | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Combined LJ/charge parameters for every row of ``pairs``.

        A pair list is reused across many steps (a neighbour list keeps
        one array alive between rebuilds, and each rank's block is a
        row-slice view of it), while the gathered parameters depend only
        on the pair *indices*.  So compute them once per base array and
        serve row-slices from the cache.  Identity of the base array is
        the cache key (held by weakref): any rebuild allocates a new
        array and naturally invalidates.  Views that are not plain
        row-slices (``sliced``, from :meth:`_row_slice`, is ``None``) fall
        back to ``None`` and the caller computes the accepted rows'
        parameters directly, so this is bitwise invisible either way.
        """
        if sliced is None:
            return None
        base, off = sliced
        cached = self._statics_base() if self._statics_base is not None else None
        if cached is not base:
            if self._shared_statics is not None:
                statics = self._shared_statics(base, self.pair_statics)
            else:
                statics = self.pair_statics(base)
            self.adopt_statics(base, statics)
        eps_ij, rmin_ij, qq = self._statics
        stop = off + len(pairs)
        return eps_ij[off:stop], rmin_ij[off:stop], qq[off:stop]

    def pair_statics(
        self, base: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair (eps_ij, rmin_ij, qq) for every row of ``base``."""
        bi = base[:, 0]
        bj = base[:, 1]
        return (
            np.sqrt(self.eps.take(bi) * self.eps.take(bj)),
            self.rmin_half.take(bi) + self.rmin_half.take(bj),
            COULOMB_CONSTANT * self.charges.take(bi) * self.charges.take(bj),
        )

    def adopt_statics(
        self, base: np.ndarray, statics: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Seed the base-identity cache: ``statics`` are :meth:`pair_statics`
        of ``base``, row for row, obtained without recomputing them.

        The spatial engine selects each step's rows from a list it built
        steps ago; the parameters are elementwise per row, so gathering the
        list's statics by the selected rows yields the bits
        ``pair_statics(base)`` would.
        """
        self._statics = statics
        self._statics_base = weakref.ref(base)

    # ------------------------------------------------------------------
    def pair_terms(
        self, positions: np.ndarray, pairs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair energies and forces for the pairs within the true cutoff.

        Returns ``(i, j, e_lj_pair, e_el_pair, fvec)`` where every array is
        restricted to the pairs inside ``scheme.r_cut`` and ``fvec`` is the
        force on atom ``i`` (atom ``j`` receives ``-fvec``).  Every value is
        a pure elementwise function of its own pair, so callers holding any
        sub- or superset of a pair list obtain bitwise-identical rows — the
        property the spatial-decomposition engine relies on to reproduce
        the replicated-data forces exactly, and the one that lets the rows
        be evaluated :data:`PAIR_TILE_ROWS` at a time: the whole chain runs
        per tile, the accepted rows are assembled in list order, and every
        reduction downstream sees the arrays an untiled evaluation returns.
        """
        sliced = self._row_slice(pairs)
        hit = None
        if self._prefilter is not None and sliced is not None:
            base, off = sliced
            hit = self._prefilter(positions, base)
            if hit is not None:
                ref_d, bound = hit
                hit = ref_d[off : off + len(pairs)], bound
        statics = self._statics_rows(pairs, sliced)

        tiles = row_tiles(len(pairs))
        if len(tiles) == 1:
            out = self._tile_terms(positions, pairs, tiles[0], hit, statics)
            self.last_pair_count = len(out[0])
            return out
        # accepted rows land in outputs allocated once; the trimmed prefix
        # is returned
        n = len(pairs)
        outs = (
            np.empty(n, dtype=pairs.dtype),
            np.empty(n, dtype=pairs.dtype),
            np.empty(n, dtype=np.float64),
            np.empty(n, dtype=np.float64),
            np.empty((n, 3), dtype=np.float64),
        )
        filled = 0
        for tile in tiles:
            part = self._tile_terms(positions, pairs, tile, hit, statics)
            stop = filled + len(part[0])
            for out, rows in zip(outs, part):
                out[filled:stop] = rows
            filled = stop
        self.last_pair_count = filled
        return tuple(out[:filled] for out in outs)

    def _tile_terms(
        self,
        positions: np.ndarray,
        pairs: np.ndarray,
        tile: slice,
        hit: tuple[np.ndarray, float] | None,
        statics: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`pair_terms` of the rows ``pairs[tile]``.

        ``hit`` (the prefilter's ``(ref_d, bound)``) and ``statics`` are
        aligned with ``pairs`` and sliced by the same tile.
        """
        i = pairs[tile, 0]
        j = pairs[tile, 1]
        pre = None
        if hit is not None:
            # rows beyond the certified bound cannot pass the exact test
            # below; dropping them up front skips their share of the
            # minimum-image chain
            ref_d, bound = hit
            pre = np.flatnonzero(ref_d[tile] <= bound)
            if len(pre) == len(i):
                pre = None
            else:
                i, j = i.take(pre), j.take(pre)
        sel, dr, r2 = accept_within(positions, self.box, i, j, self.scheme.r_cut**2)
        i, j, dr, r2 = i.take(sel), j.take(sel), dr.take(sel, axis=0), r2.take(sel)
        if len(i) == 0:
            empty = np.empty(0, dtype=np.float64)
            return i, j, empty, empty, np.empty((0, 3), dtype=np.float64)

        if statics is not None:
            rows = sel if pre is None else pre.take(sel)
            eps_ij, rmin_ij, qq = (s[tile].take(rows) for s in statics)
        else:
            eps_ij = np.sqrt(self.eps[i] * self.eps[j])
            rmin_ij = self.rmin_half[i] + self.rmin_half[j]
            qq = COULOMB_CONSTANT * self.charges[i] * self.charges[j]

        e_lj_pair, e_el_pair, fvec = pair_physics_numpy(
            r2, dr, eps_ij, rmin_ij, qq, self.scheme, self.elec_mode, self.ewald_alpha
        )
        return i, j, e_lj_pair, e_el_pair, fvec

    # ------------------------------------------------------------------
    def compute(
        self, positions: np.ndarray, pairs: np.ndarray
    ) -> tuple[PairEnergies, np.ndarray]:
        """Energy and forces for the pairs within the true cutoff.

        ``pairs`` may include the neighbour-list skin; pairs beyond
        ``scheme.r_cut`` are filtered in :meth:`pair_terms`.
        """
        FORCE_EVALUATIONS.increment()
        n = len(positions)
        forces = np.zeros((n, 3), dtype=np.float64)
        if len(pairs) == 0:
            self.last_pair_count = 0
            return PairEnergies(0.0, 0.0), forces
        i, j, e_lj_pair, e_el_pair, fvec = self.pair_terms(positions, pairs)
        if len(i) == 0:
            return PairEnergies(0.0, 0.0), forces
        _scatter_forces(forces, i, j, fvec)
        return PairEnergies(float(np.sum(e_lj_pair)), float(np.sum(e_el_pair))), forces
