"""Vectorized bonded-energy kernels: bonds, angles, dihedrals, impropers.

Every kernel returns ``(energy, forces)`` where ``forces`` has shape
``(n_atoms, 3)`` and contains only the contribution of that term type;
callers accumulate.  Displacements use minimum-image so the kernels keep
working on wrapped coordinates.

CHARMM functional forms (no factor 1/2 on the harmonic terms):

* bond       ``E = kb (r - r0)^2``
* angle      ``E = ktheta (theta - theta0)^2``
* dihedral   ``E = kchi (1 + cos(n chi - delta))``
* improper   ``E = kpsi (psi - psi0)^2``  (psi measured as a torsion)
"""

from __future__ import annotations

import numpy as np

from .box import PeriodicBox
from .forcefield import ForceField
from .topology import Topology

__all__ = [
    "BondedTables",
    "bond_row_terms",
    "angle_row_terms",
    "dihedral_row_terms",
    "improper_row_terms",
    "bond_energy_forces",
    "angle_energy_forces",
    "dihedral_energy_forces",
    "improper_energy_forces",
    "bonded_energy_forces",
    "scatter_rows",
]

_SIN_FLOOR = 1e-8  # guards 1/sin(theta) at collinear geometries


class BondedTables:
    """Pre-extracted parameter arrays for all bonded terms of a topology.

    Building these once at system setup keeps the per-step kernels free of
    Python-level dictionary lookups.
    """

    def __init__(self, topology: Topology, forcefield: ForceField) -> None:
        types = topology.type_names

        self.bond_idx = topology.bond_index_array()
        kb, r0 = [], []
        for b in topology.bonds:
            p = forcefield.bond_params(types[b.i], types[b.j])
            kb.append(p.kb)
            r0.append(p.r0)
        self.bond_kb = np.array(kb, dtype=np.float64)
        self.bond_r0 = np.array(r0, dtype=np.float64)

        self.angle_idx = topology.angle_index_array()
        kt, t0 = [], []
        for a in topology.angles:
            p = forcefield.angle_params(types[a.i], types[a.j], types[a.k])
            kt.append(p.ktheta)
            t0.append(p.theta0)
        self.angle_k = np.array(kt, dtype=np.float64)
        self.angle_t0 = np.array(t0, dtype=np.float64)

        self.dihedral_idx = topology.dihedral_index_array()
        kc, nn, dd = [], [], []
        for d in topology.dihedrals:
            p = forcefield.dihedral_params(types[d.i], types[d.j], types[d.k], types[d.l])
            kc.append(p.kchi)
            nn.append(p.n)
            dd.append(p.delta)
        self.dihedral_k = np.array(kc, dtype=np.float64)
        self.dihedral_n = np.array(nn, dtype=np.float64)
        self.dihedral_delta = np.array(dd, dtype=np.float64)

        self.improper_idx = topology.improper_index_array()
        kp, p0 = [], []
        for im in topology.impropers:
            p = forcefield.improper_params(types[im.i], types[im.j], types[im.k], types[im.l])
            kp.append(p.kpsi)
            p0.append(p.psi0)
        self.improper_k = np.array(kp, dtype=np.float64)
        self.improper_psi0 = np.array(p0, dtype=np.float64)

    @property
    def n_terms(self) -> int:
        """Total number of bonded interaction terms (for the cost model)."""
        return (
            len(self.bond_idx)
            + len(self.angle_idx)
            + len(self.dihedral_idx)
            + len(self.improper_idx)
        )


#: one (column, force-rows) scatter call per entry, in the order the kernels
#: accumulate them (:func:`scatter_rows`) — sequential accumulation order
#: is part of the bitwise contract the spatial replay engine depends on
ScatterCalls = tuple[tuple[int, np.ndarray], ...]


def scatter_rows(calls, n_bins: int) -> np.ndarray:
    """``for bins, rows in calls: np.add.at(out, bins, rows)`` on a zero
    ``(n_bins, 3)`` array, as one ``np.bincount`` per axis.

    ``bincount`` adds its weights in array order from zero, so the calls
    concatenated in order give every bin the same sequence of additions
    as the ``np.add.at`` chain, and so the same bits.
    """
    bins = np.concatenate([b for b, _ in calls])
    rows = np.concatenate([r for _, r in calls])
    out = np.empty((n_bins, 3), dtype=np.float64)
    for axis in range(3):
        out[:, axis] = np.bincount(bins, weights=rows[:, axis], minlength=n_bins)
    return out


def bond_row_terms(
    positions: np.ndarray,
    box: PeriodicBox,
    idx: np.ndarray,
    kb: np.ndarray,
    r0: np.ndarray,
) -> tuple[np.ndarray, ScatterCalls]:
    """Per-row bond energies and the ordered force-scatter calls.

    Every returned value is an elementwise function of its own row, so any
    row subset yields bitwise-identical rows — the property the spatial
    engine uses to replay each replicated rank's accumulation exactly.
    """
    dr = box.min_image(positions[idx[:, 0]] - positions[idx[:, 1]])
    r = np.sqrt(np.einsum("ij,ij->i", dr, dr))
    delta = r - r0
    e_rows = kb * delta * delta
    # F_i = -dE/dr * rhat, dE/dr = 2 kb (r - r0)
    coeff = (-2.0 * kb * delta / r)[:, None]
    fij = coeff * dr
    return e_rows, ((0, fij), (1, -fij))


def bond_energy_forces(
    positions: np.ndarray, box: PeriodicBox, tables: BondedTables
) -> tuple[float, np.ndarray]:
    """Harmonic bond energy and forces."""
    idx = tables.bond_idx
    if len(idx) == 0:
        return 0.0, np.zeros_like(positions)
    e_rows, scatter = bond_row_terms(positions, box, idx, tables.bond_kb, tables.bond_r0)
    forces = scatter_rows([(idx[:, col], rows) for col, rows in scatter], len(positions))
    return float(np.sum(e_rows)), forces


def angle_row_terms(
    positions: np.ndarray,
    box: PeriodicBox,
    idx: np.ndarray,
    k: np.ndarray,
    t0: np.ndarray,
) -> tuple[np.ndarray, ScatterCalls]:
    """Per-row angle energies and the ordered force-scatter calls."""
    u = box.min_image(positions[idx[:, 0]] - positions[idx[:, 1]])
    v = box.min_image(positions[idx[:, 2]] - positions[idx[:, 1]])
    nu = np.sqrt(np.einsum("ij,ij->i", u, u))
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    uhat = u / nu[:, None]
    vhat = v / nv[:, None]
    cos_t = np.clip(np.einsum("ij,ij->i", uhat, vhat), -1.0, 1.0)
    theta = np.arccos(cos_t)
    sin_t = np.maximum(np.sqrt(1.0 - cos_t * cos_t), _SIN_FLOOR)

    delta = theta - t0
    e_rows = k * delta * delta

    de_dtheta = 2.0 * k * delta
    dth_di = (cos_t[:, None] * uhat - vhat) / (nu * sin_t)[:, None]
    dth_dk = (cos_t[:, None] * vhat - uhat) / (nv * sin_t)[:, None]
    fi = -de_dtheta[:, None] * dth_di
    fk = -de_dtheta[:, None] * dth_dk
    return e_rows, ((0, fi), (2, fk), (1, -(fi + fk)))


def angle_energy_forces(
    positions: np.ndarray, box: PeriodicBox, tables: BondedTables
) -> tuple[float, np.ndarray]:
    """Harmonic angle energy and forces."""
    idx = tables.angle_idx
    if len(idx) == 0:
        return 0.0, np.zeros_like(positions)
    e_rows, scatter = angle_row_terms(positions, box, idx, tables.angle_k, tables.angle_t0)
    forces = scatter_rows([(idx[:, col], rows) for col, rows in scatter], len(positions))
    return float(np.sum(e_rows)), forces


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product for ``(n, 3)`` arrays.

    Same component expressions (multiplies and subtractions) as
    ``np.cross``, so results are bit-identical — this just skips its
    general-shape broadcasting machinery, which dominates at the small
    row counts of bonded tables.
    """
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _torsion_geometry(
    positions: np.ndarray, box: PeriodicBox, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Torsion angles and the per-atom gradients d(phi)/dr.

    Returns ``(phi, gi, gj, gk, gl)`` with ``sum(g) = 0`` row-wise
    (Bekker et al. formulation).
    """
    b1 = box.min_image(positions[idx[:, 1]] - positions[idx[:, 0]])
    b2 = box.min_image(positions[idx[:, 2]] - positions[idx[:, 1]])
    b3 = box.min_image(positions[idx[:, 3]] - positions[idx[:, 2]])

    c1 = _cross3(b1, b2)
    c2 = _cross3(b2, b3)
    nb2 = np.sqrt(np.einsum("ij,ij->i", b2, b2))

    x = np.einsum("ij,ij->i", c1, c2)
    y = np.einsum("ij,ij->i", _cross3(c1, c2), b2) / nb2
    phi = np.arctan2(y, x)

    c1_sq = np.maximum(np.einsum("ij,ij->i", c1, c1), _SIN_FLOOR)
    c2_sq = np.maximum(np.einsum("ij,ij->i", c2, c2), _SIN_FLOOR)

    gi = (-nb2 / c1_sq)[:, None] * c1
    gl = (nb2 / c2_sq)[:, None] * c2
    # projections of the outer bonds onto the axis (note the sign: the
    # classic derivation orients b1 from j to i)
    t = (-np.einsum("ij,ij->i", b1, b2) / (nb2 * nb2))[:, None]
    s = (-np.einsum("ij,ij->i", b3, b2) / (nb2 * nb2))[:, None]
    gj = (t - 1.0) * gi - s * gl
    gk = (s - 1.0) * gl - t * gi
    return phi, gi, gj, gk, gl


def dihedral_row_terms(
    positions: np.ndarray,
    box: PeriodicBox,
    idx: np.ndarray,
    k: np.ndarray,
    n: np.ndarray,
    delta_: np.ndarray,
) -> tuple[np.ndarray, ScatterCalls]:
    """Per-row dihedral energies and the ordered force-scatter calls."""
    phi, gi, gj, gk, gl = _torsion_geometry(positions, box, idx)
    arg = n * phi - delta_
    e_rows = k * (1.0 + np.cos(arg))
    de_dphi = -k * n * np.sin(arg)
    return e_rows, tuple(
        (col, -de_dphi[:, None] * grad)
        for col, grad in zip(range(4), (gi, gj, gk, gl))
    )


def dihedral_energy_forces(
    positions: np.ndarray, box: PeriodicBox, tables: BondedTables
) -> tuple[float, np.ndarray]:
    """Cosine proper-dihedral energy and forces."""
    idx = tables.dihedral_idx
    if len(idx) == 0:
        return 0.0, np.zeros_like(positions)
    e_rows, scatter = dihedral_row_terms(
        positions, box, idx, tables.dihedral_k, tables.dihedral_n, tables.dihedral_delta
    )
    forces = scatter_rows([(idx[:, col], rows) for col, rows in scatter], len(positions))
    return float(np.sum(e_rows)), forces


def improper_row_terms(
    positions: np.ndarray,
    box: PeriodicBox,
    idx: np.ndarray,
    k: np.ndarray,
    psi0: np.ndarray,
) -> tuple[np.ndarray, ScatterCalls]:
    """Per-row improper energies and the ordered force-scatter calls."""
    psi, gi, gj, gk, gl = _torsion_geometry(positions, box, idx)
    # wrap psi - psi0 into (-pi, pi] so the harmonic well is periodic
    delta = psi - psi0
    delta = delta - 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    e_rows = k * delta * delta
    de_dpsi = 2.0 * k * delta
    return e_rows, tuple(
        (col, -de_dpsi[:, None] * grad)
        for col, grad in zip(range(4), (gi, gj, gk, gl))
    )


def improper_energy_forces(
    positions: np.ndarray, box: PeriodicBox, tables: BondedTables
) -> tuple[float, np.ndarray]:
    """Harmonic improper-torsion energy and forces."""
    idx = tables.improper_idx
    if len(idx) == 0:
        return 0.0, np.zeros_like(positions)
    e_rows, scatter = improper_row_terms(
        positions, box, idx, tables.improper_k, tables.improper_psi0
    )
    forces = scatter_rows([(idx[:, col], rows) for col, rows in scatter], len(positions))
    return float(np.sum(e_rows)), forces


def bonded_energy_forces(
    positions: np.ndarray, box: PeriodicBox, tables: BondedTables
) -> tuple[dict[str, float], np.ndarray]:
    """All bonded terms at once.

    Returns
    -------
    (energies, forces):
        ``energies`` maps term name (``"bond"``, ``"angle"``, ``"dihedral"``,
        ``"improper"``) to kcal/mol; ``forces`` is the summed contribution.
    """
    e_bond, f = bond_energy_forces(positions, box, tables)
    e_angle, fa = angle_energy_forces(positions, box, tables)
    e_dih, fd = dihedral_energy_forces(positions, box, tables)
    e_imp, fi = improper_energy_forces(positions, box, tables)
    f += fa
    f += fd
    f += fi
    return (
        {"bond": e_bond, "angle": e_angle, "dihedral": e_dih, "improper": e_imp},
        f,
    )
