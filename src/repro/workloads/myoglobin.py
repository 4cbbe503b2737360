"""The paper's benchmark system, rebuilt synthetically.

Section 2.2 of the paper: *myoglobin, a 153-residue single-domain protein
of structural class alpha, a carbon monoxide molecule, 337 water molecules
and a sulfate ion for a total of 3552 atoms*, with a PME charge mesh of
80 x 36 x 48.

The substitution (recorded in DESIGN.md): eight alpha-helical segments
(myoglobin's A-H helices) of 19-20 residues arranged as a 2 x 4 bundle,
2534 protein atoms, CO (2), sulfate (5) and 337 waters (1011) — 3552 atoms
total, net charge zero (protein +2, sulfate -2).  Helix-connecting loops
are omitted; the bonded-term count changes by <0.5% and the non-bonded
workload (what the paper measures) is unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..md.box import PeriodicBox
from ..md.forcefield import ForceField, default_forcefield
from ..md.neighborlist import (
    brute_force_nearest,
    build_rows,
    exclusion_codes,
    nearest_distance,
)
from ..md.topology import Topology
from .protein import SegmentSpec, build_helical_segment, residue_size
from .solvent import (
    co_coords,
    co_topology,
    lattice_points,
    sulfate_coords,
    sulfate_topology,
    water_coords,
    water_topology,
)

__all__ = [
    "MyoglobinSystem",
    "WaterPlacementError",
    "build_myoglobin",
    "PME_GRID",
    "TARGET_ATOMS",
]

#: The paper's FFT charge mesh.
PME_GRID: tuple[int, int, int] = (80, 36, 48)
#: The paper's total atom count.
TARGET_ATOMS = 3552
#: Mesh spacing used to size the box from the grid (A per grid point).
GRID_SPACING = 1.2

N_RESIDUES = 153
N_WATERS = 337
N_SEGMENTS = 8
N_LONG_SIDECHAINS = 23  # residues with k=3; the rest use k=2
N_BASIC_RESIDUES = 8  # +0.25 each -> protein charge +2
#: Deterministic orientations tried per water, and the contact each must
#: keep from every placed atom.
WATER_ORIENTATIONS = 16
WATER_CONTACT = 1.5


class WaterPlacementError(RuntimeError):
    """Every orientation of a water came too close to a placed atom.

    ``water`` is the water's index, ``best_distance`` its largest
    closest-contact distance over all orientations tried.
    """

    def __init__(self, water: int, best_distance: float) -> None:
        self.water = water
        self.best_distance = best_distance
        super().__init__(water, best_distance)

    def __str__(self) -> str:
        return (
            f"water {self.water}: all {WATER_ORIENTATIONS} orientations come within "
            f"{self.best_distance:.3f} A of a placed atom (need >= {WATER_CONTACT} A)"
        )


@dataclass(frozen=True)
class MyoglobinSystem:
    """The assembled benchmark workload."""

    topology: Topology
    positions: np.ndarray
    box: PeriodicBox
    forcefield: ForceField
    pme_grid: tuple[int, int, int]


def _sidechain_plan() -> list[int]:
    """Per-residue CH2 counts: 23 long (k=3) spread over 153 residues."""
    ks = [2] * N_RESIDUES
    for i in range(N_LONG_SIDECHAINS):
        ks[(i * N_RESIDUES) // N_LONG_SIDECHAINS] = 3
    return ks


def _rotation_to(vec: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rodrigues rotation taking direction ``vec`` onto ``target``."""
    a = vec / np.linalg.norm(vec)
    b = target / np.linalg.norm(target)
    v = np.cross(a, b)
    c = float(np.dot(a, b))
    if np.linalg.norm(v) < 1e-12:
        return np.eye(3) if c > 0 else -np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _axis_spin(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about ``axis``."""
    a = axis / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    ax = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return c * np.eye(3) + s * ax + (1 - c) * np.outer(a, a)


def build_myoglobin(
    forcefield: ForceField | None = None,
    n_waters: int = N_WATERS,
    grid_spacing: float = GRID_SPACING,
) -> MyoglobinSystem:
    """Assemble the 3552-atom benchmark system.

    Deterministic: the same arguments always produce the same coordinates.
    """
    ff = forcefield or default_forcefield()
    box = PeriodicBox(*(g * grid_spacing for g in PME_GRID))
    center = 0.5 * box.lengths

    # ---- protein: 8 helical segments ---------------------------------
    ks = _sidechain_plan()
    seg_lengths = [19] * (N_SEGMENTS - 1) + [20]
    basic_global = {(i * N_RESIDUES) // N_BASIC_RESIDUES + 3 for i in range(N_BASIC_RESIDUES)}

    # Slots on a 2x2x2 grid: two x-layers (staggered so z/y neighbours in
    # different layers can never touch), y and z offsets of +-9.5 A — wide
    # enough for the ~9.5 A sidechain reach measured on a built helix.
    slots = [
        np.array([sx, sy, sz])
        for sx in (-17.0, 17.0)
        for sy in (-9.5, 9.5)
        for sz in (-9.5, 9.5)
    ]

    topo_parts: list[Topology] = []
    coords_parts: list[np.ndarray] = []
    res_cursor = 0
    for s, seg_len in enumerate(seg_lengths):
        seg_ks = tuple(ks[res_cursor : res_cursor + seg_len])
        seg_basic = frozenset(
            r - res_cursor for r in basic_global if res_cursor <= r < res_cursor + seg_len
        )
        spec = SegmentSpec(
            sidechain_ks=seg_ks,
            basic_residues=seg_basic,
            nh3_terminus=(s == 0),
            segment_name=f"HLX{s}",
        )
        seg_topo, seg_xyz = build_helical_segment(spec, ff)

        # orient the helix along +-x and park it in its bundle slot
        ca_idx = [i for i, a in enumerate(seg_topo.atoms) if a.name == "CA"]
        axis = seg_xyz[ca_idx[-1]] - seg_xyz[ca_idx[0]]
        direction = np.array([1.0, 0.0, 0.0]) if s % 2 == 0 else np.array([-1.0, 0.0, 0.0])
        rot = _rotation_to(axis, direction)
        spun = _axis_spin(direction, (2.0 * math.pi / N_SEGMENTS) * s) @ rot
        seg_xyz = (seg_xyz - seg_xyz[ca_idx].mean(axis=0)) @ spun.T
        seg_xyz = seg_xyz + center + slots[s]

        coords_parts.append(seg_xyz)
        topo_parts.append(seg_topo)
        res_cursor += seg_len
    protein_xyz = np.vstack(coords_parts)

    expected_protein = (
        sum(residue_size(k) for k in ks) + 2 * N_SEGMENTS + 1
    )  # + extra H / OT2 per segment + third H on segment 0
    if len(protein_xyz) != expected_protein:
        raise AssertionError(
            f"protein atom count {len(protein_xyz)} != expected {expected_protein}"
        )

    # ---- hetero groups: CO in the closest free pocket, sulfate next ---
    candidates = lattice_points(box.lengths, spacing=3.1, margin=1.8)
    d_prot = nearest_distance(candidates, protein_xyz, box)
    pocket_order = np.argsort(
        np.where(d_prot >= 3.2, d_prot, np.inf), kind="stable"
    )
    co_site = candidates[pocket_order[0]]
    co_xyz = co_coords(ff, co_site)
    topo_parts.append(co_topology())

    far_enough = np.linalg.norm(
        box.min_image(candidates - co_site[None, :]), axis=1
    ) >= 8.0
    sulfate_idx = next(
        int(i) for i in pocket_order if d_prot[i] >= 3.6 and far_enough[i]
    )
    sulfate_xyz = sulfate_coords(ff, candidates[sulfate_idx])
    topo_parts.append(sulfate_topology())
    placed = np.vstack([protein_xyz, co_xyz, sulfate_xyz])

    # ---- waters: solvation shell on a lattice --------------------------
    # distance of every candidate to the nearest placed atom (min-image)
    d_min = nearest_distance(candidates, placed, box)
    open_sites = candidates[d_min >= 2.6]
    d_open = d_min[d_min >= 2.6]
    if len(open_sites) < n_waters:
        raise RuntimeError(f"only {len(open_sites)} water sites for {n_waters} waters")
    order = np.argsort(d_open, kind="stable")  # closest to the solute first
    chosen = open_sites[order[:n_waters]]

    water_parts = []
    occupied = placed
    for w in range(n_waters):
        topo_parts.append(water_topology(residue_index=w))
        # deterministic orientation retries: keep every intermolecular
        # contact above 1.5 A (two hydrogens of adjacent lattice waters can
        # otherwise end up nose-to-nose)
        best = -np.inf
        for attempt in range(WATER_ORIENTATIONS):
            xyz = water_coords(ff, chosen[w], orientation_seed=w + 1000 * attempt)
            contact = float(brute_force_nearest(xyz, occupied, box).min())
            best = max(best, contact)
            if contact >= WATER_CONTACT:
                break
        else:
            raise WaterPlacementError(w, best)
        water_parts.append(xyz)
        occupied = np.vstack([occupied, xyz])
    topo = Topology.concat(topo_parts)
    positions = np.vstack([placed] + water_parts)
    # 1.4 A catches catastrophic overlaps while admitting the tight
    # O...H-N helix hydrogen bonds the ideal-torsion build produces (~1.46 A)
    _assert_no_clashes(topo, positions, box, min_dist=1.4)

    if len(positions) != TARGET_ATOMS or topo.n_atoms != TARGET_ATOMS:
        if n_waters == N_WATERS:
            raise AssertionError(
                f"assembled {len(positions)} atoms, expected {TARGET_ATOMS}"
            )

    total_q = topo.total_charge()
    if abs(total_q) > 1e-9:
        raise AssertionError(f"system not neutral: total charge {total_q}")

    return MyoglobinSystem(
        topology=topo,
        positions=positions,
        box=box,
        forcefield=ff,
        pme_grid=PME_GRID,
    )


def _assert_no_clashes(
    topo: Topology, positions: np.ndarray, box: PeriodicBox, min_dist: float
) -> None:
    """Fail loudly if any non-bonded pair sits closer than ``min_dist``.

    The pair list's builder finds them, exclusions removed; its rows are
    ascending, so the first names the lowest offending ``(i, j)``.
    """
    n = len(positions)
    partners, starts, _ = build_rows(
        positions, box, min_dist, exclusion_codes(topo.exclusion_pairs(), n)
    )
    if len(partners):
        i = int(np.searchsorted(starts, 0, side="right")) - 1
        j = int(partners[0])
        d = float(np.linalg.norm(box.min_image(positions[i] - positions[j])))
        raise AssertionError(
            f"steric clash: atoms {i} and {j} at {d:.2f} A (< {min_dist} A)"
        )
