"""Shared fixtures: small systems built once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.md import CutoffScheme, MDSystem, PeriodicBox, default_forcefield
from repro.workloads import build_peptide_in_water, build_water_box


@pytest.fixture(scope="session")
def forcefield():
    return default_forcefield()


@pytest.fixture(scope="session")
def water_box_small(forcefield):
    """27 waters on a lattice: (topology, positions, box)."""
    return build_water_box(n_side=3, forcefield=forcefield)


@pytest.fixture(scope="session")
def peptide_system(forcefield):
    """A solvated 3-residue peptide with PME electrostatics."""
    topo, pos, box = build_peptide_in_water(
        n_residues=3, n_waters=20, forcefield=forcefield
    )
    system = MDSystem(
        topo,
        forcefield,
        box,
        CutoffScheme(r_cut=8.0, skin=1.5),
        electrostatics="pme",
        pme_grid=(16, 16, 16),
    )
    return system, pos


@pytest.fixture(scope="session")
def peptide_system_shift(forcefield):
    """The same solvated peptide with classic shifted electrostatics."""
    topo, pos, box = build_peptide_in_water(
        n_residues=3, n_waters=20, forcefield=forcefield
    )
    system = MDSystem(topo, forcefield, box, CutoffScheme(r_cut=8.0, skin=1.5))
    return system, pos


@pytest.fixture()
def small_pair_tiles(monkeypatch):
    """Shrink the pair kernel's row tile to a small prime.

    The default tile (16,384 rows) is longer than the lists of most
    small test systems, so without this few tests would cross a tile
    seam.  At 97 rows every list and every rank's block spans many
    tiles, with seams that line up with no block or cell boundary.
    """
    monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", 97)


@pytest.fixture()
def rng():
    return np.random.default_rng(20020415)


def random_neutral_charges(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=n)
    return q - q.mean()


@pytest.fixture(scope="session")
def random_ionic_system():
    """A small random neutral charge cloud in a periodic box."""
    rng = np.random.default_rng(7)
    n = 20
    box = PeriodicBox(13.0, 11.0, 12.0)
    positions = rng.uniform(0.05, 0.95, (n, 3)) * box.lengths
    charges = rng.normal(size=n)
    charges -= charges.mean()
    return positions, charges, box
