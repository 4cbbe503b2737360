"""Named campaign workloads: buildable in any process by name.

Worker processes receive only a workload *name* and rebuild the system
locally through this registry, so design points cross the process
boundary as a few hundred bytes instead of a pickled 3552-atom system.
Builders must be deterministic — the engine hashes the built arrays into
the cache key, and a nondeterministic builder would never hit.

The built-ins below are the only workloads: workers import this module
themselves, so every name resolves in any process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from ..md.cutoff import CutoffScheme
from ..md.forcefield import default_forcefield
from ..md.system import MDSystem
from ..workloads import (
    build_peptide_in_water,
    build_water_box,
    myoglobin_system,
    myoglobin_workload,
)

__all__ = ["WORKLOADS", "build_workload", "workload_names"]

Builder = Callable[[], tuple[MDSystem, np.ndarray]]


def _myoglobin_pme() -> tuple[MDSystem, np.ndarray]:
    """The paper's 3552-atom benchmark with PME (the measured setup)."""
    return myoglobin_system("pme"), myoglobin_workload().positions


def _myoglobin_shift() -> tuple[MDSystem, np.ndarray]:
    """The classic-only variant (Figure 2, left)."""
    return myoglobin_system("shift"), myoglobin_workload().positions


def _peptide_tiny() -> tuple[MDSystem, np.ndarray]:
    """The small solvated peptide of the CI sanitize gate (fast smoke runs)."""
    ff = default_forcefield()
    topo, pos, box = build_peptide_in_water(n_residues=2, n_waters=12, forcefield=ff)
    system = MDSystem(
        topo, ff, box, CutoffScheme(r_cut=8.0, skin=1.5),
        electrostatics="pme", pme_grid=(16, 16, 16),
    )
    return system, pos


def _water_box() -> tuple[MDSystem, np.ndarray]:
    """A pure 1536-atom water box (512 waters, 24.8 A cubic cell).

    Homogeneous density makes it the natural workload for the spatial
    decomposition strategy: every cell of the rank grid carries the same
    load, so the neighbour-only communication shape shows undiluted.
    """
    ff = default_forcefield()
    topo, pos, box = build_water_box(n_side=8, spacing=3.1, forcefield=ff)
    system = MDSystem(
        topo, ff, box, CutoffScheme(r_cut=8.0, skin=1.5), electrostatics="shift"
    )
    return system, pos


WORKLOADS: dict[str, Builder] = {
    "myoglobin-pme": _myoglobin_pme,
    "myoglobin-shift": _myoglobin_shift,
    "peptide-tiny": _peptide_tiny,
    "water-box": _water_box,
}


def workload_names() -> list[str]:
    return sorted(WORKLOADS)


@lru_cache(maxsize=4)
def build_workload(name: str) -> tuple[MDSystem, np.ndarray]:
    """Build (once per process) the named workload."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from None
    return builder()
