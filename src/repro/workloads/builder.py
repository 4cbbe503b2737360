"""Internal-coordinate structure building (the NeRF algorithm).

Generated coordinates are placed from bond lengths, bond angles and
torsions, so every bonded term of the synthetic molecules starts exactly at
its force-field equilibrium — no minimization is needed before dynamics.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["place_atom", "ChainBuilder"]


def place_atom(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    bond: float,
    angle: float,
    torsion: float,
) -> np.ndarray:
    """Position atom D from reference atoms A, B, C and internal coordinates.

    ``bond`` is |C-D|, ``angle`` the B-C-D angle and ``torsion`` the
    A-B-C-D dihedral, both in radians (Natural Extension Reference Frame).
    """
    if bond <= 0:
        raise ValueError("bond length must be positive")
    bc = c - b
    bc = bc / np.linalg.norm(bc)
    ab = b - a
    n = _cross(ab, bc)
    n_norm = np.linalg.norm(n)
    if n_norm < 1e-10:
        raise ValueError("reference atoms A, B, C are collinear")
    n = n / n_norm
    m = _cross(n, bc)

    d_local = np.array(
        [
            -bond * math.cos(angle),
            bond * math.sin(angle) * math.cos(torsion),
            bond * math.sin(angle) * math.sin(torsion),
        ]
    )
    return c + d_local[0] * bc + d_local[1] * m + d_local[2] * n


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors by its own component expressions
    (bit-identical, as :func:`repro.md.bonded._cross3` relies on), without
    its general-shape machinery, which dominates at one vector per call."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


class ChainBuilder:
    """Accumulates atoms placed by internal coordinates.

    Keeps a growing coordinate array addressed by the integer IDs it
    returns, so callers can use earlier atoms as NeRF references.
    """

    def __init__(self) -> None:
        self._coords: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._coords)

    def add_xyz(self, xyz: np.ndarray | tuple[float, float, float]) -> int:
        """Add an atom at explicit coordinates; returns its ID."""
        self._coords.append(np.asarray(xyz, dtype=np.float64).copy())
        return len(self._coords) - 1

    def add_internal(
        self, ref_a: int, ref_b: int, ref_c: int, bond: float, angle: float, torsion: float
    ) -> int:
        """Add an atom by internal coordinates relative to three placed atoms."""
        d = place_atom(
            self._coords[ref_a],
            self._coords[ref_b],
            self._coords[ref_c],
            bond,
            angle,
            torsion,
        )
        self._coords.append(d)
        return len(self._coords) - 1

    def coords(self) -> np.ndarray:
        """All coordinates as an (n, 3) float64 array (a copy)."""
        return np.array(self._coords, dtype=np.float64)

    def position(self, atom_id: int) -> np.ndarray:
        return self._coords[atom_id].copy()
