"""NeRF internal-coordinate placement."""

import math

import numpy as np
import pytest

from repro.workloads import ChainBuilder, place_atom
from repro.workloads.builder import _cross


def _angle(p, q, r):
    u, v = p - q, r - q
    return math.degrees(
        math.acos(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    )


def _torsion(a, b, c, d):
    b1, b2, b3 = b - a, c - b, d - c
    c1, c2 = np.cross(b1, b2), np.cross(b2, b3)
    y = np.dot(np.cross(c1, c2), b2 / np.linalg.norm(b2))
    return math.degrees(math.atan2(y, np.dot(c1, c2)))


class TestPlaceAtom:
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([1.5, 0.0, 0.0])
    C = np.array([2.1, 1.3, 0.0])

    @pytest.mark.parametrize("bond", [0.9, 1.5, 2.2])
    def test_bond_length(self, bond):
        d = place_atom(self.A, self.B, self.C, bond, math.radians(109.5), 0.4)
        assert np.linalg.norm(d - self.C) == pytest.approx(bond)

    @pytest.mark.parametrize("angle_deg", [60.0, 109.5, 150.0])
    def test_bond_angle(self, angle_deg):
        d = place_atom(self.A, self.B, self.C, 1.5, math.radians(angle_deg), 1.0)
        assert _angle(self.B, self.C, d) == pytest.approx(angle_deg, abs=1e-9)

    @pytest.mark.parametrize("torsion_deg", [-120.0, -57.0, 0.0, 60.0, 180.0])
    def test_torsion(self, torsion_deg):
        d = place_atom(self.A, self.B, self.C, 1.5, math.radians(100), math.radians(torsion_deg))
        measured = _torsion(self.A, self.B, self.C, d)
        diff = (measured - torsion_deg + 180) % 360 - 180
        assert diff == pytest.approx(0.0, abs=1e-9)

    def test_collinear_reference_rejected(self):
        with pytest.raises(ValueError):
            place_atom(self.A, self.B, np.array([3.0, 0.0, 0.0]), 1.0, 1.0, 0.0)

    def test_bad_bond_rejected(self):
        with pytest.raises(ValueError):
            place_atom(self.A, self.B, self.C, 0.0, 1.0, 0.0)


def test_cross_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 1e3, (2000, 1))
    b = rng.normal(size=(2000, 3))
    for x, y in zip(a, b):
        assert np.array_equal(_cross(x, y).view(np.int64), np.cross(x, y).view(np.int64))


class TestChainBuilder:
    def test_add_and_lookup(self):
        cb = ChainBuilder()
        i = cb.add_xyz((1.0, 2.0, 3.0))
        assert i == 0
        assert np.allclose(cb.position(0), [1, 2, 3])
        assert len(cb) == 1

    def test_internal_placement(self):
        cb = ChainBuilder()
        a = cb.add_xyz((0, 0, 0))
        b = cb.add_xyz((1.5, 0, 0))
        c = cb.add_xyz((2.1, 1.3, 0))
        d = cb.add_internal(a, b, c, 1.2, math.radians(110), math.radians(60))
        coords = cb.coords()
        assert coords.shape == (4, 3)
        assert np.linalg.norm(coords[d] - coords[c]) == pytest.approx(1.2)

    def test_coords_returns_copy(self):
        cb = ChainBuilder()
        cb.add_xyz((0, 0, 0))
        c1 = cb.coords()
        c1[0, 0] = 99.0
        assert cb.position(0)[0] == 0.0
