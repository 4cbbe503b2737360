"""Bonded kernels: energies at equilibrium, forces = -grad E, invariants."""

import math

import numpy as np
import pytest

from repro.md import (
    Angle,
    Atom,
    Bond,
    BondedTables,
    Dihedral,
    Improper,
    PeriodicBox,
    Topology,
    default_forcefield,
)
from repro.md.bonded import (
    angle_energy_forces,
    bond_energy_forces,
    bonded_energy_forces,
    dihedral_energy_forces,
    improper_energy_forces,
    scatter_rows,
)

BOX = PeriodicBox(50.0, 50.0, 50.0)


def _water_tables():
    ff = default_forcefield()
    topo = Topology(
        atoms=[
            Atom("O", "OT", -0.834, 16.0),
            Atom("H1", "HT", 0.417, 1.0),
            Atom("H2", "HT", 0.417, 1.0),
        ],
        bonds=[Bond(0, 1), Bond(0, 2)],
        angles=[Angle(1, 0, 2)],
    )
    return BondedTables(topo, ff), ff


def _butane_tables():
    """A four-carbon chain exercising bonds, angles and a dihedral."""
    ff = default_forcefield()
    topo = Topology(
        atoms=[Atom(f"C{i}", "CT2", 0.0, 12.0) for i in range(4)],
        bonds=[Bond(0, 1), Bond(1, 2), Bond(2, 3)],
        angles=[Angle(0, 1, 2), Angle(1, 2, 3)],
        dihedrals=[Dihedral(0, 1, 2, 3)],
    )
    return BondedTables(topo, ff), ff


def _improper_tables():
    ff = default_forcefield()
    topo = Topology(
        atoms=[
            Atom("O", "O", -0.51, 16.0),
            Atom("CA", "CT1", 0.07, 12.0),
            Atom("N", "NH1", -0.47, 14.0),
            Atom("C", "C", 0.51, 12.0),
        ],
        impropers=[Improper(0, 1, 2, 3)],
    )
    return BondedTables(topo, ff), ff


def _fd_forces(fn, positions, tables, h=1e-6):
    """Central-difference gradient of the energy returned by fn."""
    out = np.zeros_like(positions)
    for i in range(len(positions)):
        for d in range(3):
            pp = positions.copy()
            pp[i, d] += h
            pm = positions.copy()
            pm[i, d] -= h
            ep, _ = fn(pp, BOX, tables)
            em, _ = fn(pm, BOX, tables)
            out[i, d] = -(ep - em) / (2 * h)
    return out


class TestBond:
    def test_zero_at_equilibrium(self):
        tables, ff = _water_tables()
        r0 = ff.bond_params("OT", "HT").r0
        pos = np.array([[0.0, 0, 0], [r0, 0, 0], [0, r0, 0]])
        e, f = bond_energy_forces(pos, BOX, tables)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(f, 0.0, atol=1e-9)

    def test_stretched_energy_value(self):
        tables, ff = _water_tables()
        p = ff.bond_params("OT", "HT")
        pos = np.array([[0.0, 0, 0], [p.r0 + 0.1, 0, 0], [0, p.r0, 0]])
        e, _ = bond_energy_forces(pos, BOX, tables)
        assert e == pytest.approx(p.kb * 0.01, rel=1e-9)

    def test_forces_match_gradient(self):
        tables, _ = _water_tables()
        rng = np.random.default_rng(3)
        pos = np.array([[0.0, 0, 0], [1.1, 0.1, 0], [-0.2, 0.9, 0.1]])
        pos += rng.normal(scale=0.05, size=pos.shape)
        _, f = bond_energy_forces(pos, BOX, tables)
        assert np.allclose(f, _fd_forces(bond_energy_forces, pos, tables), atol=1e-4)

    def test_newton_third_law(self):
        tables, _ = _water_tables()
        pos = np.array([[0.0, 0, 0], [1.2, 0.3, 0.1], [-0.3, 0.8, -0.2]])
        _, f = bond_energy_forces(pos, BOX, tables)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)

    def test_periodic_bond_across_boundary(self):
        tables, ff = _water_tables()
        r0 = ff.bond_params("OT", "HT").r0
        pos = np.array([[49.9, 0, 0], [49.9 + r0 - 50.0, 0, 0], [49.9, r0, 0]])
        e, _ = bond_energy_forces(pos, BOX, tables)
        assert e == pytest.approx(0.0, abs=1e-10)


class TestAngle:
    def test_zero_at_equilibrium(self):
        tables, ff = _water_tables()
        p = ff.angle_params("HT", "OT", "HT")
        r0 = ff.bond_params("OT", "HT").r0
        half = p.theta0 / 2
        pos = np.array(
            [
                [0.0, 0, 0],
                [r0 * math.sin(half), r0 * math.cos(half), 0],
                [-r0 * math.sin(half), r0 * math.cos(half), 0],
            ]
        )
        e, f = angle_energy_forces(pos, BOX, tables)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(f, 0.0, atol=1e-8)

    def test_forces_match_gradient(self):
        tables, _ = _water_tables()
        pos = np.array([[0.0, 0, 0], [1.0, 0.2, -0.1], [-0.4, 0.9, 0.3]])
        _, f = angle_energy_forces(pos, BOX, tables)
        assert np.allclose(f, _fd_forces(angle_energy_forces, pos, tables), atol=1e-4)

    def test_total_force_and_torque_free(self):
        tables, _ = _water_tables()
        pos = np.array([[0.0, 0, 0], [1.0, 0.2, -0.1], [-0.4, 0.9, 0.3]])
        _, f = angle_energy_forces(pos, BOX, tables)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)
        torque = np.cross(pos, f).sum(axis=0)
        assert np.allclose(torque, 0.0, atol=1e-9)


class TestDihedral:
    def test_forces_match_gradient(self):
        tables, _ = _butane_tables()
        pos = np.array(
            [[0.0, 0, 0], [1.5, 0.1, 0], [2.0, 1.5, 0.2], [3.4, 1.8, -0.4]]
        )
        _, f = dihedral_energy_forces(pos, BOX, tables)
        assert np.allclose(f, _fd_forces(dihedral_energy_forces, pos, tables), atol=1e-4)

    def test_energy_range(self):
        """E = k(1 + cos(3 phi)) must stay within [0, 2k]."""
        tables, ff = _butane_tables()
        k = ff.dihedral_params("X", "CT2", "CT2", "X").kchi
        rng = np.random.default_rng(5)
        for _ in range(20):
            pos = rng.normal(scale=1.5, size=(4, 3)) + np.array(
                [[0, 0, 0], [1.5, 0, 0], [3, 0, 0], [4.5, 0, 0]]
            )
            e, _ = dihedral_energy_forces(pos, BOX, tables)
            assert -1e-9 <= e <= 2 * k + 1e-9

    def test_force_free_at_anti(self):
        """phi = 180 deg is a minimum of 1 + cos(3 phi)... check forces tiny."""
        tables, _ = _butane_tables()
        pos = np.array([[0.0, 1, 0], [1.0, 0, 0], [2.5, 0, 0], [3.5, -1, 0]])
        _, f = dihedral_energy_forces(pos, BOX, tables)
        # at exactly phi=pi the torsional force vanishes
        assert np.allclose(f, 0.0, atol=1e-8)

    def test_newton_third_law(self):
        tables, _ = _butane_tables()
        pos = np.array([[0.1, 0, 0.3], [1.5, 0.1, 0], [2.0, 1.5, 0.2], [3.4, 1.8, -0.4]])
        _, f = dihedral_energy_forces(pos, BOX, tables)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)


class TestImproper:
    def test_zero_when_planar(self):
        tables, _ = _improper_tables()
        # all four atoms coplanar around the carbonyl carbon
        pos = np.array(
            [[1.2, 0.0, 0.0], [-0.8, 1.2, 0.0], [-0.8, -1.2, 0.0], [0.0, 0.0, 0.0]]
        )
        e, _ = improper_energy_forces(pos, BOX, tables)
        assert e == pytest.approx(0.0, abs=1e-9)

    def test_pyramidalization_costs_energy(self):
        tables, _ = _improper_tables()
        pos = np.array(
            [[1.2, 0.0, 0.4], [-0.8, 1.2, 0.0], [-0.8, -1.2, 0.0], [0.0, 0.0, 0.0]]
        )
        e, _ = improper_energy_forces(pos, BOX, tables)
        assert e > 0.1

    def test_forces_match_gradient(self):
        tables, _ = _improper_tables()
        pos = np.array(
            [[1.2, 0.1, 0.3], [-0.8, 1.2, -0.1], [-0.7, -1.2, 0.2], [0.05, 0.0, 0.1]]
        )
        _, f = improper_energy_forces(pos, BOX, tables)
        assert np.allclose(f, _fd_forces(improper_energy_forces, pos, tables), atol=1e-4)


class TestCombined:
    def test_bonded_energy_forces_sums_terms(self):
        tables, _ = _butane_tables()
        pos = np.array(
            [[0.0, 0, 0], [1.5, 0.1, 0], [2.0, 1.5, 0.2], [3.4, 1.8, -0.4]]
        )
        energies, forces = bonded_energy_forces(pos, BOX, tables)
        e_b, f_b = bond_energy_forces(pos, BOX, tables)
        e_a, f_a = angle_energy_forces(pos, BOX, tables)
        e_d, f_d = dihedral_energy_forces(pos, BOX, tables)
        assert energies["bond"] == pytest.approx(e_b)
        assert energies["angle"] == pytest.approx(e_a)
        assert energies["dihedral"] == pytest.approx(e_d)
        assert energies["improper"] == 0.0
        assert np.allclose(forces, f_b + f_a + f_d)

    def test_empty_topology(self):
        ff = default_forcefield()
        topo = Topology(atoms=[Atom("O", "OT", 0.0, 16.0)])
        tables = BondedTables(topo, ff)
        energies, forces = bonded_energy_forces(np.zeros((1, 3)), BOX, tables)
        assert all(v == 0.0 for v in energies.values())
        assert np.allclose(forces, 0.0)
        assert tables.n_terms == 0


class TestScatterRows:
    """One ``bincount`` per axis equals the ``np.add.at`` chain it replaces."""

    def _calls(self, rng, n_bins):
        calls = []
        for size in (7, 0, 40, 13):
            bins = rng.integers(0, n_bins, size)
            bins[: size // 2] = bins[:1]  # a run of one repeated bin
            rows = rng.normal(scale=1e3, size=(size, 3)) * 10.0 ** rng.integers(-9, 9, (size, 1))
            rows[::3] = -0.0
            rows[1::5] = 0.0
            calls.append((bins, rows))
        return calls

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_the_add_at_chain(self, seed):
        rng = np.random.default_rng(seed)
        n_bins = 11
        calls = self._calls(rng, n_bins)
        expected = np.zeros((n_bins, 3))
        for bins, rows in calls:
            np.add.at(expected, bins, rows)
        got = scatter_rows(calls, n_bins)
        assert got.tobytes() == expected.tobytes()

    def test_signed_zeros_sum_to_positive_zero(self):
        bins = np.array([2, 2, 0])
        rows = np.full((3, 3), -0.0)
        expected = np.zeros((4, 3))
        np.add.at(expected, bins, rows)
        got = scatter_rows([(bins, rows)], 4)
        assert got.tobytes() == expected.tobytes()
        assert not np.signbit(got).any()
