"""Topology: validation, exclusions, merging, term derivation."""

import numpy as np
import pytest

from repro.md import Angle, Atom, Bond, Dihedral, Improper, Topology
from repro.md.topology import derive_angles, derive_dihedrals


def _atom(name="X", type_name="CT2", charge=0.0):
    return Atom(name=name, type_name=type_name, charge=charge, mass=12.0)


def _chain(n):
    """A linear chain of n atoms bonded consecutively."""
    atoms = [_atom(f"A{i}") for i in range(n)]
    bonds = [Bond(i, i + 1) for i in range(n - 1)]
    return Topology(atoms=atoms, bonds=bonds)


class TestValidation:
    def test_rejects_out_of_range_bond(self):
        with pytest.raises(ValueError):
            Topology(atoms=[_atom()], bonds=[Bond(0, 1)])

    def test_rejects_self_bond(self):
        with pytest.raises(ValueError):
            Topology(atoms=[_atom(), _atom()], bonds=[Bond(1, 1)])

    def test_accepts_valid(self):
        topo = _chain(3)
        assert topo.n_atoms == 3

    @pytest.mark.parametrize(
        "table, term, message",
        [
            ("bonds", Bond(0, 3), "atom index 3 out of range [0, 3)"),
            ("bonds", Bond(-1, 2), "atom index -1 out of range [0, 3)"),
            ("bonds", Bond(2, 2), "repeated atom index 2"),
            ("angles", Angle(0, 1, 7), "atom index 7 out of range [0, 3)"),
            ("angles", Angle(0, -2, 1), "atom index -2 out of range [0, 3)"),
            ("angles", Angle(1, 0, 1), "repeated atom index 1"),
            ("dihedrals", Dihedral(0, 1, 2, 3), "atom index 3 out of range [0, 3)"),
            ("dihedrals", Dihedral(-5, 0, 1, 2), "atom index -5 out of range [0, 3)"),
            ("dihedrals", Dihedral(0, 1, 2, 0), "repeated atom index 0"),
            ("impropers", Improper(0, 1, 9, 2), "atom index 9 out of range [0, 3)"),
            ("impropers", Improper(0, 1, 2, -1), "atom index -1 out of range [0, 3)"),
            ("impropers", Improper(2, 1, 1, 0), "repeated atom index 1"),
        ],
    )
    def test_error_names_term_and_index(self, table, term, message):
        kind = table[:-1]
        with pytest.raises(ValueError) as err:
            Topology(atoms=[_atom() for _ in range(3)], **{table: [term]})
        assert str(err.value) == f"{kind} {term}: {message}"

    def test_first_offending_term_in_table_order(self):
        atoms = [_atom() for _ in range(4)]
        with pytest.raises(ValueError) as err:
            Topology(
                atoms=atoms,
                bonds=[Bond(0, 1), Bond(1, 2)],
                angles=[Angle(0, 1, 2), Angle(1, 1, 9), Angle(0, 8, 1)],
                dihedrals=[Dihedral(0, 0, 0, 0)],
                impropers=[Improper(7, 7, 7, 7)],
            )
        # the first bad row, and within it the first bad column
        assert str(err.value) == "angle Angle(i=1, j=1, k=9): repeated atom index 1"
        with pytest.raises(ValueError) as err:
            Topology(atoms=atoms, dihedrals=[Dihedral(0, 1, 9, 1), Dihedral(-1, 0, 1, 2)])
        assert str(err.value) == (
            "dihedral Dihedral(i=0, j=1, k=9, l=1): atom index 9 out of range [0, 4)"
        )

    def test_validate_after_mutation(self):
        topo = _chain(3)
        topo.impropers.append(Improper(0, 1, 2, 3))
        with pytest.raises(ValueError, match=r"improper Improper\(i=0, j=1, k=2, l=3\)"):
            topo.validate()


class TestArrays:
    def test_charges_masses(self):
        topo = Topology(atoms=[_atom(charge=0.5), _atom(charge=-0.5)])
        assert np.allclose(topo.charges, [0.5, -0.5])
        assert np.allclose(topo.masses, [12.0, 12.0])
        assert topo.total_charge() == pytest.approx(0.0)

    def test_empty_term_arrays(self):
        topo = Topology(atoms=[_atom()])
        assert topo.bond_index_array().shape == (0, 2)
        assert topo.angle_index_array().shape == (0, 3)
        assert topo.dihedral_index_array().shape == (0, 4)
        assert topo.improper_index_array().shape == (0, 4)


class TestExclusions:
    def test_linear_chain_separation_3(self):
        # chain 0-1-2-3-4: within 3 bonds of 0: 1, 2, 3
        topo = _chain(5)
        excl = topo.exclusion_pairs(max_separation=3)
        pairs = set(map(tuple, excl))
        assert (0, 1) in pairs and (0, 2) in pairs and (0, 3) in pairs
        assert (0, 4) not in pairs

    def test_separation_1_is_bonds_only(self):
        topo = _chain(4)
        excl = topo.exclusion_pairs(max_separation=1)
        assert set(map(tuple, excl)) == {(0, 1), (1, 2), (2, 3)}

    def test_sorted_and_unique(self):
        topo = _chain(6)
        excl = topo.exclusion_pairs()
        assert np.all(excl[:, 0] < excl[:, 1])
        as_tuples = list(map(tuple, excl))
        assert len(as_tuples) == len(set(as_tuples))
        assert as_tuples == sorted(as_tuples)

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            _chain(3).exclusion_pairs(max_separation=0)

    def test_disconnected_atoms_have_no_exclusions(self):
        topo = Topology(atoms=[_atom(), _atom()])
        assert len(topo.exclusion_pairs()) == 0


class TestMerge:
    def test_merge_offsets_indices(self):
        a = _chain(3)
        b = _chain(2)
        merged = a.merge(b)
        assert merged.n_atoms == 5
        assert (merged.bonds[-1].i, merged.bonds[-1].j) == (3, 4)

    def test_merge_offsets_residues(self):
        a = Topology(atoms=[_atom()])
        b = Topology(atoms=[_atom()])
        merged = a.merge(b)
        assert merged.atoms[0].residue_index == 0
        assert merged.atoms[1].residue_index == 1

    def test_concat_many_linear(self):
        parts = [_chain(3) for _ in range(10)]
        merged = Topology.concat(parts)
        assert merged.n_atoms == 30
        assert len(merged.bonds) == 20

    def test_concat_matches_repeated_merge(self):
        def molecule(n, residues):
            atoms = [
                Atom(f"A{i}", "CT2", 0.1 * i, 12.0, residue_index=i % residues)
                for i in range(n)
            ]
            bonds = [Bond(i, i + 1) for i in range(n - 1)]
            return Topology(
                atoms=atoms,
                bonds=bonds,
                angles=derive_angles(bonds, n),
                dihedrals=derive_dihedrals(bonds, n),
                impropers=[Improper(1, 0, 2, 3)] if n >= 4 else [],
            )

        parts = [molecule(3, 1), molecule(2, 2), molecule(5, 3), Topology(), molecule(4, 2)]
        via_concat = Topology.concat(parts)
        via_merge = parts[0]
        for part in parts[1:]:
            via_merge = via_merge.merge(part)
        assert via_concat.atoms == via_merge.atoms
        assert [a.residue_index for a in via_concat.atoms] == [
            0, 0, 0, 1, 2, 3, 4, 5, 3, 4, 6, 7, 6, 7
        ]
        for table in ("bonds", "angles", "dihedrals", "impropers"):
            assert getattr(via_concat, table) == getattr(via_merge, table)
        assert via_concat.impropers == [Improper(6, 5, 7, 8), Improper(11, 10, 12, 13)]


class TestDerivation:
    def test_angles_of_linear_chain(self):
        bonds = [Bond(0, 1), Bond(1, 2), Bond(2, 3)]
        angles = derive_angles(bonds, 4)
        triples = {(a.i, a.j, a.k) for a in angles}
        assert triples == {(0, 1, 2), (1, 2, 3)}

    def test_angles_of_star(self):
        # central atom 0 bonded to 1, 2, 3 -> three angles
        bonds = [Bond(0, 1), Bond(0, 2), Bond(0, 3)]
        angles = derive_angles(bonds, 4)
        assert len(angles) == 3
        assert all(a.j == 0 for a in angles)

    def test_dihedrals_of_linear_chain(self):
        bonds = [Bond(0, 1), Bond(1, 2), Bond(2, 3), Bond(3, 4)]
        dihedrals = derive_dihedrals(bonds, 5)
        quads = {(d.i, d.j, d.k, d.l) for d in dihedrals}
        assert quads == {(0, 1, 2, 3), (1, 2, 3, 4)}

    def test_dihedrals_exclude_three_rings(self):
        # triangle 0-1-2: paths like 2-0-1-2 must not appear
        bonds = [Bond(0, 1), Bond(1, 2), Bond(0, 2)]
        dihedrals = derive_dihedrals(bonds, 3)
        assert dihedrals == []

    def test_methane_like_dihedral_count(self):
        # X-C-C-X with 3 substituents each side -> 9 dihedrals
        bonds = [Bond(0, 1)]
        bonds += [Bond(0, i) for i in (2, 3, 4)]
        bonds += [Bond(1, i) for i in (5, 6, 7)]
        dihedrals = derive_dihedrals(bonds, 8)
        assert len(dihedrals) == 9
