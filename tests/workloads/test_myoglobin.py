"""The 3552-atom benchmark system: paper-matching composition."""

import numpy as np
import pytest

from repro.workloads import PME_GRID, TARGET_ATOMS, myoglobin_workload
from repro.workloads.myoglobin import (
    N_RESIDUES,
    N_SEGMENTS,
    N_WATERS,
    WaterPlacementError,
    _assert_no_clashes,
    _sidechain_plan,
)

from .test_fingerprint import fingerprint


@pytest.fixture(scope="module")
def system():
    return myoglobin_workload()  # cached: built once per process


class TestComposition:
    def test_total_atom_count(self, system):
        assert system.n_atoms == TARGET_ATOMS == 3552

    def test_neutral(self, system):
        assert system.topology.total_charge() == pytest.approx(0.0, abs=1e-9)

    def test_pme_grid_matches_paper(self, system):
        assert system.pme_grid == PME_GRID == (80, 36, 48)

    def test_residue_count(self, system):
        protein_residues = {
            (a.segment, a.residue_index)
            for a in system.topology.atoms
            if a.segment.startswith("HLX")
        }
        assert len(protein_residues) == N_RESIDUES == 153

    def test_water_count(self, system):
        n_wat = sum(1 for a in system.topology.atoms if a.residue == "TIP3")
        assert n_wat == 3 * N_WATERS == 1011

    def test_hetero_groups_present(self, system):
        residues = {a.residue for a in system.topology.atoms}
        assert "CO" in residues and "SO4" in residues

    def test_segment_count(self, system):
        segments = {a.segment for a in system.topology.atoms if a.segment.startswith("HLX")}
        assert len(segments) == N_SEGMENTS == 8

    def test_protein_charge_plus_two(self, system):
        q = sum(
            a.charge for a in system.topology.atoms if a.segment.startswith("HLX")
        )
        assert q == pytest.approx(2.0, abs=1e-9)

    def test_sidechain_plan(self):
        ks = _sidechain_plan()
        assert len(ks) == 153
        assert ks.count(3) == 23
        assert ks.count(2) == 130


class TestGeometry:
    def test_all_atoms_in_box_neighbourhood(self, system):
        wrapped = system.box.wrap(system.positions)
        assert np.all(wrapped >= 0)
        assert np.all(wrapped < system.box.lengths)

    def test_no_steric_clashes(self, system):
        from repro.md.neighborlist import brute_force_pairs

        pairs = brute_force_pairs(system.positions, system.box, 1.4)
        excl = {(int(i), int(j)) for i, j in system.topology.exclusion_pairs()}
        clashes = [(i, j) for i, j in map(tuple, pairs) if (i, j) not in excl]
        assert clashes == []

    def test_deterministic_build(self, system):
        from repro.workloads import build_myoglobin

        again = build_myoglobin()
        assert fingerprint(again.topology, again.positions) == fingerprint(
            system.topology, system.positions
        )

    def test_clash_check_names_the_lowest_pair(self):
        from repro.md import PeriodicBox
        from repro.workloads import build_water_box

        topo, pos, _ = build_water_box(n_side=2)
        box = PeriodicBox(20.0, 20.0, 20.0)
        _assert_no_clashes(topo, pos, box, min_dist=1.4)  # bonded O-H excluded
        pos = pos.copy()
        pos[10] = pos[3] + [0.0, 0.0, 1.0]
        with pytest.raises(AssertionError, match=r"atoms 3 and 10 at 1\.00 A \(< 1\.4 A\)"):
            _assert_no_clashes(topo, pos, box, min_dist=1.4)

    def test_box_from_grid(self, system):
        assert np.allclose(system.box.lengths, np.array(PME_GRID) * 1.2)


class TestWaterPlacement:
    def test_a_water_that_always_clashes_is_an_error(self, monkeypatch):
        from repro.workloads import build_myoglobin, myoglobin

        real = myoglobin.water_coords
        first_site = []

        def stacked(ff, site, orientation_seed=0):
            # every water lands on the first one's site
            first_site.append(site)
            return real(ff, first_site[0], orientation_seed)

        monkeypatch.setattr(myoglobin, "water_coords", stacked)
        with pytest.raises(WaterPlacementError) as err:
            build_myoglobin(n_waters=3)
        assert (err.value.water, err.value.best_distance) == (1, 0.0)
        assert str(err.value).startswith("water 1: all 16 orientations come within 0.000 A")


class TestEnergetics:
    def test_finite_energy_and_bounded_forces(self, system):
        from repro.workloads import myoglobin_system

        md = myoglobin_system("pme")
        breakdown, forces = md.energy_forces(system.positions)
        assert np.isfinite(breakdown.total)
        assert breakdown.bond == pytest.approx(0.0, abs=1e-6)
        assert np.abs(forces).max() < 500.0  # no catastrophic contact

    def test_workload_pair_count_realistic(self, system):
        """The paper's system has hundreds of thousands of cutoff pairs."""
        from repro.workloads import myoglobin_system

        md = myoglobin_system("pme")
        md.neighbor_list.ensure(system.positions)
        md.classic_energy_forces(system.positions)
        assert 200_000 < md.nonbonded.last_pair_count < 600_000
