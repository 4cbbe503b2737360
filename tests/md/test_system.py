"""MDSystem: wiring, classic/PME split, full-gradient consistency."""

import numpy as np
import pytest

from repro.md import CutoffScheme, MDSystem, default_forcefield
from repro.workloads import build_water_box


@pytest.fixture(scope="module")
def shift_system():
    topo, pos, box = build_water_box(n_side=3)
    system = MDSystem(topo, default_forcefield(), box, CutoffScheme(r_cut=4.0, skin=1.0))
    return system, pos


@pytest.fixture(scope="module")
def pme_system():
    topo, pos, box = build_water_box(n_side=3)
    system = MDSystem(
        topo,
        default_forcefield(),
        box,
        CutoffScheme(r_cut=4.0, skin=1.0),
        electrostatics="pme",
        pme_grid=(16, 16, 16),
    )
    return system, pos


class TestConstruction:
    def test_rejects_unknown_model(self):
        topo, pos, box = build_water_box(n_side=2)
        with pytest.raises(ValueError):
            MDSystem(topo, default_forcefield(), box, electrostatics="reaction-field")

    def test_pme_requires_grid(self):
        topo, pos, box = build_water_box(n_side=2)
        with pytest.raises(ValueError):
            MDSystem(topo, default_forcefield(), box, electrostatics="pme")

    def test_pme_accessors_guarded_without_pme(self, shift_system):
        system, _ = shift_system
        assert not system.uses_pme
        with pytest.raises(RuntimeError):
            _ = system.pme
        with pytest.raises(RuntimeError):
            _ = system.ewald_alpha
        with pytest.raises(RuntimeError):
            system.pme_energy_forces(np.zeros((system.n_atoms, 3)))

    def test_pme_alpha_reasonable(self, pme_system):
        system, _ = pme_system
        # erfc(alpha * r_cut) ~ 1e-5 -> alpha ~ 3.1 / r_cut
        assert 2.5 / 4.0 < system.ewald_alpha < 3.7 / 4.0


class TestEnergies:
    def test_classic_split_consistency(self, shift_system):
        system, pos = shift_system
        breakdown, forces = system.energy_forces(pos)
        assert breakdown.pme_total == 0.0
        assert breakdown.total == pytest.approx(breakdown.classic_total)
        assert forces.shape == (system.n_atoms, 3)

    def test_pme_split_adds_up(self, pme_system):
        system, pos = pme_system
        full, forces = system.energy_forces(pos)
        classic, f1 = system.classic_energy_forces(pos)
        pme, f2 = system.pme_energy_forces(pos)
        assert full.total == pytest.approx(classic.total + pme.total, rel=1e-12)
        assert np.allclose(forces, f1 + f2)

    def test_water_box_bonded_relaxed(self, shift_system):
        system, pos = shift_system
        breakdown, _ = system.energy_forces(pos)
        assert breakdown.bond == pytest.approx(0.0, abs=1e-9)
        assert breakdown.angle == pytest.approx(0.0, abs=1e-9)

    def test_pme_self_energy_negative(self, pme_system):
        system, pos = pme_system
        breakdown, _ = system.pme_energy_forces(pos)
        assert breakdown.pme_self < 0


class TestGradients:
    @pytest.mark.parametrize("fixture", ["shift_system", "pme_system"])
    def test_total_forces_match_gradient(self, fixture, request):
        system, pos = request.getfixturevalue(fixture)
        _, forces = system.energy_forces(pos)
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(6):
            i = int(rng.integers(system.n_atoms))
            d = int(rng.integers(3))
            pp = pos.copy(); pp[i, d] += h
            pm = pos.copy(); pm[i, d] -= h
            ep, _ = system.energy_forces(pp)
            em, _ = system.energy_forces(pm)
            fd = -(ep.total - em.total) / (2 * h)
            assert forces[i, d] == pytest.approx(fd, abs=5e-4)


class TestEnergyBreakdownAlgebra:
    def test_addition(self):
        from repro.md import EnergyBreakdown

        a = EnergyBreakdown(bond=1.0, lj=2.0)
        b = EnergyBreakdown(bond=0.5, pme_reciprocal=3.0)
        c = a + b
        assert c.bond == 1.5
        assert c.lj == 2.0
        assert c.pme_reciprocal == 3.0
        assert c.classic_total == pytest.approx(3.5)
        assert c.pme_total == pytest.approx(3.0)

    def test_as_dict_roundtrip(self):
        from repro.md import EnergyBreakdown

        e = EnergyBreakdown(bond=1.0, angle=2.0, pme_self=-3.0)
        assert EnergyBreakdown(**e.as_dict()) == e
