"""Parallel MD == serial reference: the end-to-end correctness gate."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    NodeSpec,
    myrinet_gm,
    score_gigabit_ethernet,
    tcp_gigabit_ethernet,
)
from repro.core import FOCAL_POINT, DesignPoint, ResponseRecord
from repro.md.integrator import maxwell_boltzmann_velocities
from repro.parallel import (
    MDRunConfig,
    RunOptions,
    energy_to_vector,
    rank_system_clone,
    run_parallel_md,
    serial_reference_run,
    vector_to_energy,
)


@pytest.fixture(scope="module")
def reference(peptide_system):
    system, pos = peptide_system
    cfg = MDRunConfig(n_steps=4, dt=0.0004)
    rng = np.random.default_rng(cfg.velocity_seed)
    v0 = maxwell_boltzmann_velocities(system.masses, cfg.temperature, rng)
    energies, final_pos = serial_reference_run(rank_system_clone(system), cfg, pos, v0)
    return cfg, energies, final_pos


class TestVectorPacking:
    def test_roundtrip(self):
        from repro.md import EnergyBreakdown

        e = EnergyBreakdown(bond=1.0, lj=-2.0, pme_reciprocal=3.5, pme_self=-7.0)
        assert vector_to_energy(energy_to_vector(e)) == e

    def test_vector_length_matches_fields(self):
        from dataclasses import fields

        from repro.md import EnergyBreakdown

        assert len(energy_to_vector(EnergyBreakdown())) == len(fields(EnergyBreakdown))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MDRunConfig(n_steps=0)
        with pytest.raises(ValueError):
            MDRunConfig(dt=-0.1)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_energies_and_trajectory(self, peptide_system, reference, p):
        system, pos = peptide_system
        cfg, ref_energies, ref_pos = reference
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet()),
            RunOptions(config=cfg),
        )
        assert len(res.energies) == cfg.n_steps
        for step in range(cfg.n_steps):
            assert res.energies[step].total == pytest.approx(
                ref_energies[step].total, rel=1e-9, abs=1e-9
            )
        assert np.allclose(res.final_positions, ref_pos, atol=1e-9)

    def test_three_ranks(self, peptide_system, reference):
        system, pos = peptide_system
        cfg, ref_energies, ref_pos = reference
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=3, network=score_gigabit_ethernet()),
            RunOptions(config=cfg),
        )
        assert res.energies[-1].total == pytest.approx(ref_energies[-1].total, rel=1e-9)
        assert np.allclose(res.final_positions, ref_pos, atol=1e-9)

    def test_physics_independent_of_network(self, peptide_system):
        """Virtual time must never leak into the physics."""
        system, pos = peptide_system
        cfg = MDRunConfig(n_steps=3, dt=0.0004)
        finals = []
        for net in (tcp_gigabit_ethernet(), myrinet_gm()):
            res = run_parallel_md(
                system, pos, ClusterSpec(n_ranks=4, network=net), RunOptions(config=cfg)
            )
            finals.append(res.final_positions)
        assert np.array_equal(finals[0], finals[1])

    def test_physics_independent_of_middleware(self, peptide_system):
        system, pos = peptide_system
        cfg = MDRunConfig(n_steps=3, dt=0.0004)
        finals = []
        for mw in ("mpi", "cmpi"):
            res = run_parallel_md(
                system,
                pos,
                ClusterSpec(n_ranks=4, network=tcp_gigabit_ethernet()),
                RunOptions(middleware=mw, config=cfg),
            )
            finals.append(res.final_positions)
        assert np.allclose(finals[0], finals[1], atol=1e-12)

    def test_classic_only_system(self, peptide_system_shift):
        """Without PME the run must still match its serial reference."""
        system, pos = peptide_system_shift
        cfg = MDRunConfig(n_steps=3, dt=0.0004)
        rng = np.random.default_rng(cfg.velocity_seed)
        v0 = maxwell_boltzmann_velocities(system.masses, cfg.temperature, rng)
        ref_e, ref_pos = serial_reference_run(rank_system_clone(system), cfg, pos, v0)
        res = run_parallel_md(
            system, pos,
            ClusterSpec(n_ranks=4, network=tcp_gigabit_ethernet()),
            RunOptions(config=cfg),
        )
        assert res.energies[-1].total == pytest.approx(ref_e[-1].total, rel=1e-9)
        assert res.energies[-1].pme_total == 0.0
        assert np.allclose(res.final_positions, ref_pos, atol=1e-9)


@pytest.mark.usefixtures("small_pair_tiles")
class TestParallelEqualsSerialAcrossTileSeams(TestParallelEqualsSerial):
    """The same cases with every rank's block spanning several row tiles
    (the serial ``reference`` was evaluated in one)."""


class TestTimelines:
    def test_phases_present(self, peptide_system):
        system, pos = peptide_system
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet()),
            RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004)),
        )
        for tl in res.timelines:
            assert tl.phase_totals("classic").total > 0
            assert tl.phase_totals("pme").total > 0

    def test_serial_run_has_no_comm(self, peptide_system):
        system, pos = peptide_system
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=1, network=tcp_gigabit_ethernet()),
            RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004)),
        )
        totals = res.timelines[0].grand_total()
        assert totals.comm == 0.0
        assert totals.sync == 0.0
        assert totals.comp > 0

    def test_dual_processor_placement_runs(self, peptide_system):
        system, pos = peptide_system
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(
                n_ranks=4, network=tcp_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2)
            ),
            RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004)),
        )
        assert res.spec.n_nodes == 2
        assert res.wall_time() > 0

    def test_determinism(self, peptide_system):
        system, pos = peptide_system
        cfg = MDRunConfig(n_steps=2, dt=0.0004)
        spec = ClusterSpec(n_ranks=4, network=tcp_gigabit_ethernet(), seed=7)
        a = run_parallel_md(system, pos, spec, RunOptions(config=cfg))
        b = run_parallel_md(system, pos, spec, RunOptions(config=cfg))
        assert a.wall_time() == pytest.approx(b.wall_time(), rel=1e-12)
        assert a.component_time("pme") == pytest.approx(
            b.component_time("pme"), rel=1e-12
        )

    def test_middleware_label(self, peptide_system):
        system, pos = peptide_system
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet()),
            RunOptions(middleware="cmpi", config=MDRunConfig(n_steps=1, dt=0.0004)),
        )
        assert res.middleware == "cmpi"

    def test_unknown_middleware_rejected(self, peptide_system):
        system, pos = peptide_system
        with pytest.raises(ValueError):
            run_parallel_md(
                system,
                pos,
                ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet()),
                RunOptions(middleware="pvm"),
            )


class TestResultSummary:
    def test_summary_fields(self, peptide_system):
        system, pos = peptide_system
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet()),
            RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004)),
        )
        s = ResponseRecord.from_run(DesignPoint(config=FOCAL_POINT, n_ranks=2), res)
        assert s.n_ranks == 2
        assert s.classic_time > 0
        assert s.pme_time > 0
        assert s.wall_time >= max(s.classic_time, s.pme_time)
        assert np.isfinite(s.final_energy)

    def test_total_breakdown_covers_phases(self, peptide_system):
        system, pos = peptide_system
        res = run_parallel_md(
            system,
            pos,
            ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet()),
            RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004)),
        )
        total = res.total_breakdown()
        classic = res.component("classic")
        pme = res.component("pme")
        assert total.total == pytest.approx(classic.total + pme.total, rel=1e-12)
