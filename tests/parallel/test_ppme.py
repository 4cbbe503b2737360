"""Parallel PME == serial PME: energies and (summed) partial forces."""

import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec, score_gigabit_ethernet
from repro.md import PeriodicBox
from repro.mpi import MPIMiddleware, MPIWorld
from repro.parallel import AtomDecomposition, ParallelPME, PIII_1GHZ
from repro.pme import PME, grid, self_energy
from repro.sim import Simulator


def _run_ppme(system, positions, p, seed=1):
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=p, network=score_gigabit_ethernet(), seed=seed))
    mw = MPIMiddleware()
    decomp = AtomDecomposition(system.n_atoms, p)

    def prog(r):
        ppme = ParallelPME(
            pme=system.pme,
            box=system.box,
            decomp=decomp,
            exclusions=system.exclusions,
            charges=system.charges,
            n_ranks=p,
            rank=r,
            cost=PIII_1GHZ,
        )
        result = yield from ppme.reciprocal(world.endpoints[r], mw, positions)
        return result

    procs = [sim.spawn(prog(r), name=f"r{r}") for r in range(p)]
    sim.run()
    world.assert_drained()
    return [pr.result for pr in procs], world


@pytest.mark.parametrize("p", [1, 2, 4])
def test_matches_serial(peptide_system, p):
    system, pos = peptide_system
    serial_e, serial_f = system.pme_energy_forces(pos)
    results, _ = _run_ppme(system, pos, p)

    total_recip = sum(r.reciprocal_energy for r in results)
    total_self = sum(r.self_energy for r in results)
    total_excl = sum(r.exclusion_energy for r in results)
    total_forces = sum(r.forces for r in results)

    assert total_recip == pytest.approx(serial_e.pme_reciprocal, rel=1e-9)
    assert total_self == pytest.approx(serial_e.pme_self, rel=1e-12)
    assert total_excl == pytest.approx(serial_e.pme_exclusion, rel=1e-9)
    assert np.allclose(total_forces, serial_f, atol=1e-8)


def test_three_ranks_uneven_slabs(peptide_system):
    system, pos = peptide_system
    serial_e, serial_f = system.pme_energy_forces(pos)
    results, _ = _run_ppme(system, pos, 3)
    total_forces = sum(r.forces for r in results)
    total_e = sum(
        r.reciprocal_energy + r.self_energy + r.exclusion_energy for r in results
    )
    assert total_e == pytest.approx(serial_e.pme_total, rel=1e-9)
    assert np.allclose(total_forces, serial_f, atol=1e-8)


def test_exclusion_slices_partition(peptide_system):
    system, pos = peptide_system
    p = 4
    decomp = AtomDecomposition(system.n_atoms, p)
    total = 0
    for r in range(p):
        ppme = ParallelPME(
            pme=system.pme,
            box=system.box,
            decomp=decomp,
            exclusions=system.exclusions,
            charges=system.charges,
            n_ranks=p,
            rank=r,
            cost=PIII_1GHZ,
        )
        total += len(ppme.my_exclusions)
    assert total == len(system.exclusions)


def test_self_energy_shares_sum(peptide_system):
    system, _ = peptide_system
    expect = self_energy(system.charges, system.ewald_alpha)
    p = 3
    decomp = AtomDecomposition(system.n_atoms, p)
    shares = [
        ParallelPME(
            pme=system.pme,
            box=system.box,
            decomp=decomp,
            exclusions=system.exclusions,
            charges=system.charges,
            n_ranks=p,
            rank=r,
            cost=PIII_1GHZ,
        ).self_energy_share
        for r in range(p)
    ]
    assert sum(shares) == pytest.approx(expect, rel=1e-12)


def test_pme_phase_charges_compute_and_comm(peptide_system):
    system, pos = peptide_system
    _, world = _run_ppme(system, pos, 4)
    for ep in world.endpoints:
        totals = ep.timeline.grand_total()
        assert totals.comp > 0
        assert totals.comm > 0


def test_one_step_holds_one_complex_and_one_real_mesh(monkeypatch):
    """tracemalloc's peak over one PME step at p = 1, above its entry,
    stays within one complex mesh, one real mesh and one block's
    allowance: 2 KB per atom of a block (its four (o, o, o) cubes) and
    512 B per atom (the stencil, the plane indices, the forces).  The
    step spreads into a complex mesh that the FFTs transform in place
    and ``phi`` replaces; work buffers kept across steps, allocating FFTs
    or copies in the p = 1 transposes would each add a mesh."""
    block, n = 64, 300
    monkeypatch.setattr(grid, "MESH_BLOCK_ATOMS", block)
    box = PeriodicBox(40.0, 40.0, 40.0)
    shape = (48, 48, 48)  # a 1.8 MB complex mesh against a 0.2 MB block
    rng = np.random.default_rng(3)
    pos = rng.uniform(0.0, 40.0, (n, 3))
    charges = rng.normal(size=n)
    ppme = ParallelPME(
        PME(box, shape, alpha=0.3), box, AtomDecomposition(n, 1),
        np.zeros((0, 2), dtype=np.int64), charges, n_ranks=1, rank=0, cost=PIII_1GHZ,
    )
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=1, network=score_gigabit_ethernet()))
    peaks = []

    def prog(ep, mw):
        yield from ppme.reciprocal(ep, mw, pos)  # warm: numpy's small-block caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            yield from ppme.reciprocal(ep, mw, pos)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()

    sim.spawn(prog(world.endpoints[0], MPIMiddleware()))
    sim.run()
    complex_mesh = int(np.prod(shape)) * 16
    assert peaks[0] <= complex_mesh + complex_mesh // 2 + 2048 * block + 512 * n
