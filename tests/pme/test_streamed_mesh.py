"""The streamed PME mesh: spread and interpolation one block of slab atoms
at a time, and the distributed FFT in place, give the bits of the
one-block evaluation and of numpy's allocating transforms."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, score_gigabit_ethernet, tcp_gigabit_ethernet
from repro.md import PeriodicBox
from repro.mpi import MPIMiddleware, MPIWorld
from repro.parallel import DistributedFFT, MDRunConfig, ParallelPME, PIII_1GHZ, RunOptions
from repro.parallel import run_parallel_md
from repro.pme import ChargeMesh, grid
from repro.sim import Simulator

BOX = PeriodicBox(12.0, 10.0, 14.0)
SHAPE = (12, 10, 14)  # 1 A spacing
BLOCK = 4
WRAPPING_SLAB = (10, 4)  # planes 10, 11, 0, 1


def _scene(n_active, x_range, seed=7):
    """``n_active`` atoms whose stencil meets the slab, shuffled among five
    whose stencil does not (on the full mesh every atom is active)."""
    rng = np.random.default_rng(seed)
    n_idle = 0 if x_range is None else 5
    x = np.concatenate([
        rng.uniform(10.0, 13.5, n_active) % 12.0,  # stencils reach planes 10..1
        rng.uniform(5.0, 8.9, n_idle),  # stencils stay on planes 2..8
    ])
    pos = np.column_stack([x, rng.uniform(0, 10.0, len(x)), rng.uniform(0, 14.0, len(x))])
    order = rng.permutation(len(pos))
    return pos[order], rng.normal(size=len(pos))


@pytest.mark.parametrize("x_range", [WRAPPING_SLAB, None], ids=["wrapping-slab", "full-mesh"])
@pytest.mark.parametrize("n_active", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_blocks_give_the_one_block_bits(monkeypatch, x_range, n_active):
    pos, q = _scene(n_active, x_range)
    mesh = ChargeMesh(BOX, SHAPE)
    stencil = mesh.stencil(pos)
    count = SHAPE[0] if x_range is None else x_range[1]
    start = 0 if x_range is None else x_range[0]
    assert np.count_nonzero(((stencil[0][0] - start) % SHAPE[0] < count).any(axis=1)) == n_active
    phi = np.random.default_rng(1).normal(size=(count, *SHAPE[1:]))

    def evaluate(block):
        monkeypatch.setattr(grid, "MESH_BLOCK_ATOMS", block)
        spread = mesh.spread(pos, q, x_range=x_range, stencil=stencil)
        spread_work = mesh.last_workload
        forces = mesh.interpolate_forces(pos, q, phi, x_range=x_range, stencil=stencil)
        return spread, spread_work, forces, mesh.last_workload

    whole = evaluate(10_000)
    streamed = evaluate(BLOCK)
    assert streamed[0].tobytes() == whole[0].tobytes()
    assert streamed[2].tobytes() == whole[2].tobytes()
    assert streamed[1] == whole[1] and streamed[3] == whole[3]
    assert whole[0].shape == (count, *SHAPE[1:]) and whole[2].shape == (len(pos), 3)


@pytest.mark.parametrize("p", [1, 2, 3, 8])
def test_distributed_fft_in_place_gives_numpy_bits(p):
    """Forward: the gathered y-slabs are ``np.fft.fftn`` of the mesh.  The
    inverse transforms x first and then (y, z), so its reference is that
    composition of numpy's allocating transforms (``ifftn`` over all axes
    takes them in another order, and rounds differently)."""
    shape = (16, 12, 10)
    rng = np.random.default_rng(5)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spectrum = np.fft.fftn(data)
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=p, network=score_gigabit_ethernet(), seed=1))
    mw = MPIMiddleware()

    def prog(r):
        f = DistributedFFT(shape, p, r, PIII_1GHZ)
        x0, cx = f.my_x_range
        y0, cy = f.my_y_range
        fwd = yield from f.forward(world.endpoints[r], mw, data[x0 : x0 + cx].copy())
        back = yield from f.inverse(world.endpoints[r], mw, spectrum[:, y0 : y0 + cy].copy())
        return fwd, back

    procs = [sim.spawn(prog(r)) for r in range(p)]
    sim.run()
    world.assert_drained()
    forward = np.concatenate([pr.result[0] for pr in procs], axis=1)
    inverse = np.concatenate([pr.result[1] for pr in procs], axis=0)
    assert forward.tobytes() == spectrum.tobytes()
    expect = np.fft.ifftn(np.fft.ifft(spectrum, axis=0), axes=(1, 2))
    assert inverse.tobytes() == expect.tobytes()


@pytest.mark.parametrize("p", [1, 3])
def test_one_spread_and_one_interpolation_per_rank_per_step(monkeypatch, peptide_system, p):
    """However many blocks a step is cut into, each rank's mesh is spread
    once and interpolated once per PME step (the calls the ledger counts)."""
    monkeypatch.setattr(grid, "MESH_BLOCK_ATOMS", 5)
    calls = {"spread": [], "interpolate_forces": [], "reciprocal": []}

    def spy(cls, name, key):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[key].append(self if key != "reciprocal" else self.mesh)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    spy(ChargeMesh, "spread", "spread")
    spy(ChargeMesh, "interpolate_forces", "interpolate_forces")
    spy(ParallelPME, "reciprocal", "reciprocal")
    system, pos = peptide_system
    spec = ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=11)
    run_parallel_md(system, pos, spec, RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004)))
    meshes = set(calls["reciprocal"])
    assert len(meshes) == p
    steps = len(calls["reciprocal"]) // p
    assert steps >= 2
    for mesh in meshes:
        assert calls["reciprocal"].count(mesh) == steps
        assert calls["spread"].count(mesh) == steps
        assert calls["interpolate_forces"].count(mesh) == steps
    assert len(calls["spread"]) == len(calls["interpolate_forces"]) == p * steps
