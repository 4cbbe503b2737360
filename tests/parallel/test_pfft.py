"""Distributed 3-D FFT == numpy.fft.fftn, any rank count and shape."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, score_gigabit_ethernet
from repro.mpi import MPIMiddleware, MPIWorld
from repro.parallel import DistributedFFT, PIII_1GHZ
from repro.sim import Simulator


def _run_fft(shape, p, data, inverse_too=True, seed=1):
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=p, network=score_gigabit_ethernet(), seed=seed))
    mw = MPIMiddleware()

    def prog(r):
        f = DistributedFFT(shape, p, r, PIII_1GHZ)
        x0, cx = f.my_x_range
        fwd = yield from f.forward(world.endpoints[r], mw, data[x0 : x0 + cx].astype(complex))
        if inverse_too:
            # the transforms run in place: the inverse consumes its input
            back = yield from f.inverse(world.endpoints[r], mw, fwd.copy())
        else:
            back = None
        return f, fwd, back

    procs = [sim.spawn(prog(r), name=f"r{r}") for r in range(p)]
    sim.run()
    world.assert_drained()
    return [pr.result for pr in procs]


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("shape", [(8, 8, 8), (16, 12, 10), (20, 6, 14)])
def test_forward_matches_numpy(p, shape, rng):
    data = rng.normal(size=shape)
    ref = np.fft.fftn(data)
    for r, (f, fwd, _back) in enumerate(_run_fft(shape, p, data, inverse_too=False)):
        y0, cy = f.my_y_range
        assert np.allclose(fwd, ref[:, y0 : y0 + cy, :], atol=1e-10)


@pytest.mark.parametrize("p", [1, 3, 5])
def test_non_power_of_two_ranks(p, rng):
    shape = (15, 10, 9)
    data = rng.normal(size=shape)
    ref = np.fft.fftn(data)
    for f, fwd, back in _run_fft(shape, p, data):
        y0, cy = f.my_y_range
        assert np.allclose(fwd, ref[:, y0 : y0 + cy, :], atol=1e-10)
        x0, cx = f.my_x_range
        assert np.allclose(back, data[x0 : x0 + cx], atol=1e-10)


def test_roundtrip_identity(rng):
    shape = (16, 12, 10)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for f, _fwd, back in _run_fft(shape, 4, data):
        x0, cx = f.my_x_range
        assert np.allclose(back, data[x0 : x0 + cx], atol=1e-10)


def test_complex_input_supported(rng):
    shape = (8, 8, 8)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = np.fft.fftn(data)
    for f, fwd, _ in _run_fft(shape, 2, data, inverse_too=False):
        y0, cy = f.my_y_range
        assert np.allclose(fwd, ref[:, y0 : y0 + cy, :], atol=1e-10)


def test_wrong_slab_shape_rejected():
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=score_gigabit_ethernet()))
    mw = MPIMiddleware()

    def prog(r):
        f = DistributedFFT((8, 8, 8), 2, r, PIII_1GHZ)
        yield from f.forward(world.endpoints[r], mw, np.zeros((3, 8, 8), dtype=complex))

    for r in range(2):
        sim.spawn(prog(r))
    with pytest.raises(ValueError):
        sim.run()


def test_compute_time_charged(rng):
    shape = (16, 12, 10)
    data = rng.normal(size=shape)
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=score_gigabit_ethernet()))
    mw = MPIMiddleware()

    def prog(r):
        f = DistributedFFT(shape, 2, r, PIII_1GHZ)
        x0, cx = f.my_x_range
        yield from f.forward(world.endpoints[r], mw, data[x0 : x0 + cx].astype(complex))

    for r in range(2):
        sim.spawn(prog(r))
    sim.run()
    for ep in world.endpoints:
        totals = ep.timeline.grand_total()
        assert totals.comp > 0
        assert totals.comm > 0  # the transpose moved data
