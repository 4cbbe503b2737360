"""Slab-decomposed distributed 3-D FFT over simulated MPI.

The PME routine's communication pattern (paper Fig. 2): a parallel 3-D
FFT needs one *all-to-all personalized* exchange (the distributed
transpose) per direction change.

Forward transform of a mesh distributed as x-slabs:

1. each rank 2-D-FFTs its ``(cx, Ky, Kz)`` slab along (y, z)    [local]
2. transpose: rank j receives every rank's y-block j             [alltoallv]
3. each rank 1-D-FFTs its ``(Kx, cy, Kz)`` slab along x          [local]

leaving the spectrum distributed as y-slabs.  The inverse reverses the
pipeline.  Local transforms use numpy and run in place (``out=`` gives
the bits of the allocating calls); compute time is charged through the
cost model with exact butterfly unit counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpi.endpoint import RankEndpoint
from ..mpi.middleware import Middleware
from .costmodel import MachineCostModel, fft_units
from .decomposition import SlabDecomposition

__all__ = ["DistributedFFT"]


@dataclass
class DistributedFFT:
    """One rank's view of a distributed 3-D FFT of shape ``grid_shape``.

    Parameters
    ----------
    grid_shape:
        Full mesh ``(Kx, Ky, Kz)``.
    n_ranks, rank:
        Job geometry; x-planes and y-planes are decomposed into
        contiguous slabs.
    cost:
        Machine model used to charge local transform time.
    """

    grid_shape: tuple[int, int, int]
    n_ranks: int
    rank: int
    cost: MachineCostModel

    def __post_init__(self) -> None:
        kx, ky, _ = self.grid_shape
        self.x_slabs = SlabDecomposition(kx, self.n_ranks)
        self.y_slabs = SlabDecomposition(ky, self.n_ranks)

    # ------------------------------------------------------------------
    @property
    def my_x_range(self) -> tuple[int, int]:
        return self.x_slabs.plane_range(self.rank)

    @property
    def my_y_range(self) -> tuple[int, int]:
        return self.y_slabs.plane_range(self.rank)

    # ------------------------------------------------------------------
    def forward(self, ep: RankEndpoint, mw: Middleware, x_slab: np.ndarray):
        """Complex x-slab -> y-slab of the full 3-D spectrum.

        The x-slab is transformed in place, so its contents are consumed;
        at one rank the spectrum is the x-slab itself.
        """
        kx, ky, kz = self.grid_shape
        _, cx = self.my_x_range
        if x_slab.shape != (cx, ky, kz):
            raise ValueError(f"x-slab shape {x_slab.shape} != {(cx, ky, kz)}")

        # stage 1: local 2-D FFT along (y, z)
        yield from ep.compute(
            self.cost.fft(fft_units((cx * kz, ky), (cx * ky, kz)))
        )
        np.fft.fftn(x_slab, axes=(1, 2), out=x_slab)

        # stage 2: transpose to y-slabs
        s = yield from self._transpose_x_to_y(ep, mw, x_slab)

        # stage 3: local 1-D FFT along x
        _, cy = self.my_y_range
        yield from ep.compute(self.cost.fft(fft_units((cy * kz, kx))))
        return np.fft.fft(s, axis=0, out=s)

    def inverse(self, ep: RankEndpoint, mw: Middleware, y_slab: np.ndarray):
        """y-slab spectrum -> x-slab of the inverse-transformed mesh, in
        place as :meth:`forward` is."""
        kx, ky, kz = self.grid_shape
        _, cy = self.my_y_range
        if y_slab.shape != (kx, cy, kz):
            raise ValueError(f"y-slab shape {y_slab.shape} != {(kx, cy, kz)}")

        yield from ep.compute(self.cost.fft(fft_units((cy * kz, kx))))
        np.fft.ifft(y_slab, axis=0, out=y_slab)

        s = yield from self._transpose_y_to_x(ep, mw, y_slab)

        _, cx = self.my_x_range
        yield from ep.compute(
            self.cost.fft(fft_units((cx * kz, ky), (cx * ky, kz)))
        )
        return np.fft.ifftn(s, axes=(1, 2), out=s)

    # ------------------------------------------------------------------
    # The send blocks are views of the slab: a send snapshots its payload
    # (MPI buffer semantics), and at one rank the lone block is the slab,
    # so the transpose there copies nothing.
    def _transpose_x_to_y(self, ep: RankEndpoint, mw: Middleware, s: np.ndarray):
        """(cx, Ky, Kz) per rank -> (Kx, cy, Kz) per rank."""
        recv = yield from mw.alltoallv(ep, self.y_slabs.split(s, axis=1))
        return _joined(recv, axis=0)

    def _transpose_y_to_x(self, ep: RankEndpoint, mw: Middleware, s: np.ndarray):
        """(Kx, cy, Kz) per rank -> (cx, Ky, Kz) per rank."""
        recv = yield from mw.alltoallv(ep, self.x_slabs.split(s, axis=0))
        return _joined(recv, axis=1)


def _joined(blocks: list, axis: int) -> np.ndarray:
    """The received blocks as one slab; a lone block is the slab already."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=axis)
