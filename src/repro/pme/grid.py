"""Charge spreading onto the PME mesh and force interpolation off it.

Both directions support restriction to a contiguous (wrapping) range of
x-planes.  That is exactly what the slab-parallel PME needs: with
replicated coordinates every rank can spread the *portion of the mesh it
owns* with no communication, and after the inverse FFT it can compute the
*partial* forces contributed by its planes — partial forces are summed by
the same force reduction that the classic energy part already performs
(the B-spline stencil is separable in x).

Both directions build their dense ``(atoms, o, o, o)`` intermediates one
block of :data:`MESH_BLOCK_ATOMS` slab atoms at a time, so no
stencil-cube array outgrows a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.box import PeriodicBox
from .bspline import bspline_weights

__all__ = ["ChargeMesh", "MESH_BLOCK_ATOMS", "SpreadWorkload"]

#: Atoms per block of the streamed spread and interpolation.  Measured on
#: the 3552-atom myoglobin mesh (80, 36, 48), one spread and one
#: interpolation on a 2-core VM: the full mesh took 4.7 ms at 1,024
#: against 5.1 ms at 256 and 7.6-11 ms at 4,096, with a tracemalloc peak
#: of 3.6 MB against 6.4 MB in one block; a p = 8 slab (~580 atoms) is
#: one block.
MESH_BLOCK_ATOMS = 1024


@dataclass(frozen=True)
class SpreadWorkload:
    """Operation counts from one spread/interpolate call (for cost models)."""

    n_atoms: int
    stencil_points: int  # n_atoms * order**3 before slab masking
    scattered_points: int  # points actually accumulated (after masking)


class ChargeMesh:
    """B-spline charge assignment for an orthorhombic box.

    Parameters
    ----------
    box:
        Periodic box.
    grid_shape:
        Mesh dimensions ``(Kx, Ky, Kz)``; the paper's system uses
        ``(80, 36, 48)``.
    order:
        B-spline interpolation order (even; 4 by default).
    """

    def __init__(self, box: PeriodicBox, grid_shape: tuple[int, int, int], order: int = 4):
        if len(grid_shape) != 3 or min(grid_shape) < order:
            raise ValueError(f"bad grid shape {grid_shape} for order {order}")
        self.box = box
        self.grid_shape = tuple(int(k) for k in grid_shape)
        self.order = order
        self._k = np.array(self.grid_shape, dtype=np.float64)
        self._offsets = np.arange(order, dtype=np.int64)
        self.last_workload: SpreadWorkload | None = None

    # ------------------------------------------------------------------
    def stencil(
        self, positions: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Per-axis grid indices, weights and weight derivatives.

        Returns three lists (one entry per axis) of arrays shaped
        ``(n_atoms, order)``; derivative weights are per scaled-coordinate
        unit (multiply by ``K/L`` for a spatial derivative).

        The stencil depends only on the positions and the (fixed) mesh
        geometry, so one evaluation can be reused by :meth:`spread` and
        :meth:`interpolate_forces` in both the serial engine and — via
        :class:`repro.parallel.shared.SharedComputeCache` — across every
        simulated rank of a replicated-data step.
        """
        scaled = self.box.wrap(positions) / self.box.lengths * self._k
        k0 = np.floor(scaled).astype(np.int64)
        frac = scaled - k0
        idx, w, dw = [], [], []
        offsets = self._offsets
        for d in range(3):
            wd, dwd = bspline_weights(frac[:, d], self.order)
            idx.append((k0[:, d, None] - self.order + 1 + offsets[None, :]) % self.grid_shape[d])
            w.append(wd)
            dw.append(dwd)
        return idx, w, dw

    # ------------------------------------------------------------------
    def spread(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        x_range: tuple[int, int] | None = None,
        stencil: tuple[list, list, list] | None = None,
    ) -> np.ndarray:
        """Spread charges onto the mesh (or onto an x-slab of it).

        Parameters
        ----------
        positions, charges:
            All atom coordinates and charges (replicated-data convention).
        x_range:
            ``(start, count)`` of owned x-planes, wrapping modulo ``Kx``;
            ``None`` spreads the full mesh.
        stencil:
            Optional precomputed :meth:`stencil` for these positions.

        Returns
        -------
        Real float64 array of shape ``(count, Ky, Kz)`` (full mesh when
        ``x_range`` is None).
        """
        kx, ky, kz = self.grid_shape
        start, count = (0, kx) if x_range is None else x_range
        if not 0 < count <= kx:
            raise ValueError(f"invalid slab count {count}")

        idx, w, _ = stencil if stencil is not None else self.stencil(positions)
        n = len(positions)
        lix = (idx[0] - start) % kx  # local x-plane index, (n, o)

        # ``np.add.at`` accumulates unbuffered, in index order, into a
        # zeroed grid: block after block in atom order, that is the very
        # sequence of additions one whole-mesh ``bincount`` made, so the
        # grid is the same bit for bit wherever the blocks are cut.
        grid = np.zeros(count * ky * kz)
        scattered = 0
        for rows in _slab_blocks(lix, count, kx):
            lx = lix[rows]
            # combined weights (block, o, o, o), built up one separable
            # axis at a time (n*o then n*o^2 element products instead of
            # three full n*o^3 broadcasts), and linear local indices
            wgt = ((charges[rows, None] * w[0][rows])[:, :, None] * w[1][rows][:, None, :])[
                :, :, :, None
            ] * w[2][rows][:, None, None, :]
            lin = (
                (lx[:, :, None, None] * ky + idx[1][rows][:, None, :, None]) * kz
                + idx[2][rows][:, None, None, :]
            )
            if count < kx:
                # same elements and order as boolean indexing, via the
                # faster flatnonzero/take compression
                mask = np.broadcast_to((lx < count)[:, :, None, None], lin.shape)
                keep = np.flatnonzero(mask.ravel())
                lin, wgt = lin.ravel().take(keep), wgt.ravel().take(keep)
            np.add.at(grid, lin.ravel(), wgt.ravel())
            scattered += lin.size
        self.last_workload = SpreadWorkload(
            n_atoms=n, stencil_points=n * self.order**3, scattered_points=scattered
        )
        return grid.reshape(count, ky, kz)

    # ------------------------------------------------------------------
    def interpolate_forces(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        phi: np.ndarray,
        x_range: tuple[int, int] | None = None,
        stencil: tuple[list, list, list] | None = None,
    ) -> np.ndarray:
        """Forces from the convolved potential mesh ``phi``.

        ``phi`` must be ``K * ifftn(psi * S).real`` (see
        :class:`repro.pme.pme.PME`), restricted to ``x_range`` planes when
        given.  When restricted, the result contains only the *partial*
        forces from those planes; summing the slabs over all ranks yields
        the full reciprocal force.  ``stencil`` optionally supplies a
        precomputed :meth:`stencil` for these positions.
        """
        kx, ky, kz = self.grid_shape
        start, count = (0, kx) if x_range is None else x_range
        if phi.shape != (count, ky, kz):
            raise ValueError(f"phi shape {phi.shape} != expected {(count, ky, kz)}")

        idx, w, dw = stencil if stencil is not None else self.stencil(positions)
        n = len(positions)
        lix = (idx[0] - start) % kx
        owned = lix < count
        self.last_workload = SpreadWorkload(
            n_atoms=n,
            stencil_points=n * self.order**3,
            scattered_points=int(np.count_nonzero(owned)) * self.order**2,
        )

        # Each atom's force depends on its own stencil only, so the blocks
        # (the atoms that :meth:`spread` streams too: others contribute
        # exactly zero partial force) give the bits of one whole pass.
        scale = self._k / self.box.lengths  # d(scaled)/d(position) per axis
        flat_phi = phi.ravel()
        forces = np.zeros((n, 3), dtype=np.float64)
        for rows in _slab_blocks(lix, count, kx):
            own = owned[rows]
            lx = np.where(own, lix[rows], 0)
            w0, w1, w2 = w[0][rows], w[1][rows], w[2][rows]
            dw0, dw1, dw2 = dw[0][rows], dw[1][rows], dw[2][rows]

            # phi values at every stencil point; a flat-index ``take``
            # gathers the same elements as the tuple fancy index, faster
            lin = (
                (lx[:, :, None, None] * ky + idx[1][rows][:, None, :, None]) * kz
                + idx[2][rows][:, None, None, :]
            )
            vals = flat_phi.take(lin)

            # The weight cube q * w0 x w1 x w2 (and its three derivative
            # variants) is separable, so contract phi against one axis at
            # a time instead of materializing three dense (n, o, o, o)
            # cubes: z first, then y, then mask the non-owned x-planes
            # (they contribute exactly zero) and contract x.
            a_w = np.einsum("ijkl,il->ijk", vals, w2)
            a_d = np.einsum("ijkl,il->ijk", vals, dw2)
            b_ww = np.einsum("ijk,ik->ij", a_w, w1)
            b_dw = np.einsum("ijk,ik->ij", a_w, dw1)
            b_wd = np.einsum("ijk,ik->ij", a_d, w1)
            if count < kx:
                # the einsum outputs are fresh arrays, so zero the
                # non-owned planes in place (the +0.0 np.where would give)
                dead = ~own
                b_ww[dead] = 0.0
                b_dw[dead] = 0.0
                b_wd[dead] = 0.0

            q = charges[rows]
            forces[rows, 0] = -scale[0] * (q * np.einsum("ij,ij->i", b_ww, dw0))
            forces[rows, 1] = -scale[1] * (q * np.einsum("ij,ij->i", b_dw, w0))
            forces[rows, 2] = -scale[2] * (q * np.einsum("ij,ij->i", b_wd, w0))
        return forces


def _slab_blocks(lix: np.ndarray, count: int, kx: int) -> list:
    """The atoms whose stencil meets the ``count`` owned planes of ``kx``, in atom
    order, as blocks of at most :data:`MESH_BLOCK_ATOMS`.

    An order-o stencil touches o consecutive x-planes, so on a slab only
    the atoms with a local plane index ``< count`` contribute, which
    drops the per-rank cost from O(n) to O(n * (count + o) / Kx).  On the
    full mesh (``count == Kx``) every atom does, and the blocks are row
    slices rather than index arrays.
    """
    if count == kx:
        return [slice(b, b + MESH_BLOCK_ATOMS) for b in range(0, len(lix), MESH_BLOCK_ATOMS)]
    active = np.flatnonzero((lix < count).any(axis=1))
    return [active[b : b + MESH_BLOCK_ATOMS] for b in range(0, len(active), MESH_BLOCK_ATOMS)]
