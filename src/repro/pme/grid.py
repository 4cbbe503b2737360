"""Charge spreading onto the PME mesh and force interpolation off it.

Both directions support restriction to a contiguous (wrapping) range of
x-planes.  That is exactly what the slab-parallel PME needs: with
replicated coordinates every rank can spread the *portion of the mesh it
owns* with no communication, and after the inverse FFT it can compute the
*partial* forces contributed by its planes — partial forces are summed by
the same force reduction that the classic energy part already performs
(the B-spline stencil is separable in x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.box import PeriodicBox
from .bspline import bspline_weights
from .plans import PlanCache

__all__ = ["ChargeMesh", "SpreadWorkload"]


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
        # private work-array cache (never shared across ranks/threads)
        self.plans = PlanCache()
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
        # scratch from the plan cache; the ufunc chain with ``out=`` is the
        # exact rewrite of ``wrap(p) / lengths * k`` (same order, same bits)
        wrapped = self.box.wrap(positions)
        scaled = self.plans.buffer("stencil-scaled", wrapped.shape)
        np.divide(wrapped, self.box.lengths, out=scaled)
        np.multiply(scaled, self._k, out=scaled)
        k0 = np.floor(scaled).astype(np.int64)
        frac = np.subtract(
            scaled, k0, out=self.plans.buffer("stencil-frac", scaled.shape)
        )
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
        o = self.order
        n = len(positions)

        lix = (idx[0] - start) % kx  # local x-plane index, (n, o)
        mask_x = lix < count

        # An order-o stencil touches o consecutive x-planes, so only atoms
        # whose stencil intersects the owned slab contribute; restricting
        # the dense (n, o, o, o) intermediates to those atoms drops the
        # per-rank cost from O(n) to O(n * (count + o) / Kx).  Dropped
        # atoms have no unmasked points, so the bincount input sequence —
        # and therefore the grid, bit for bit — is unchanged.
        w0, w1, w2 = w[0], w[1], w[2]
        i1, i2 = idx[1], idx[2]
        q = charges
        if count < kx:
            active = mask_x.any(axis=1)
            lix, mask_x = lix[active], mask_x[active]
            w0, w1, w2 = w0[active], w1[active], w2[active]
            i1, i2 = i1[active], i2[active]
            q = charges[active]

        # combined weights (n_active, o, o, o), built up one separable
        # axis at a time (n*o then n*o^2 element products instead of
        # three full n*o^3 broadcasts), and linear local indices
        wgt = ((q[:, None] * w0)[:, :, None] * w1[:, None, :])[
            :, :, :, None
        ] * w2[:, None, None, :]
        lin = (
            (lix[:, :, None, None] * ky + i1[:, None, :, None]) * kz
            + i2[:, None, None, :]
        )
        if count < kx:
            # same elements and order as boolean indexing, via the faster
            # flatnonzero/take compression
            mask = np.broadcast_to(mask_x[:, :, None, None], lin.shape)
            keep = np.flatnonzero(mask.ravel())
            flat_idx = lin.ravel().take(keep)
            flat_wgt = wgt.ravel().take(keep)
        else:
            # full mesh: every stencil point is owned, no compression pass
            flat_idx = lin.ravel()
            flat_wgt = wgt.ravel()
        grid = np.bincount(flat_idx, weights=flat_wgt, minlength=count * ky * kz)
        self.last_workload = SpreadWorkload(
            n_atoms=n, stencil_points=n * o**3, scattered_points=len(flat_idx)
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

        # Same atom restriction as :meth:`spread`: atoms with no owned
        # stencil plane contribute exactly zero partial force, so the
        # dense intermediates only need the atoms intersecting the slab.
        w0, w1, w2 = w[0], w[1], w[2]
        dw0, dw1, dw2 = dw[0], dw[1], dw[2]
        i1, i2 = idx[1], idx[2]
        q_all = charges
        scatter = None
        if count < kx:
            scatter = owned.any(axis=1)
            lix, owned = lix[scatter], owned[scatter]
            w0, w1, w2 = w0[scatter], w1[scatter], w2[scatter]
            dw0, dw1, dw2 = dw0[scatter], dw1[scatter], dw2[scatter]
            i1, i2 = i1[scatter], i2[scatter]
            q_all = charges[scatter]

        lix_safe = np.where(owned, lix, 0)

        # phi values at every stencil point; a flat-index ``take`` gathers
        # the same elements as the tuple fancy index, substantially faster
        lin = (
            (lix_safe[:, :, None, None] * ky + i1[:, None, :, None]) * kz
            + i2[:, None, None, :]
        )
        vals = phi.ravel().take(lin)

        # The weight cube q * w0 x w1 x w2 (and its three derivative
        # variants) is separable, so contract phi against one axis at a
        # time instead of materializing three dense (n, o, o, o) cubes:
        # z first, then y, then mask the non-owned x-planes (they
        # contribute exactly zero) and contract x.
        a_w = np.einsum("ijkl,il->ijk", vals, w2)
        a_d = np.einsum("ijkl,il->ijk", vals, dw2)
        b_ww = np.einsum("ijk,ik->ij", a_w, w1)
        b_dw = np.einsum("ijk,ik->ij", a_w, dw1)
        b_wd = np.einsum("ijk,ik->ij", a_d, w1)
        if count < kx:
            # the einsum outputs are fresh arrays, so zero the non-owned
            # planes in place (same +0.0 values np.where would produce)
            dead = ~owned
            b_ww[dead] = 0.0
            b_dw[dead] = 0.0
            b_wd[dead] = 0.0

        scale = self._k / self.box.lengths  # d(scaled)/d(position) per axis
        partial = np.empty((len(q_all), 3), dtype=np.float64)
        partial[:, 0] = -scale[0] * (q_all * np.einsum("ij,ij->i", b_ww, dw0))
        partial[:, 1] = -scale[1] * (q_all * np.einsum("ij,ij->i", b_dw, w0))
        partial[:, 2] = -scale[2] * (q_all * np.einsum("ij,ij->i", b_wd, w0))
        if scatter is None:
            return partial
        forces = np.zeros((n, 3), dtype=np.float64)
        forces[scatter] = partial
        return forces
