"""Serial smooth particle-mesh Ewald (Essmann et al., 1995).

:class:`PME` computes the reciprocal-space energy and forces; combined with
the direct-space kernel (:class:`repro.md.nonbonded.NonbondedKernel` in
``"ewald"`` mode), the self term and the exclusion correction
(:mod:`repro.pme.ewald`) it yields the full periodic electrostic energy.

The reciprocal sum on the mesh::

    E_rec = 1/2 sum_m  psi(m) |S(m)|^2
    psi(m) = C/(pi V) * exp(-pi^2 |mt|^2 / alpha^2) / |mt|^2 * B(m),  psi(0) = 0

where ``S = FFT(Q)`` of the spread charge mesh, ``mt`` is the signed
reciprocal vector ``(m1/Lx, m2/Ly, m3/Lz)`` and ``B`` the product of the
squared Euler spline moduli.  Forces come from the convolved potential
``phi = K * IFFT(psi * S).real`` interpolated with B-spline derivative
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..md.box import PeriodicBox
from ..md.units import COULOMB_CONSTANT
from .bspline import bspline_moduli
from .grid import ChargeMesh

__all__ = ["PME", "ReciprocalResult", "influence_function", "spectrum_energy"]


def influence_function(
    box: PeriodicBox, grid_shape: tuple[int, int, int], order: int, alpha: float
) -> np.ndarray:
    """The full PME influence function ``psi(m)`` on the mesh.

    Includes the Coulomb constant, the volume factor and the B-spline
    moduli; ``psi[0, 0, 0]`` is zero (tinfoil boundary conditions).

    The setup is pure in (box, mesh, order, alpha) and those are fixed for
    an NVT/NVE run, so the result is memoized and returned read-only —
    repeated system construction (campaign workers, tests) reuses it.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _influence_function_cached(box, tuple(int(k) for k in grid_shape), order, alpha)


@lru_cache(maxsize=8)
def _influence_function_cached(
    box: PeriodicBox, grid_shape: tuple[int, int, int], order: int, alpha: float
) -> np.ndarray:
    kx, ky, kz = grid_shape
    mx = np.fft.fftfreq(kx) * kx
    my = np.fft.fftfreq(ky) * ky
    mz = np.fft.fftfreq(kz) * kz
    gx = mx / box.lx
    gy = my / box.ly
    gz = mz / box.lz
    m2 = (
        gx[:, None, None] ** 2
        + gy[None, :, None] ** 2
        + gz[None, None, :] ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.exp(-(np.pi**2) * m2 / alpha**2) / m2
    f[0, 0, 0] = 0.0

    bx = bspline_moduli(kx, order)
    by = bspline_moduli(ky, order)
    bz = bspline_moduli(kz, order)
    b = bx[:, None, None] * by[None, :, None] * bz[None, None, :]

    psi = COULOMB_CONSTANT / (np.pi * box.volume) * f * b
    psi.setflags(write=False)
    return psi


def spectrum_energy(psi: np.ndarray, s: np.ndarray) -> float:
    """``E_rec = 1/2 sum psi |S|^2`` over a spectrum ``s`` (or a slab of it).

    The same operations in the same order as
    ``0.5 * np.sum(psi * np.abs(s) ** 2)``, so the same bits, with one
    real temporary instead of three.
    """
    t = np.abs(s)
    np.square(t, out=t)
    np.multiply(psi, t, out=t)
    return 0.5 * float(np.sum(t))


@dataclass(frozen=True)
class ReciprocalResult:
    """Energy (kcal/mol) and forces from one reciprocal-space evaluation."""

    energy: float
    forces: np.ndarray


class PME:
    """Reciprocal-space PME evaluator for a fixed box/mesh/alpha.

    Parameters
    ----------
    box:
        Periodic box (fixed; NVT/NVE only).
    grid_shape:
        FFT mesh ``(Kx, Ky, Kz)``.
    alpha:
        Ewald splitting parameter (1/A); see
        :func:`repro.pme.ewald.choose_alpha`.
    order:
        B-spline order (even), default 4.
    """

    def __init__(
        self,
        box: PeriodicBox,
        grid_shape: tuple[int, int, int],
        alpha: float,
        order: int = 4,
    ) -> None:
        self.box = box
        self.grid_shape = tuple(int(k) for k in grid_shape)
        self.alpha = float(alpha)
        self.order = int(order)
        self.mesh = ChargeMesh(box, self.grid_shape, order)
        self.psi = influence_function(box, self.grid_shape, order, alpha)
        self.total_points = int(np.prod(self.grid_shape))

    # ------------------------------------------------------------------
    def reciprocal(self, positions: np.ndarray, charges: np.ndarray) -> ReciprocalResult:
        """Reciprocal-space energy and forces for the given configuration.

        One complex mesh serves the step: the spread mesh is cast into it,
        transformed and convolved in place, and replaced by ``phi``.
        """
        # one B-spline stencil serves both the spread and the interpolation
        stencil = self.mesh.stencil(positions)
        mesh = self.mesh.spread(positions, charges, stencil=stencil).astype(np.complex128)
        np.fft.fftn(mesh, out=mesh)
        energy = spectrum_energy(self.psi, mesh)
        np.multiply(self.psi, mesh, out=mesh)
        phi = self.total_points * np.fft.ifftn(mesh, out=mesh).real
        mesh = None  # phi is the only mesh live from here on
        forces = self.mesh.interpolate_forces(positions, charges, phi, stencil=stencil)
        return ReciprocalResult(energy=energy, forces=forces)

    # ------------------------------------------------------------------
    def energy_from_spectrum(self, s: np.ndarray) -> float:
        """Energy from an already-computed charge-mesh spectrum ``S``.

        Used by the distributed implementation, where each rank holds a
        slab of the (transposed) spectrum and sums its share.
        """
        if s.shape != self.grid_shape:
            raise ValueError(f"spectrum shape {s.shape} != mesh {self.grid_shape}")
        return spectrum_energy(self.psi, s)
