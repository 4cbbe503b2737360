"""Slab-parallel particle-mesh Ewald (the paper's 'PME energy calculation').

Replicated-data scheme matching CHARMM's parallel PME:

1. every rank spreads *all* charges onto the x-planes it owns (no
   communication — coordinates are replicated);
2. distributed forward FFT (all-to-all personalized transpose);
3. influence-function multiply + partial reciprocal energy on the owned
   y-slab of the spectrum;
4. distributed inverse FFT back to x-slabs;
5. every rank interpolates the *partial* forces contributed by its
   planes — the B-spline stencil is separable in x, so the later global
   force reduction (classic phase) completes them.

The rank additionally handles its slice of the exclusion corrections and
its share of the (constant) self energy, so the reduced energies add up
to the serial values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.contract import ContractOp, ScheduleContract
from ..md.box import PeriodicBox
from ..mpi.endpoint import RankEndpoint
from ..mpi.middleware import Middleware
from ..pme.ewald import exclusion_correction, self_energy
from ..pme.grid import ChargeMesh
from ..pme.plans import PlanCache
from ..pme.pme import PME
from .costmodel import MachineCostModel
from .decomposition import AtomDecomposition
from .pfft import DistributedFFT
from .shared import SharedComputeCache

__all__ = ["ParallelPME", "ParallelPMEResult", "SCHEDULE_CONTRACT"]

#: The PME phase's promised communication: exactly the two distributed
#: FFT transposes (all-to-all personalized), nothing else — spreading and
#: interpolation stay local because coordinates are replicated.
SCHEDULE_CONTRACT = ScheduleContract(
    name="pme-phase",
    per_step=(
        ContractOp("alltoallv", note="forward-FFT transpose"),
        ContractOp("alltoallv", note="inverse-FFT transpose"),
    ),
)


@dataclass(frozen=True)
class ParallelPMEResult:
    """One rank's partial contribution from the PME phase."""

    reciprocal_energy: float  # partial; sums to the serial value over ranks
    self_energy: float  # this rank's share of the constant term
    exclusion_energy: float  # from this rank's exclusion slice
    forces: np.ndarray  # partial forces (full-size array)


class ParallelPME:
    """One rank's PME engine.

    Parameters
    ----------
    pme:
        The serial PME object (shared, read-only: box, mesh shape, psi).
    box:
        Periodic box.
    decomp:
        Atom decomposition (for the exclusion slice).
    exclusions:
        Full exclusion pair table (i < j rows).
    charges:
        All partial charges (replicated).
    n_ranks, rank:
        Job geometry.
    cost:
        Machine cost model.
    shared:
        Optional run-wide :class:`SharedComputeCache`; when given, the
        B-spline stencil and the once-per-run setup (total self energy)
        are computed by the first rank and reused by every other.
    """

    def __init__(
        self,
        pme: PME,
        box: PeriodicBox,
        decomp: AtomDecomposition,
        exclusions: np.ndarray,
        charges: np.ndarray,
        n_ranks: int,
        rank: int,
        cost: MachineCostModel,
        shared: SharedComputeCache | None = None,
    ) -> None:
        self.pme = pme
        self.box = box
        self.rank = rank
        self.n_ranks = n_ranks
        self.cost = cost
        self.charges = charges
        self.shared = shared
        # private work-array cache (never shared across ranks/threads)
        self.plans = PlanCache()
        self.fft = DistributedFFT(pme.grid_shape, n_ranks, rank, cost)
        # private mesh so per-rank workload counters do not interleave
        self.mesh = ChargeMesh(box, pme.grid_shape, pme.order)
        # exclusion slice: contiguous block of the (sorted) exclusion table
        bounds = np.linspace(0, len(exclusions), n_ranks + 1).astype(int)
        self.my_exclusions = exclusions[bounds[rank] : bounds[rank + 1]]
        if shared is not None:
            e_self_total = shared.once(
                "pme-self-energy", lambda: self_energy(charges, pme.alpha)
            )
        else:
            e_self_total = self_energy(charges, pme.alpha)
        self.self_energy_share = e_self_total / n_ranks
        # psi restricted to the y-slab this rank owns after the forward FFT
        y0, cy = self.fft.my_y_range
        self.psi_slab = pme.psi[:, y0 : y0 + cy, :]

    # ------------------------------------------------------------------
    def _stencil_for(self, positions: np.ndarray, generation: int | None):
        if self.shared is not None and generation is not None:
            return self.shared.pme_stencil(self.mesh, positions, generation)
        return self.mesh.stencil(positions)

    def reciprocal(
        self,
        ep: RankEndpoint,
        mw: Middleware,
        positions: np.ndarray,
        generation: int | None = None,
    ):
        """Generator: the full PME phase for one step; returns the result.

        ``generation`` is the step driver's positions generation counter;
        it keys the shared stencil, which is computed once per step and
        reused across the spread and interpolate directions of all ranks.
        """
        kx, ky, kz = self.pme.grid_shape
        x_range = self.fft.my_x_range
        stencil = self._stencil_for(positions, generation)

        # 1. spread all charges onto owned planes
        q_slab = self.mesh.spread(
            positions, self.charges, x_range=x_range, stencil=stencil
        )
        assert self.mesh.last_workload is not None
        yield from ep.compute(self.cost.spread(self.mesh.last_workload.scattered_points))

        # 2. forward distributed FFT; the complex cast reuses a plan-cache
        # buffer (whole-array assignment == astype, bit for bit)
        cplx = self.plans.complex_buffer("fft-in", q_slab.shape)
        cplx[...] = q_slab
        spectrum = yield from self.fft.forward(ep, mw, cplx)

        # 3. influence multiply and partial energy on the owned y-slab
        n_slab_points = spectrum.size
        yield from ep.compute(self.cost.grid_pass(2 * n_slab_points))
        energy = 0.5 * float(np.sum(self.psi_slab * np.abs(spectrum) ** 2))
        conv = np.multiply(
            self.psi_slab,
            spectrum,
            out=self.plans.complex_buffer("conv", spectrum.shape),
        )

        # 4. inverse distributed FFT
        phi_slab = yield from self.fft.inverse(ep, mw, conv)
        phi = self.pme.total_points * phi_slab.real

        # 5. partial force interpolation from owned planes, plus the
        # exclusion corrections of this rank's slice
        f_mesh = self.mesh.interpolate_forces(
            positions, self.charges, phi, x_range=x_range, stencil=stencil
        )
        assert self.mesh.last_workload is not None
        e_excl, f_excl = exclusion_correction(
            positions, self.charges, self.my_exclusions, self.box, self.pme.alpha
        )
        yield from ep.compute(self.cost.spread(self.mesh.last_workload.scattered_points))
        yield from ep.compute(self.cost.exclusions(len(self.my_exclusions)))

        return ParallelPMEResult(
            reciprocal_energy=energy,
            self_energy=self.self_energy_share,
            exclusion_energy=e_excl,
            forces=f_mesh + f_excl,
        )
