"""Cost-model calibration: fit machine constants to target serial times.

The paper's serial measurement (Figure 3, one processor, 10 steps) pins
two totals: the classic energy calculation (~3.4 s) and the PME energy
calculation (~2.8 s).  Given the measured operation counts of a workload,
:func:`calibrate` rescales a base :class:`MachineCostModel` so the model
reproduces those totals exactly — the procedure used to produce
:data:`repro.parallel.costmodel.PIII_1GHZ`, kept as code so recalibrating
against a different machine (or a rescaled workload) is one call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..md.system import MDSystem
from .costmodel import MachineCostModel, fft_units

__all__ = ["WorkloadCounts", "measure_counts", "calibrate"]

#: steps in the paper's measurement window; the run builds its pair list
#: once in it (at step 0), so a step carries a tenth of that build
WINDOW_STEPS = 10


@dataclass(frozen=True)
class WorkloadCounts:
    """Per-step operation counts of a workload (serial execution)."""

    pairs_in_cutoff: int
    bonded_terms: int
    exclusions: int
    n_atoms: int
    spread_points: int  # spreading + interpolation stencil points per step
    fft_unit_count: float  # forward + inverse butterfly units per step
    grid_points: int  # pointwise mesh passes per step
    list_candidates: int = 0  # candidates of the window's one pair-list build

    def classic_seconds(self, m: MachineCostModel) -> float:
        return (
            m.classic_pairs(self.pairs_in_cutoff)
            + m.bonded(self.bonded_terms)
            + m.integrate(self.n_atoms)
            + m.neighbor_build(self.list_candidates) / WINDOW_STEPS
        )

    def pme_seconds(self, m: MachineCostModel) -> float:
        return (
            m.spread(self.spread_points)
            + m.fft(self.fft_unit_count)
            + m.grid_pass(self.grid_points)
            + m.exclusions(self.exclusions)
        )


def measure_counts(system: MDSystem, positions: np.ndarray) -> WorkloadCounts:
    """Run one serial energy evaluation and collect its operation counts.

    The list build it triggers (or last made) supplies ``list_candidates``.
    """
    system.classic_energy_forces(positions)
    n_pairs = system.nonbonded.last_pair_count

    if system.uses_pme:
        kx, ky, kz = system.pme.grid_shape
        order = system.pme.order
        spread_points = 2 * system.n_atoms * order**3
        units = 2 * fft_units((ky * kz, kx), (kx * kz, ky), (kx * ky, kz))
        grid_points = 2 * kx * ky * kz
    else:
        spread_points = 0
        units = 0.0
        grid_points = 0

    return WorkloadCounts(
        pairs_in_cutoff=n_pairs,
        bonded_terms=system.bonded_tables.n_terms,
        exclusions=len(system.exclusions),
        n_atoms=system.n_atoms,
        spread_points=spread_points,
        fft_unit_count=units,
        grid_points=grid_points,
        list_candidates=system.neighbor_list.last_candidates,
    )


def calibrate(
    counts: WorkloadCounts,
    classic_target: float,
    pme_target: float,
    base: MachineCostModel | None = None,
) -> MachineCostModel:
    """Rescale a cost model so the workload hits the target step times.

    Parameters
    ----------
    counts:
        Operation counts per step (:func:`measure_counts`).
    classic_target, pme_target:
        Target seconds *per step* for the classic and PME components.
    base:
        Model providing the relative weights within each component;
        defaults to :class:`MachineCostModel`'s reference values.

    Returns a new :class:`MachineCostModel`; the classic-side constants
    (pair, bonded, integrate, neighbour-candidate) are scaled by one
    factor and the PME-side constants (spread, fft, grid, exclusion) by
    another, preserving the base model's internal ratios.
    """
    if classic_target <= 0 or pme_target <= 0:
        raise ValueError("targets must be positive")
    base = base or MachineCostModel()

    classic_now = counts.classic_seconds(base)
    pme_now = counts.pme_seconds(base)
    if classic_now <= 0 or pme_now <= 0:
        raise ValueError("workload counts produce zero model time")

    k_classic = classic_target / classic_now
    k_pme = pme_target / pme_now
    return replace(
        base,
        pair_cost=base.pair_cost * k_classic,
        pair_candidate_cost=base.pair_candidate_cost * k_classic,
        bonded_cost=base.bonded_cost * k_classic,
        integrate_cost=base.integrate_cost * k_classic,
        spread_cost=base.spread_cost * k_pme,
        fft_cost=base.fft_cost * k_pme,
        grid_cost=base.grid_cost * k_pme,
        exclusion_cost=base.exclusion_cost * k_pme,
    )
