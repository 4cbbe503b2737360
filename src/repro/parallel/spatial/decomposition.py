"""Spatial domain decomposition: cells of the periodic box over a rank grid.

The second answer to the paper's title question.  Replicated-data CHARMM
keeps every coordinate everywhere and pays for it with all-to-all
combines; a spatial decomposition assigns each rank a rectangular cell
of the box, so a step only needs *neighbour* traffic: ghost coordinates
within the cutoff flow inward before the force evaluation (halo
exchange) and atoms that crossed a cell face migrate outward after the
integration.  Per-rank message counts are then independent of p — the
communication shape the all-to-all schedule can never reach.

This module is pure geometry: the rank grid, cell ownership, halo
depths, and the declared :class:`~repro.analysis.contract.ScheduleContract`.
The physics replay lives in :mod:`repro.parallel.spatial.engine`, the
communication skeleton in :mod:`repro.parallel.spatial.program`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...analysis.contract import ContractOp, ScheduleContract
from ...md.box import PeriodicBox
from ..decomposition import Decomposition

__all__ = ["SpatialDecomposition", "grid_for", "halo_pulses"]


def _prime_factors_desc(n: int) -> list[int]:
    """Prime factors of ``n`` in descending order (largest first)."""
    factors: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return sorted(factors, reverse=True)


def grid_for(box: PeriodicBox, n_ranks: int) -> tuple[int, int, int]:
    """Greedy rank grid: repeatedly split the dimension with the widest region.

    Prime factors of ``n_ranks`` are assigned largest-first to the
    dimension whose current region width ``L_d / g_d`` is largest (ties
    go to the lowest dimension index), which keeps regions as cubic as
    the box allows — the shape that minimizes halo surface per volume.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    grid = [1, 1, 1]
    lengths = [float(v) for v in box.lengths]
    for prime in _prime_factors_desc(n_ranks):
        dim = max(range(3), key=lambda d: (lengths[d] / grid[d], -d))
        grid[dim] *= prime
    return (grid[0], grid[1], grid[2])


def halo_pulses(box: PeriodicBox, grid: tuple[int, int, int], r_cut: float) -> tuple[int, int, int]:
    """Systolic pulse count per dimension so ghost coverage reaches ``r_cut``.

    Each pulse imports coordinates one region further away, so a
    dimension needs ``ceil(r_cut / region_width)`` pulses — more than one
    when the cutoff exceeds a region width.  The count is capped at
    ``G_d - 1`` (beyond that a pulse would re-import the rank's own
    atoms); the cap never loses coverage because ``r_cut <= L/2`` and
    ``(G_d - 1) * width = L - width >= L/2`` for any split dimension.
    A dimension of grid size 1 spans the whole box — minimum-image
    arithmetic covers its periodicity with no messages at all.
    """
    pulses = []
    for d in range(3):
        g = int(grid[d])
        if g == 1:
            pulses.append(0)
            continue
        width = float(box.lengths[d]) / g
        pulses.append(min(int(math.ceil(r_cut / width)), g - 1))
    return (pulses[0], pulses[1], pulses[2])


@dataclass(frozen=True)
class SpatialDecomposition(Decomposition):
    """Cell-grid partition of the periodic box over a rank grid.

    Ranks are laid out row-major over ``grid = (gx, gy, gz)``:
    ``rank = cx * gy * gz + cy * gz + cz``.  An atom belongs to the cell
    containing its wrapped coordinate; an atom exactly on a cell
    boundary belongs to the upper cell (``floor`` of the scaled
    coordinate), deterministically on every rank.
    """

    box: PeriodicBox
    n_ranks: int
    r_cut: float
    grid: tuple[int, int, int]

    def __post_init__(self) -> None:
        gx, gy, gz = self.grid
        if gx < 1 or gy < 1 or gz < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {self.grid}")
        if gx * gy * gz != self.n_ranks:
            raise ValueError(
                f"grid {self.grid} has {gx * gy * gz} cells for {self.n_ranks} ranks"
            )
        if self.r_cut <= 0:
            raise ValueError("r_cut must be positive")
        self.box.check_cutoff(self.r_cut)

    @classmethod
    def for_cluster(
        cls,
        box: PeriodicBox,
        n_ranks: int,
        r_cut: float,
        grid: tuple[int, int, int] | None = None,
    ) -> "SpatialDecomposition":
        """The standard construction: greedy grid unless one is forced."""
        if grid is None:
            grid = grid_for(box, n_ranks)
        return cls(box=box, n_ranks=n_ranks, r_cut=r_cut, grid=tuple(int(g) for g in grid))

    # -- geometry ------------------------------------------------------
    @property
    def pulses(self) -> tuple[int, int, int]:
        """Halo pulses per dimension (0 where the grid dimension is 1)."""
        return halo_pulses(self.box, self.grid, self.r_cut)

    def rank_coords(self, rank: int) -> tuple[int, int, int]:
        gx, gy, gz = self.grid
        return (rank // (gy * gz), (rank // gz) % gy, rank % gz)

    def region(self, rank: int, dim: int) -> tuple[float, float]:
        """The ``[lo, hi)`` interval of ``rank``'s cell along ``dim``."""
        c = self.rank_coords(rank)[dim]
        width_num = float(self.box.lengths[dim])
        g = self.grid[dim]
        return (c * width_num / g, (c + 1) * width_num / g)

    def cell_coords(self, positions: np.ndarray) -> np.ndarray:
        """Integer cell coordinates, shape (n, 3); boundary atoms go up."""
        wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
        lengths = self.box.lengths
        grid = np.asarray(self.grid, dtype=np.int64)
        cells = np.floor(wrapped / lengths * grid).astype(np.int64)
        return np.clip(cells, 0, grid - 1)

    def owners(self, positions: np.ndarray) -> np.ndarray:
        """Owning rank of every position, shape (n,)."""
        gx, gy, gz = self.grid
        c = self.cell_coords(positions)
        return c[:, 0] * (gy * gz) + c[:, 1] * gz + c[:, 2]

    # -- contract ------------------------------------------------------
    def schedule_contract(self) -> ScheduleContract:
        """The neighbour-only halo/migration schedule of one MD step.

        Per split dimension: ``pulses`` paired exchanges toward each
        side before the force evaluation, then one paired exchange per
        side for atom migration after the integration.  No all-to-all
        anywhere — per-rank message counts depend on the grid's split
        dimensions and halo depths, never on p itself.
        """
        ops: list[ContractOp] = [
            ContractOp("barrier", when="barrier", note="per-step synchronization")
        ]
        pulses = self.pulses
        for dim in range(3):
            if self.grid[dim] > 1:
                for k in range(pulses[dim]):
                    ops.append(
                        ContractOp("exchange", note=f"halo dim {dim} pulse {k} down")
                    )
                    ops.append(
                        ContractOp("exchange", note=f"halo dim {dim} pulse {k} up")
                    )
        for dim in range(3):
            if self.grid[dim] > 1:
                ops.append(ContractOp("exchange", note=f"migrate dim {dim} down"))
                ops.append(ContractOp("exchange", note=f"migrate dim {dim} up"))
        return ScheduleContract(
            name="spatial-halo-step",
            per_step=tuple(ops),
            flags=("barrier",),
        )
