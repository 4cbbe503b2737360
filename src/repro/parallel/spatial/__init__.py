"""Spatial domain decomposition with halo exchange.

A second answer to the paper's title question: instead of replicating
every coordinate and paying the all-to-all combine, assign each rank a
cell of the periodic box and communicate only with grid neighbours —
ghost coordinates in before the force evaluation, migrating atoms out
after the integration.  Physics stays bit-identical to the replicated
path (the engine replays its accumulation and fold orders exactly);
only the communication schedule changes shape.
"""

from __future__ import annotations

from ...instrument.timeline import register_phase
from .decomposition import SpatialDecomposition, grid_for, halo_pulses
from .engine import (
    SpatialEngine,
    SpatialLedger,
    SpatialMigrationError,
    SpatialOutcome,
    binomial_fold,
)
from .program import spatial_rank_program

# the spatial step introduces two new timeline phases
register_phase("halo")
register_phase("migrate")

__all__ = [
    "SpatialDecomposition",
    "SpatialEngine",
    "SpatialLedger",
    "SpatialMigrationError",
    "SpatialOutcome",
    "binomial_fold",
    "grid_for",
    "halo_pulses",
    "spatial_rank_program",
]
