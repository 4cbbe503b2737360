"""Shared computation across simulated replicated-data ranks.

The paper's decomposition replicates coordinates: every rank holds the
*same* positions and rebuilds the *same* neighbour list, the *same*
B-spline stencil and the *same* per-axis PME setup.  On real hardware
that redundancy is the price of the replicated-data design; in this
simulator it is pure wall-clock waste — p ranks re-derive bit-identical
results from bit-identical inputs.

:class:`SharedComputeCache` deduplicates that work per *run* while
leaving virtual time untouched:

* one real :meth:`~repro.md.neighborlist.NeighborList.build` per rebuild
  event — mirror ranks adopt the builder's pair list, reference positions
  and candidate count, so every rank still charges its own
  ``cost.neighbor_build`` virtual seconds and keeps its own
  rebuild-decision state;
* one B-spline stencil evaluation per step, reused across the spread and
  interpolate directions and across every rank;
* per-run once-only setup (LJ parameter tables, Ewald self energy)
  computed by the first rank and shared read-only.

Entries are keyed by a cheap *positions generation counter* — the rank's
step index.  Coordinates only change at the step-end allgather, and the
simulator's collectives guarantee no rank enters generation ``g + 1``
before every rank has finished computing with generation ``g``, so a
single-generation cache is sufficient and race-free.

**Why this cannot perturb the measured virtual timelines:** cost-model
seconds are charged from *counters* (candidate pairs, scattered stencil
points, term counts), never from wall-clock.  The cache changes who
performs a numpy computation, not what any rank observes: adopted
results are bit-identical to locally computed ones, so every charged
counter — and therefore every virtual timeline — is bit-identical with
the cache on or off.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..md.neighborlist import NeighborList

__all__ = ["SharedComputeCache"]


@dataclass
class _NeighborOutcome:
    """The shared outcome of one generation's neighbour-list maintenance."""

    generation: int
    rebuilt: bool
    pairs: np.ndarray
    ref_positions: np.ndarray | None
    candidates: int
    #: prefilter replay state (see NeighborList.step_prefilter)
    ref_d: np.ndarray | None
    max_disp: float


@dataclass
class SharedComputeCache:
    """Per-run deduplication of replicated-data computations.

    One instance is created per :func:`repro.parallel.run.run_parallel_md`
    call (and per campaign design point) and handed to every rank
    program.  All methods are synchronous — ranks interleave only at the
    simulator's yield points, so no locking is needed.
    """

    #: real neighbour-list builds performed through this cache
    n_real_builds: int = 0
    #: neighbour maintenance calls answered from the cache
    n_mirrored: int = 0
    #: B-spline stencil evaluations performed through this cache
    n_stencils: int = 0
    #: stencil requests answered from the cache
    n_stencil_hits: int = 0

    _neighbors: _NeighborOutcome | None = field(default=None, repr=False)
    _stencil_key: tuple | None = field(default=None, repr=False)
    _stencil: tuple | None = field(default=None, repr=False)
    _once: dict[Any, Any] = field(default_factory=dict, repr=False)
    _statics_ref: weakref.ref | None = field(default=None, repr=False)
    _statics: tuple | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def neighbor_pairs(
        self, nl: NeighborList, positions: np.ndarray, generation: int
    ) -> np.ndarray:
        """Neighbour-list maintenance for one rank at one generation.

        The first rank to reach ``generation`` takes the rebuild decision
        and (when due) performs the one real build; every later rank
        adopts the identical outcome.  ``nl.last_ensure_rebuilt`` and
        ``nl.last_candidates`` are left exactly as a private
        :meth:`~repro.md.neighborlist.NeighborList.ensure` call would,
        so the step driver's cost charging is unchanged.
        """
        cached = self._neighbors
        if cached is not None and cached.generation == generation:
            self.n_mirrored += 1
            # checked_positions is this rank's own array: its coordinates
            # are bit-identical to the builder's, so the builder's
            # ref_d/max_disp bound holds for it verbatim
            nl.adopt(
                cached.pairs,
                cached.ref_positions,
                cached.candidates,
                cached.rebuilt,
                ref_d=cached.ref_d,
                max_disp=cached.max_disp,
                checked_positions=positions,
            )
            return cached.pairs

        rebuilt = nl.needs_rebuild(positions)
        if rebuilt:
            nl.build(positions)
            self.n_real_builds += 1
        nl.last_ensure_rebuilt = rebuilt
        self._neighbors = _NeighborOutcome(
            generation=generation,
            rebuilt=rebuilt,
            pairs=nl.pairs,
            ref_positions=nl._ref_positions,
            candidates=nl.last_candidates,
            ref_d=nl.pair_ref_d,
            max_disp=nl.last_max_disp,
        )
        return nl.pairs

    # ------------------------------------------------------------------
    def pme_stencil(self, mesh, positions: np.ndarray, generation: int):
        """One B-spline stencil per generation, shared across ranks *and*
        across the spread/interpolate directions of each rank's step."""
        key = (generation, mesh.grid_shape, mesh.order)
        if self._stencil_key == key:
            self.n_stencil_hits += 1
            return self._stencil
        self._stencil = mesh.stencil(positions)
        self._stencil_key = key
        self.n_stencils += 1
        return self._stencil

    # ------------------------------------------------------------------
    def pair_statics(
        self, base: np.ndarray, factory: Callable[[np.ndarray], tuple]
    ) -> tuple:
        """Per-pair static coefficients for one pair-list base array.

        Every replicated rank holds the same base array (via
        :meth:`neighbor_pairs`) and identical parameter tables, so
        ``factory(base)`` is computed once per rebuild and replayed to
        every rank kernel — bit-identical to a private evaluation.
        Identity of ``base`` is the key (held by weakref): a rebuild
        allocates a new array and naturally invalidates.
        """
        cached = self._statics_ref() if self._statics_ref is not None else None
        if cached is not base:
            self._statics = factory(base)
            self._statics_ref = weakref.ref(base)
        return self._statics

    # ------------------------------------------------------------------
    def once(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Compute ``factory()`` for the first caller of ``key``; replay it
        for every later one (per-run immutable setup: LJ tables, Ewald
        self energy, ...)."""
        if key not in self._once:
            self._once[key] = factory()
        return self._once[key]
