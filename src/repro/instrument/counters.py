"""Process-wide work counters for cache-effectiveness assertions.

The campaign store promises that warm-cache figure regeneration does
*zero* MD work.  That promise is only testable if the MD layer counts
its own work: :data:`FORCE_EVALUATIONS` increments on every non-bonded
kernel evaluation (the irreducible unit of MD force work — every serial
or parallel energy step performs at least one).  Tests snapshot the
counter, run a driver, and assert the delta.

These are named :class:`~repro.instrument.metrics.Counter` views into
the default :data:`~repro.instrument.metrics.REGISTRY`
(``md.force_evaluations``, ``md.neighbor_builds``, ...), so campaign
manifests pick them up automatically.
"""

from __future__ import annotations

from .metrics import REGISTRY

__all__ = [
    "FORCE_EVALUATIONS",
    "NEIGHBOR_BUILDS",
    "PAIRLIST_BUILDS",
    "OWNERSHIP_EPOCHS",
    "FRESH_ATOMS",
    "OPSTREAM_RECORDED",
    "OPSTREAM_REPLAYED",
]

#: Incremented once per non-bonded kernel evaluation (see
#: :meth:`repro.md.nonbonded.NonbondedKernel.compute`).
FORCE_EVALUATIONS = REGISTRY.counter("md.force_evaluations")

#: Incremented once per *real* neighbour-list construction (see
#: :meth:`repro.md.neighborlist.NeighborList.build`).  The shared-compute
#: layer (:mod:`repro.parallel.shared`) promises one real build per rebuild
#: event regardless of the simulated rank count; tests assert the delta.
NEIGHBOR_BUILDS = REGISTRY.counter("md.neighbor_builds")

#: Incremented once per rank-local pair-list build of the spatial engine
#: (see :meth:`repro.parallel.spatial.engine.SpatialEngine._step_pairs`):
#: one per rank per rebuild, not one per rank per step — tests assert the
#: exact count, so a return to per-step searching fails without a stopwatch.
PAIRLIST_BUILDS = REGISTRY.counter("spatial.pairlist_builds")

#: Incremented once per ownership epoch of a spatial rank (see
#: :meth:`repro.parallel.spatial.engine.SpatialEngine._ownership`): one per
#: rank at its first step, then one per step whose owned set a migration
#: changed — tests assert the exact count, so a return to per-step
#: rebuilding of the slot map and bonded rows fails without a stopwatch.
OWNERSHIP_EPOCHS = REGISTRY.counter("spatial.ownership_epochs")

#: Atoms the spatial engine's fresh-atom rule paired by a dense test, summed
#: over ranks and steps: atoms that entered a rank's halo, or migrated in,
#: after the rank's list was built.
FRESH_ATOMS = REGISTRY.counter("spatial.fresh_atoms")

#: Trajectories whose op streams a campaign session recorded, and runs it
#: replayed from one (see :mod:`repro.parallel.shared`): 8 and 40 over the
#: paper's 48-point factorial, under either strategy, sanitized or not.
#: Both stay zero for a bare ``run_parallel_md`` and for ``verify``.  The
#: bytes of the session's recordings are the gauge ``exec.opstream_bytes``.
OPSTREAM_RECORDED = REGISTRY.counter("exec.opstream_recorded")
OPSTREAM_REPLAYED = REGISTRY.counter("exec.opstream_replayed")
