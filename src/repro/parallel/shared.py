"""Shared computation across simulated ranks and across the runs of a trajectory.

The paper's decomposition replicates coordinates: every rank holds the
*same* positions and rebuilds the *same* neighbour list, the *same*
B-spline stencil and the *same* per-axis PME setup.  On real hardware
that redundancy is the price of the replicated-data design; in this
simulator it is pure wall-clock waste — p ranks re-derive bit-identical
results from bit-identical inputs.

:class:`SharedComputeCache` deduplicates that work per *run* while
leaving virtual time untouched:

* one :class:`~repro.md.neighborlist.NeighborList` per run, and one
  rebuild decision (and, when due, one real build) per generation —
  every rank holds that list and reads its decision, candidate count
  and certificate, so every rank still charges its own
  ``cost.neighbor_build`` virtual seconds;
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
performs a numpy computation, not what any rank observes: shared
results are bit-identical to locally computed ones, so every charged
counter — and therefore every virtual timeline — is bit-identical with
the cache on or off.

**Across the runs of one trajectory.**  Only *time* is simulated: what
a rank issues — compute charges from counters, message sizes, tags and
their order — depends on the workload, the decomposition (strategy, rank
count and, for the spatial strategy, its rank grid), the middleware and
its parameters, the run configuration and the cost model; never on the
network, the node width or the platform noise seed, which act only
*below* the op (eager/rendezvous, node mapping, ``compute_scale``, NIC
and interrupt state, the noise draws).  A campaign's
:class:`TrajectorySession` keys each trajectory on exactly those inputs,
for both strategies.  The first live run of a trajectory records every
rank's op stream (:class:`~repro.mpi.endpoint.OpStreamRecorder`) with
the run's energies and final positions; every later run of it replays
the streams through the same executor
(:func:`~repro.mpi.endpoint.replay_program`) on its own platform — no
rank program, no physics, no payload — and reports the recorded
energies and positions.  The argument above is the soundness proof: the
replayed run issues the live run's ops, so its events, transfers and
timelines are the ones its platform implies for them.  The driver
(:func:`~repro.parallel.run.run_parallel_md`) computes the key from the
run itself, so no caller can hand a run another trajectory's recording;
a replay is additionally checked against the recorded initial
coordinates.

A sanitized run, or one that records a
:class:`~repro.instrument.commstats.CommTrace`, records and replays like
any other: the sanitizer and the trace observe the world's matching
engine, transfer planner and op executor, which a replay drives exactly
as the live run did.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..instrument.counters import OPSTREAM_RECORDED, OPSTREAM_REPLAYED
from ..instrument.metrics import REGISTRY
from ..md.neighborlist import NeighborList
from ..mpi.endpoint import OpStream, OpStreamRecorder

__all__ = [
    "OPSTREAM_BYTES_BUDGET", "SharedComputeCache", "TrajectorySession", "middleware_identity",
    "trajectory_groups", "trajectory_id",
]

#: Most bytes of recorded op streams one :class:`TrajectorySession` holds —
#: the streams, their interned entries and each recording's initial and
#: final coordinates; past it, later trajectories record nothing (no
#: eviction, no option).  A 10-step factorial's recordings take 0.2 MB on
#: peptide-tiny, 1.5 MB on myoglobin-PME (mostly the coordinates) and
#: 0.7 MB on the spatial water box.
OPSTREAM_BYTES_BUDGET = 16 * 2**20


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` (or a view of it) that raises on in-place writes."""
    array.flags.writeable = False
    return array


def middleware_identity(mw) -> tuple:
    """What a middleware contributes to a run's op stream: its class and
    its public data attributes (``CMPIMiddleware.call_overhead``, ...)."""
    cls = type(mw)
    attrs: dict[str, Any] = {}
    for klass in reversed(cls.__mro__):
        attrs.update(vars(klass))
    attrs.update(vars(mw))
    params = sorted(
        (name, value) for name, value in attrs.items()
        if not name.startswith("_") and not callable(value)
    )
    return cls.__module__, cls.__qualname__, tuple(params)


@dataclass(frozen=True)
class _RecordedRun:
    """A trajectory's first live run, in the form its later runs replay."""

    positions0: np.ndarray
    streams: tuple[OpStream, ...]
    energies: tuple
    final_positions: np.ndarray

    def outcome(self, _outcomes) -> tuple[list, np.ndarray]:
        """The run's ``(energies, final positions)``, a fresh copy per replay."""
        return list(self.energies), self.final_positions.copy()

    @property
    def nbytes(self) -> int:
        """Bytes held beyond the session's interned entries."""
        streams = sum(
            sys.getsizeof(s.entries) + s.seconds.itemsize * len(s.seconds) for s in self.streams
        )
        return streams + self.positions0.nbytes + self.final_positions.nbytes


@dataclass
class SharedComputeCache:
    """Deduplication of replicated-data computations.

    One instance serves the ranks of one run: a bare
    :func:`repro.parallel.run.run_parallel_md` call creates its own, and
    a campaign's :class:`TrajectorySession` hands each run (as
    ``RunOptions.shared_compute``) a fresh one bound to the session —
    the rank-to-rank state below dies with the run, only the session's
    recordings outlive it.  All methods are synchronous — ranks
    interleave only at the simulator's yield points, so no locking is
    needed.  Every array handed to more than one consumer is read-only.
    """

    #: real neighbour-list builds performed through this cache
    n_real_builds: int = 0
    #: neighbour maintenance calls answered from the cache
    n_mirrored: int = 0
    #: B-spline stencil evaluations performed through this cache
    n_stencils: int = 0
    #: stencil requests answered from the cache
    n_stencil_hits: int = 0
    #: the campaign session whose trajectories this run records or
    #: replays; None outside a session
    session: "TrajectorySession | None" = field(default=None, repr=False)

    _neighbor_generation: int | None = field(default=None, repr=False)
    _stencil_key: tuple | None = field(default=None, repr=False)
    _stencil: tuple | None = field(default=None, repr=False)
    _once: dict[Any, Any] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def neighbor_pairs(
        self, nl: NeighborList, positions: np.ndarray, generation: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour-list maintenance for one rank at one generation.

        Every rank of the run holds the one list ``nl``.  The first rank
        to reach ``generation`` takes the rebuild decision
        (:meth:`~repro.md.neighborlist.NeighborList.ensure`, with the one
        real build when due); every later rank finds it taken.  All of
        them then read the same ``nl.last_ensure_rebuilt``,
        ``nl.last_candidates`` and
        :meth:`~repro.md.neighborlist.NeighborList.step_prefilter`
        certificate — what a private list would show them, since their
        coordinates are bit-identical — so the step driver's cost
        charging is unchanged.
        """
        if generation == self._neighbor_generation:
            self.n_mirrored += 1
        else:
            self._neighbor_generation = generation
            nl.ensure(positions)
            if nl.last_ensure_rebuilt:
                # every rank reads these arrays: none may write them
                self.n_real_builds += 1
                _read_only(nl.starts)
                _read_only(nl.j)
                _read_only(nl.pair_ref_d)
        return nl.j, nl.starts

    # ------------------------------------------------------------------
    def pme_stencil(self, mesh, positions: np.ndarray, generation: int):
        """One B-spline stencil per generation, shared across ranks *and*
        across the spread/interpolate directions of each rank's step."""
        key = (generation, mesh.grid_shape, mesh.order)
        if self._stencil_key == key:
            self.n_stencil_hits += 1
            return self._stencil
        self._stencil = mesh.stencil(positions)
        for per_axis in self._stencil:
            for array in per_axis:
                _read_only(array)
        self._stencil_key = key
        self.n_stencils += 1
        return self._stencil

    # ------------------------------------------------------------------
    def once(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Compute ``factory()`` for the first caller of ``key``; replay it
        for every later one (per-run immutable setup: LJ tables, Ewald
        self energy, ...)."""
        if key not in self._once:
            self._once[key] = factory()
        return self._once[key]


def trajectory_id(point) -> str:
    """The trajectory a design point runs, as campaigns schedule it.

    Within one campaign the workload, run configuration and cost model
    are fixed, so the points one :class:`TrajectorySession` records once
    and replays on every other platform variant (network, CPUs per node,
    replicate) are those sharing ``(strategy, p, middleware)``.  A
    campaign leases and pools a trajectory's points as one unit of work.
    """
    strategy = getattr(point, "strategy", "replicated")
    return f"{strategy}/p{point.n_ranks}/{point.config.middleware}"


def trajectory_groups(items, point=lambda item: item) -> dict[str, list]:
    """``items`` grouped by the :func:`trajectory_id` of ``point(item)``.

    Largest ``p`` first (the longest units of work start first), then in
    order of first appearance; items keep their order within a group.
    """
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(trajectory_id(point(item)), []).append(item)
    return dict(sorted(groups.items(), key=lambda group: -point(group[1][0]).n_ranks))


class TrajectorySession:
    """One pass's recordings of its trajectories, keyed on stable fields only.

    Owned by whoever loops over design points of one workload in one
    process — the inline dispatch of ``CampaignEngine.run`` (or, pooled,
    the child running one trajectory group), ``work_campaign`` and a
    ``CharacterizationRunner`` — and dropped with it.  :meth:`cache` is
    what a run's ``RunOptions.shared_compute`` should be; the run driver
    then asks the session for a recording of the run's trajectory, and
    the first live run of a trajectory records one while the session
    holds less than :data:`OPSTREAM_BYTES_BUDGET`.

    A trajectory's key is everything a rank's op stream depends on: the
    workload's system (the object itself, which the session keeps
    alive), the strategy and its rank grid, the rank count, the
    middleware's class and parameters (:func:`middleware_identity`), the
    whole run configuration and the cost model.  Within one campaign the
    workload, configuration and cost model are fixed, so the keys
    partition the points exactly as :func:`trajectory_id` groups them.
    """

    def __init__(self) -> None:
        #: trajectory key -> its recorded first run; None once a
        #: recording of it could not be kept
        self.trajectories: dict[tuple, _RecordedRun | None] = {}
        #: bytes of recordings and interned entries held
        self.opstream_bytes = 0
        self._interned: dict = {}

    def cache(self) -> SharedComputeCache:
        """The ``shared_compute`` value for one run: a fresh cache bound
        to this session."""
        return SharedComputeCache(session=self)

    def recorded_run(self, key: tuple, positions0: np.ndarray) -> _RecordedRun | None:
        """The recorded first run of trajectory ``key``, if there is one and
        it started from the same coordinates."""
        recorded = self.trajectories.get(key)
        if recorded is None or not np.array_equal(positions0, recorded.positions0):
            return None
        OPSTREAM_REPLAYED.increment()
        return recorded

    def recorders(self, key: tuple, n_ranks: int) -> list[OpStreamRecorder] | None:
        """One op-stream recorder per rank when a run of trajectory ``key``
        is to record it (the session has not tried yet and has room), else
        None."""
        if key in self.trajectories or self.opstream_bytes >= OPSTREAM_BYTES_BUDGET:
            return None
        return [OpStreamRecorder(self.intern) for _ in range(n_ranks)]

    def commit(
        self,
        key: tuple,
        positions0: np.ndarray,
        recorders: list[OpStreamRecorder],
        energies: list,
        final_positions: np.ndarray,
    ) -> None:
        """Keep a finished run's recording for its trajectory's later runs."""
        recorded = _RecordedRun(
            positions0=_read_only(positions0.copy()),
            streams=tuple(r.stream() for r in recorders),
            energies=tuple(energies),
            final_positions=_read_only(final_positions.copy()),
        )
        keep = all(r.replayable for r in recorders) and self.admit(recorded.nbytes)
        self.trajectories[key] = recorded if keep else None
        if keep:
            OPSTREAM_RECORDED.increment()

    def intern(self, value):
        """The session's canonical object equal to ``value`` (see
        :class:`~repro.mpi.endpoint.OpStreamRecorder`)."""
        found = self._interned.get(value)
        if found is None:
            found = self._interned[value] = value
            self.opstream_bytes += sys.getsizeof(value)
        return found

    def admit(self, nbytes: int) -> bool:
        """Count ``nbytes`` more against the budget, if they fit."""
        if self.opstream_bytes + nbytes > OPSTREAM_BYTES_BUDGET:
            return False
        self.opstream_bytes += nbytes
        REGISTRY.gauge("exec.opstream_bytes").set(self.opstream_bytes)
        return True
