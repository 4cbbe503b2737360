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

**Across the runs of one trajectory.**  Only *time* is simulated: what
a rank issues — compute charges from counters, message sizes, tags and
their order — depends on the workload, the rank count, the middleware
and its parameters, the run configuration and the cost model; never on
the network, the node width or the platform noise seed, which act only
*below* the op (eager/rendezvous, node mapping, ``compute_scale``, NIC
and interrupt state, the noise draws).  A campaign's
:class:`TrajectorySession` keys each run on exactly those inputs.  The
first live run of a trajectory records every rank's op stream
(:class:`~repro.mpi.endpoint.OpStreamRecorder`) with the run's energies
and final positions; every later run of it replays the streams through
the same executor (:func:`~repro.mpi.endpoint.replay_program`) on its
own platform — no rank program, no physics, no payload — and reports the
recorded energies and positions.  The argument above is the soundness
proof: the replayed run issues the live run's ops, so its events,
transfers and timelines are the ones its platform implies for them.  A
replay is additionally checked against the recorded run's identity and
initial coordinates, so a wrong key degrades into a live run, never into
a wrong record.

Runs that sanitize or record a :class:`~repro.instrument.commstats.CommTrace`
audit real payloads and the live program, so they always run live; for
them :meth:`SharedComputeCache.replay` records the two terminal results
of a step (the classic phase's forces, energies and counters; the PME
phase's interpolated + exclusion forces) in force tables the first time
and hands them back to the trajectory's later live runs, each hit checked
against the recorded coordinates of its generation.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..instrument.counters import (
    OPSTREAM_RECORDED,
    OPSTREAM_REPLAYED,
    TRAJECTORY_RECORDED,
    TRAJECTORY_REPLAYED,
)
from ..instrument.metrics import REGISTRY
from ..md.neighborlist import NeighborList
from ..mpi.endpoint import OpStream, OpStreamRecorder

__all__ = [
    "SharedComputeCache", "TrajectorySession", "TRAJECTORY_TABLE_BYTES", "middleware_identity",
    "trajectory_groups", "trajectory_id",
]

#: Most bytes one :class:`TrajectorySession` holds — recorded runs, their
#: interned entries and the force tables of runs that cannot replay them;
#: past it, later trajectories record nothing (no eviction, no option).
#: Sized for force tables: the paper's myoglobin-PME factorial (8
#: trajectories x 10 steps x 3552 atoms) needs 58.0 MB of them when every
#: run is sanitized.  Its recorded runs take 1.5 MB (mostly initial and
#: final coordinates), the peptide-tiny factorial's 0.2 MB.
TRAJECTORY_TABLE_BYTES = 64 * 2**20

#: replay sites -> row of the tables' leading axis
_SITES = {"classic": 0, "pme": 1}
#: scalar columns per record: six energies + n_pairs + n_terms (classic)
_N_SCALARS = 8


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` (or a view of it) that raises on in-place writes."""
    array.flags.writeable = False
    return array


class _TrajectoryTables:
    """The records of one trajectory, preallocated before its first step.

    A few large blocks handing out views, not one small object per
    record: ~900 long-lived tuples and (70, 3) arrays pinned the heap's
    high-water mark at +5.5 MB on the 48-point peptide campaign for
    1.6 MB of payload; these tables cost +1.2 MB (+1.1 %).
    """

    def __init__(self, n_sites: int, n_steps: int, n_ranks: int, n_atoms: int) -> None:
        self.forces = np.empty((n_sites, n_steps, n_ranks, n_atoms, 3))
        self.scalars = np.empty((n_sites, n_steps, n_ranks, _N_SCALARS))
        self.have = np.zeros((n_sites, n_steps, n_ranks), dtype=bool)
        #: the coordinates each generation's records were computed from
        self.snapshots = np.empty((n_steps, n_atoms, 3))
        self.have_snapshot = np.zeros(n_steps, dtype=bool)

    @staticmethod
    def nbytes(n_sites: int, n_steps: int, n_ranks: int, n_atoms: int) -> int:
        """Bytes of the float tables of that shape (the masks are noise)."""
        return 8 * n_steps * (n_sites * n_ranks * (3 * n_atoms + _N_SCALARS) + 3 * n_atoms)


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


class _Trajectory:
    """A session's record of one trajectory: its recorded run once there
    is one, and the force tables of its runs that cannot replay it."""

    def __init__(self, session: "TrajectorySession", identity: tuple, shape: tuple) -> None:
        self.session = session
        #: ``(n_ranks, run config, cost model, middleware identity)``
        self.identity = identity
        #: force-table shape ``(sites, n_steps, n_ranks, n_atoms)``
        self.shape = shape
        self.recorded: _RecordedRun | None = None
        #: False once a recording could not be kept
        self.recordable = True
        self.tables: _TrajectoryTables | None = None

    def force_tables(self) -> _TrajectoryTables | None:
        """The force tables, allocated on first use while the session
        budget admits them."""
        if self.tables is None and self.session.admit(_TrajectoryTables.nbytes(*self.shape)):
            self.tables = _TrajectoryTables(*self.shape)
        return self.tables


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
    """Deduplication of replicated-data computations.

    One instance serves the ranks of one run: a bare
    :func:`repro.parallel.run.run_parallel_md` call creates its own, and
    a campaign's :class:`TrajectorySession` hands each run (as
    ``RunOptions.shared_compute``) a fresh one bound to the session's
    record of the run's trajectory — the rank-to-rank state below dies
    with the run, only the recorded run and the force tables outlive it.
    All methods are synchronous — ranks interleave only at the
    simulator's yield points, so no locking is needed.  Every array
    handed to more than one consumer is read-only.
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
    #: the session's record of this run's trajectory; None outside a
    #: campaign session
    _trajectory: _Trajectory | None = field(default=None, repr=False)
    #: the trajectory's force tables, once this run uses them
    _tables: _TrajectoryTables | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def _trajectory_of(self, identity: tuple) -> _Trajectory | None:
        """The session's record of this run's trajectory, if the run (of
        this ``identity``) is that trajectory."""
        trajectory = self._trajectory
        if trajectory is None or trajectory.identity != identity:
            return None
        return trajectory

    def recorded_run(self, identity: tuple, positions0: np.ndarray) -> _RecordedRun | None:
        """The recorded first run of this run's trajectory, if there is one
        and it started from the same coordinates."""
        trajectory = self._trajectory_of(identity)
        recorded = trajectory.recorded if trajectory is not None else None
        if recorded is None or not np.array_equal(positions0, recorded.positions0):
            return None
        OPSTREAM_REPLAYED.increment()
        return recorded

    def recorders(self, identity: tuple, n_ranks: int) -> list[OpStreamRecorder] | None:
        """One op-stream recorder per rank when this run is to record its
        trajectory (the session has no recording of it yet), else None."""
        trajectory = self._trajectory_of(identity)
        if trajectory is None or trajectory.recorded is not None or not trajectory.recordable:
            return None
        return [OpStreamRecorder(trajectory.session.intern) for _ in range(n_ranks)]

    def commit(
        self,
        positions0: np.ndarray,
        recorders: list[OpStreamRecorder],
        energies: list,
        final_positions: np.ndarray,
    ) -> None:
        """Keep a finished run's recording for its trajectory's later runs."""
        trajectory = self._trajectory
        recorded = _RecordedRun(
            positions0=_read_only(positions0.copy()),
            streams=tuple(r.stream() for r in recorders),
            energies=tuple(energies),
            final_positions=_read_only(final_positions.copy()),
        )
        if all(r.replayable for r in recorders) and trajectory.session.admit(recorded.nbytes):
            trajectory.recorded = recorded
            OPSTREAM_RECORDED.increment()
        else:
            trajectory.recordable = False

    def bind_force_tables(self) -> None:
        """Let :meth:`replay` use the trajectory's force tables (a live run
        that neither replays nor records an op stream)."""
        if self._trajectory is not None:
            self._tables = self._trajectory.force_tables()

    # ------------------------------------------------------------------
    def replay(
        self,
        site: str,
        rank: int,
        generation: int | None,
        positions: np.ndarray,
        compute: Callable[[], tuple[np.ndarray, tuple]],
    ) -> tuple[np.ndarray, tuple | list]:
        """``compute()``'s ``(forces, scalars)`` for one rank at one
        generation — computed, or adopted from an earlier run of the same
        trajectory.

        A record is adopted only when ``positions`` equals, bit for bit,
        the coordinates it was computed from; otherwise the generation's
        records are dropped and this call computes and re-records.  A
        cache without tables (any run outside a session), or a caller
        without a generation counter, just computes.
        """
        tables = self._tables
        if tables is None or generation is None:
            return compute()
        s = _SITES[site]
        current = tables.have_snapshot[generation] and np.array_equal(
            positions, tables.snapshots[generation]
        )
        if current and tables.have[s, generation, rank]:
            TRAJECTORY_REPLAYED.increment(site=site)
            return (
                _read_only(tables.forces[s, generation, rank]),
                tables.scalars[s, generation, rank].tolist(),
            )
        forces, scalars = compute()
        if not current:
            tables.snapshots[generation] = positions
            tables.have_snapshot[generation] = True
            tables.have[:, generation] = False
        tables.forces[s, generation, rank] = forces
        tables.scalars[s, generation, rank, : len(scalars)] = scalars
        tables.have[s, generation, rank] = True
        TRAJECTORY_RECORDED.increment(site=site)
        return forces, scalars

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
            pairs=_read_only(nl.pairs),
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
        for per_axis in self._stencil:
            for array in per_axis:
                _read_only(array)
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
            self._statics = tuple(_read_only(a) for a in factory(base))
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
    """One pass's record of its trajectories, keyed on stable fields only.

    Owned by whoever loops over design points in one process — the inline
    dispatch of ``CampaignEngine.run`` (or, pooled, the child running one
    trajectory group), ``work_campaign`` and a ``CharacterizationRunner``
    — and dropped with it.  :meth:`cache_for`
    answers what a point's ``RunOptions.shared_compute`` should be: a
    cache bound to the session's record of the point's trajectory while
    the session holds less than :data:`TRAJECTORY_TABLE_BYTES`, else
    plain ``True`` (a cache bound to nothing).
    """

    def __init__(self, workload_fingerprint: str) -> None:
        self.workload_fingerprint = workload_fingerprint
        #: trajectory key -> the session's record of it
        self.trajectories: dict[tuple, _Trajectory] = {}
        #: bytes of recordings, interned entries and force tables held
        self.table_bytes = 0
        self._interned: dict = {}

    def cache_for(self, point, config, system, cost) -> "SharedComputeCache | bool":
        """The ``shared_compute`` value for one run of ``point`` under
        ``config`` and the cost model ``cost``.

        The key is everything a rank's op stream depends on: the
        workload, the strategy, the rank count, the middleware's class and
        parameters, the whole run configuration and the cost model.
        """
        strategy = getattr(point, "strategy", "replicated")
        if strategy != "replicated":
            return True
        from .run import make_middleware  # run.py imports this module

        identity = (
            point.n_ranks, config, cost,
            middleware_identity(make_middleware(point.config.middleware)),
        )
        key = (self.workload_fingerprint, strategy, identity)
        trajectory = self.trajectories.get(key)
        if trajectory is None:
            if self.table_bytes >= TRAJECTORY_TABLE_BYTES:
                return True
            shape = (1 + system.uses_pme, config.n_steps, point.n_ranks, system.n_atoms)
            trajectory = self.trajectories[key] = _Trajectory(self, identity, shape)
        return SharedComputeCache(_trajectory=trajectory)

    def intern(self, value):
        """The session's canonical object equal to ``value`` (see
        :class:`~repro.mpi.endpoint.OpStreamRecorder`)."""
        found = self._interned.get(value)
        if found is None:
            found = self._interned[value] = value
            self.table_bytes += sys.getsizeof(value)
        return found

    def admit(self, nbytes: int) -> bool:
        """Count ``nbytes`` more against the budget, if they fit."""
        if self.table_bytes + nbytes > TRAJECTORY_TABLE_BYTES:
            return False
        self.table_bytes += nbytes
        REGISTRY.gauge("exec.trajectory_table_bytes").set(self.table_bytes)
        return True
