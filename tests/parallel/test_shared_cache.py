"""The shared-compute cache is a pure wall-clock optimization.

Three guarantees, each load-bearing for the replicated-data dedup layer
(:mod:`repro.parallel.shared`):

1. energies and trajectories are *bit-identical* with the cache on or
   off (not merely close — adopted results are the builder's arrays);
2. every rank's virtual timeline is bit-identical on or off — the cache
   must change who performs a numpy computation, never what any rank
   charges;
3. it actually deduplicates: one real neighbour-list build per rebuild
   event regardless of the simulated rank count, proven by the
   process-wide :data:`~repro.instrument.counters.NEIGHBOR_BUILDS`
   counter.

A cache bound to a trajectory's force tables (what a campaign's
``TrajectorySession`` hands the runs of one trajectory that cannot replay
its op streams — here, sanitized runs) extends the same three guarantees
across runs; its one extra duty is to stay right under a *wrong* key:
a record is adopted only after a bit-for-bit comparison of coordinates
(``TestReplay``).  The campaign-level half, op-stream replay included,
is in ``tests/campaign/test_trajectory_session.py``.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import ClusterSpec, myrinet_gm, tcp_gigabit_ethernet
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.instrument.counters import (
    NEIGHBOR_BUILDS,
    TRAJECTORY_RECORDED,
    TRAJECTORY_REPLAYED,
)
from repro.md import CutoffScheme, MDSystem
from repro.parallel import PIII_1GHZ, MDRunConfig, RunOptions, SharedComputeCache, run_parallel_md
from repro.parallel.shared import TrajectorySession

CFG = MDRunConfig(n_steps=4, dt=0.0004)


def _run(system, pos, p, shared_compute, config=CFG, network=tcp_gigabit_ethernet, seed=2002,
         sanitize=False):
    spec = ClusterSpec(n_ranks=p, network=network(), seed=seed)
    options = RunOptions(config=config, shared_compute=shared_compute, sanitize=sanitize)
    return run_parallel_md(system, pos, spec, options)


class TestBitIdentity:
    @pytest.mark.parametrize("p", [2, 8])
    def test_energies_and_trajectory(self, peptide_system, p):
        system, pos = peptide_system
        on = _run(system, pos, p, True)
        off = _run(system, pos, p, False)
        assert np.array_equal(on.final_positions, off.final_positions)
        assert len(on.energies) == len(off.energies)
        for a, b in zip(on.energies, off.energies):
            assert asdict(a) == asdict(b)  # exact, field by field

    def test_virtual_timelines_p4(self, peptide_system):
        system, pos = peptide_system
        on = _run(system, pos, 4, True)
        off = _run(system, pos, 4, False)
        for t_on, t_off in zip(on.timelines, off.timelines):
            assert set(t_on.phases) == set(t_off.phases)
            for phase in t_on.phases:
                assert t_on.phase_totals(phase) == t_off.phase_totals(phase)
            assert t_on.total_seconds() == t_off.total_seconds()


class TestDeduplication:
    @pytest.fixture()
    def rebuild_every_step_system(self, peptide_system):
        """The peptide system with skin = 0: every step forces a rebuild."""
        system, pos = peptide_system
        fresh = MDSystem(
            system.topology,
            system.forcefield,
            system.box,
            CutoffScheme(r_cut=8.0, skin=0.0),
            electrostatics="pme",
            pme_grid=(16, 16, 16),
        )
        return fresh, pos

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_one_real_build_per_rebuild_event(self, rebuild_every_step_system, p):
        system, pos = rebuild_every_step_system
        before = NEIGHBOR_BUILDS.snapshot()
        _run(system, pos, p, True)
        # skin = 0 rebuilds at every one of the n_steps steps, but the
        # cache performs each build exactly once no matter how many ranks
        assert NEIGHBOR_BUILDS.delta(before) == CFG.n_steps

    def test_without_cache_builds_scale_with_ranks(self, rebuild_every_step_system):
        system, pos = rebuild_every_step_system
        p = 3
        before = NEIGHBOR_BUILDS.snapshot()
        _run(system, pos, p, False)
        assert NEIGHBOR_BUILDS.delta(before) == CFG.n_steps * p

    def test_cache_counters(self, peptide_system):
        system, pos = peptide_system
        shared = SharedComputeCache()
        _run(system, pos, 4, shared)
        assert shared.n_real_builds >= 1
        # one rank maintains the list per step; the other 3 mirror it
        assert shared.n_mirrored == 3 * CFG.n_steps
        # one stencil evaluation per step, hit by the other 3 ranks
        assert shared.n_stencils == CFG.n_steps
        assert shared.n_stencil_hits == 3 * CFG.n_steps


# ---------------------------------------------------------------------------
def _trajectory(system, p, config=CFG):
    """What a session hands the runs of one ``(config, p, system)``
    trajectory: each call is a fresh cache bound to the same record."""
    session = TrajectorySession("any-fingerprint")
    point = DesignPoint(config=FOCAL_POINT, n_ranks=p)

    def fresh_cache() -> SharedComputeCache:
        cache = session.cache_for(point, config, system, PIII_1GHZ)
        assert isinstance(cache, SharedComputeCache)
        return cache

    return fresh_cache


def _assert_same_run(got, want):
    assert np.array_equal(got.final_positions, want.final_positions)
    assert [asdict(e) for e in got.energies] == [asdict(e) for e in want.energies]
    for t_got, t_want in zip(got.timelines, want.timelines):
        assert t_got.phases == t_want.phases


class TestReplay:
    """Force tables serve the runs that replay no op stream: sanitized ones."""

    P = 4
    #: lookups per run and per site: one per rank per step
    LOOKUPS = P * CFG.n_steps

    def test_second_platform_replays_the_first(self, peptide_system):
        system, pos = peptide_system
        fresh_cache = _trajectory(system, self.P)
        recorded, replayed = TRAJECTORY_RECORDED.snapshot(), TRAJECTORY_REPLAYED.snapshot()
        first = _run(system, pos, self.P, fresh_cache(), sanitize=True)
        assert TRAJECTORY_RECORDED.delta(recorded) == 2 * self.LOOKUPS
        assert TRAJECTORY_REPLAYED.delta(replayed) == 0
        # another network, another noise seed: same forces, other timings
        second = _run(
            system, pos, self.P, fresh_cache(), network=myrinet_gm, seed=7, sanitize=True
        )
        assert TRAJECTORY_RECORDED.delta(recorded) == 2 * self.LOOKUPS
        assert TRAJECTORY_REPLAYED.delta(replayed) == 2 * self.LOOKUPS
        _assert_same_run(first, _run(system, pos, self.P, False))
        _assert_same_run(
            second, _run(system, pos, self.P, False, network=myrinet_gm, seed=7)
        )

    def test_poisoned_key_degrades_into_misses(self, peptide_system):
        """Two different trajectories forced onto one table set stay bit-exact.

        Generation 0 is the shared initial coordinates, where both
        trajectories have the same forces, so it alone may be adopted;
        from generation 1 on the coordinate check refuses every record.
        """
        system, pos = peptide_system
        fresh_cache = _trajectory(system, self.P)
        configs = [MDRunConfig(n_steps=4, dt=0.0004, velocity_seed=s) for s in (11, 12)]
        oracles = [_run(system, pos, self.P, False, config=c) for c in configs]
        assert not np.array_equal(oracles[0].final_positions, oracles[1].final_positions)
        for n_run, turn in enumerate((0, 1, 0, 1)):
            recorded, replayed = TRAJECTORY_RECORDED.snapshot(), TRAJECTORY_REPLAYED.snapshot()
            got = _run(system, pos, self.P, fresh_cache(), config=configs[turn], sanitize=True)
            _assert_same_run(got, oracles[turn])
            adopted = 2 * self.P if n_run else 0  # generation 0, both sites
            assert TRAJECTORY_REPLAYED.delta(replayed) == adopted
            assert TRAJECTORY_RECORDED.delta(recorded) == 2 * self.LOOKUPS - adopted

    def test_snapshot_off_by_one_ulp_is_a_miss(self, peptide_system):
        system, pos = peptide_system
        fresh_cache = _trajectory(system, self.P)
        want = _run(system, pos, self.P, fresh_cache(), sanitize=True)
        snapshot = fresh_cache()._trajectory.tables.snapshots
        snapshot[2, 5, 1] = np.nextafter(snapshot[2, 5, 1], np.inf)
        recorded, replayed = TRAJECTORY_RECORDED.snapshot(), TRAJECTORY_REPLAYED.snapshot()
        got = _run(system, pos, self.P, fresh_cache(), sanitize=True)
        _assert_same_run(got, want)
        # generation 2 was recomputed and re-recorded by every rank at both sites
        assert TRAJECTORY_RECORDED.delta(recorded) == 2 * self.P
        assert TRAJECTORY_REPLAYED.delta(replayed) == 2 * (self.LOOKUPS - self.P)
        two_steps = MDRunConfig(n_steps=2, dt=CFG.dt)
        assert np.array_equal(
            snapshot[2], _run(system, pos, self.P, False, config=two_steps).final_positions
        )

    def test_a_cache_instance_serves_one_run(self, peptide_system):
        """Its generation-keyed entries would be the previous run's."""
        system, pos = peptide_system
        cache = SharedComputeCache()
        _run(system, pos, 2, cache)
        with pytest.raises(ValueError, match="serves one run"):
            _run(system, pos, 2, cache)


class TestReadOnlyHandOuts:
    """What one rank adopts from another must not be writable in place."""

    def test_replayed_forces(self, peptide_system):
        system, pos = peptide_system
        cache = _trajectory(system, 1)()
        cache.bind_force_tables()
        tables = cache._tables
        # the admission arithmetic is the size of what gets allocated
        assert tables.nbytes(2, CFG.n_steps, 1, system.n_atoms) == (
            tables.forces.nbytes + tables.scalars.nbytes + tables.snapshots.nbytes
        )
        computed = (np.ones((system.n_atoms, 3)), (1.0, 2.0))
        forces, _ = cache.replay("pme", 0, 0, pos, lambda: computed)
        assert forces is computed[0]  # the recording run keeps its own array

        def never():
            raise AssertionError("a recorded generation must not recompute")

        forces, scalars = cache.replay("pme", 0, 0, pos.copy(), never)
        assert np.array_equal(forces, computed[0]) and scalars[:2] == [1.0, 2.0]
        assert not forces.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            forces += 1.0

    def test_pairs_stencil_and_statics(self, peptide_system):
        system, pos = peptide_system
        seen = []

        class Spy(SharedComputeCache):
            def neighbor_pairs(self, nl, positions, generation):
                seen.append(super().neighbor_pairs(nl, positions, generation))
                return seen[-1]

            def pme_stencil(self, mesh, positions, generation):
                stencil = super().pme_stencil(mesh, positions, generation)
                seen.extend(a for per_axis in stencil for a in per_axis)
                return stencil

            def pair_statics(self, base, factory):
                seen.extend(super().pair_statics(base, factory))
                return super().pair_statics(base, factory)

        _run(system, pos, 2, Spy())
        assert len(seen) > 3 * CFG.n_steps
        assert not any(a.flags.writeable for a in seen)
