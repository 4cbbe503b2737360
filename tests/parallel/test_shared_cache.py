"""The shared-compute cache is a pure wall-clock optimization.

Three guarantees, each load-bearing for the replicated-data dedup layer
(:mod:`repro.parallel.shared`):

1. energies and trajectories are *bit-identical* with the cache on or
   off (not merely close — every rank reads the one list's arrays);
2. every rank's virtual timeline is bit-identical on or off — the cache
   must change who performs a numpy computation, never what any rank
   charges;
3. it actually deduplicates: one real neighbour-list build per rebuild
   event regardless of the simulated rank count, proven by the
   process-wide :data:`~repro.instrument.counters.NEIGHBOR_BUILDS`
   counter.

Across runs, a campaign's ``TrajectorySession`` replays a trajectory's
recorded op streams instead of running it, sanitized and traced runs
included (``TestAuditsRideTheReplay``).  The campaign-level half, op-stream
replay included, is in ``tests/campaign/test_trajectory_session.py``.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import ClusterSpec, myrinet_gm, tcp_gigabit_ethernet
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.instrument.commstats import CommTrace
from repro.instrument.counters import (
    FORCE_EVALUATIONS,
    NEIGHBOR_BUILDS,
    OPSTREAM_RECORDED,
    OPSTREAM_REPLAYED,
)
from repro.md import CutoffScheme, MDSystem
from repro.parallel import MDRunConfig, RunOptions, SharedComputeCache, run_parallel_md
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
        """... and every rank holds the one list, whose builds are the run's."""
        system, pos = peptide_system
        lists = []

        class Spy(SharedComputeCache):
            def neighbor_pairs(self, nl, positions, generation):
                lists.append(nl)
                return super().neighbor_pairs(nl, positions, generation)

        shared = Spy()
        before = NEIGHBOR_BUILDS.snapshot()
        _run(system, pos, 4, shared)
        assert shared.n_real_builds >= 1
        assert len(lists) == 4 * CFG.n_steps and all(nl is lists[0] for nl in lists)
        assert lists[0].n_builds == shared.n_real_builds == NEIGHBOR_BUILDS.delta(before)
        # one rank maintains the list per step; the other 3 mirror it
        assert shared.n_mirrored == 3 * CFG.n_steps
        # one stencil evaluation per step, hit by the other 3 ranks
        assert shared.n_stencils == CFG.n_steps
        assert shared.n_stencil_hits == 3 * CFG.n_steps

    def test_a_cache_instance_serves_one_run(self, peptide_system):
        """Its generation-keyed entries would be the previous run's."""
        system, pos = peptide_system
        cache = SharedComputeCache()
        _run(system, pos, 2, cache)
        with pytest.raises(ValueError, match="serves one run"):
            _run(system, pos, 2, cache)


# ---------------------------------------------------------------------------
class TestAuditsRideTheReplay:
    """Sanitized and traced runs inside a session record and replay like
    plain ones: a trajectory's first platform records it, the second
    replays it, and both equal the ``shared_compute=False`` oracle, trace
    event for trace event."""

    P = 4

    @pytest.mark.parametrize("audit", ["sanitize", "trace"])
    def test_two_platforms_of_one_trajectory(self, peptide_system, audit):
        system, pos = peptide_system
        session = TrajectorySession()
        point = DesignPoint(config=FOCAL_POINT, n_ranks=self.P)
        marks = OPSTREAM_RECORDED.snapshot(), OPSTREAM_REPLAYED.snapshot()
        evaluations = FORCE_EVALUATIONS.snapshot()
        for network, seed in ((tcp_gigabit_ethernet, 2002), (myrinet_gm, 7)):
            spec = ClusterSpec(n_ranks=self.P, network=network(), seed=seed)
            traces = (CommTrace(), CommTrace()) if audit == "trace" else (None, None)
            got, want = (
                run_parallel_md(system, pos, spec, RunOptions.for_point(
                    point, config=CFG, shared_compute=shared, sanitize=audit == "sanitize",
                    trace=trace,
                ))
                for shared, trace in zip((session.cache(), False), traces)
            )
            assert np.array_equal(got.final_positions, want.final_positions)
            assert [asdict(e) for e in got.energies] == [asdict(e) for e in want.energies]
            assert [t.phases for t in got.timelines] == [t.phases for t in want.timelines]
            assert got.transfers == want.transfers
            if audit == "trace":
                assert traces[0].events and traces[0].events == traces[1].events
        # the session evaluated the trajectory's forces once, the oracle twice
        assert FORCE_EVALUATIONS.delta(evaluations) == 3 * self.P * CFG.n_steps
        assert OPSTREAM_RECORDED.delta(marks[0]) == OPSTREAM_REPLAYED.delta(marks[1]) == 1
        assert len(session.trajectories) == 1


class TestReadOnlyHandOuts:
    """What one rank shares with another must not be writable in place."""

    def test_pairs_and_stencil(self, peptide_system):
        """The list's partners, row starts and certificate distances, and
        the stencil."""
        system, pos = peptide_system
        seen = []

        class Spy(SharedComputeCache):
            def neighbor_pairs(self, nl, positions, generation):
                j, starts = super().neighbor_pairs(nl, positions, generation)
                assert j is nl.j and starts is nl.starts
                seen.extend((j, starts, nl.pair_ref_d))
                return j, starts

            def pme_stencil(self, mesh, positions, generation):
                stencil = super().pme_stencil(mesh, positions, generation)
                seen.extend(a for per_axis in stencil for a in per_axis)
                return stencil

        _run(system, pos, 2, Spy())
        assert len(seen) > 3 * CFG.n_steps
        assert not any(a.flags.writeable for a in seen)
