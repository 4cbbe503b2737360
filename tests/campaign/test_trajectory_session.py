"""A campaign computes each (p, middleware) trajectory once.

Only time is simulated, so the 48 points of the factorial are 8 distinct
trajectories, each visited by six platform variants.  The inline engine,
``work_campaign`` and ``CharacterizationRunner`` hold a
:class:`~repro.parallel.shared.TrajectorySession`: a trajectory's first
run records its op streams and the other five replay them.  These tests
hold every run to the oracle (``shared_compute=False``: no cache of any
kind) record for record, timeline for timeline and transfer for
transfer, under both strategies, sanitized and traced runs included;
check that a pooled campaign's child runs its trajectory group through
a session of its own, and that ``verify`` re-runs never see a session.
"""

from __future__ import annotations

import dataclasses
import json
from functools import lru_cache

import pytest

from repro.campaign import ResultStore, publish_campaign, verify_stores_match, work_campaign
from repro.campaign import engine as engine_mod
from repro.campaign.engine import execute_built
from repro.campaign.keys import point_seed
from repro.campaign.runner import CharacterizationRunner
from repro.campaign.store import record_digest
from repro.campaign.workloads import build_workload
from repro.cmpi import CMPIMiddleware
from repro.core.design import full_factorial
from repro.core.responses import ResponseRecord
from repro.instrument.commstats import CommTrace
from repro.instrument.counters import FORCE_EVALUATIONS
from repro.instrument.metrics import REGISTRY
from repro.instrument.runlog import read_runlog
from repro.instrument.tracing import SpanTracer
from repro.md import MDSystem
from repro.parallel import PIII_1GHZ, MDRunConfig, RunOptions, run_parallel_md
from repro.parallel import shared as shared_mod
from repro.parallel.shared import TrajectorySession

from .conftest import TINY_CONFIG, oracle_store, run_point, tiny_engine

POINTS = full_factorial()
N_STEPS = TINY_CONFIG.n_steps
#: rank-steps of the 8 trajectories: p in {1, 2, 4, 8} under both middlewares
TRAJECTORY_RANK_STEPS = 2 * (1 + 2 + 4 + 8) * N_STEPS
COUNTERS = ("opstream_recorded", "opstream_replayed")


def _force_evaluations(metrics: dict) -> int:
    """``md.force_evaluations`` in a metrics delta or a manifest's metrics."""
    return metrics["counters"].get("md.force_evaluations", {}).get("total", 0)


def _counts(since: dict) -> dict[str, int]:
    """Totals of the session counters (``exec.<name>``) since a snapshot."""
    counters = REGISTRY.delta(since)["counters"]
    return {name: counters.get(f"exec.{name}", {}).get("total", 0) for name in COUNTERS}


NOTHING = dict.fromkeys(COUNTERS, 0)
#: a plain factorial: one recording per trajectory, five replays of it
OPS_1_TO_5 = {**NOTHING, "opstream_recorded": 8, "opstream_replayed": 40}


@pytest.fixture(scope="module")
def peptide_tiny():
    return build_workload("peptide-tiny")


@lru_cache(maxsize=None)
def _oracle(sanitize: bool) -> ResultStore:
    """The factorial's oracle store (computed once per setting)."""
    return oracle_store(tiny_engine(sanitize=sanitize), POINTS, sanitize)


both_sanitize_settings = pytest.mark.parametrize(
    "sanitize", [False, True], ids=["plain", "sanitize"]
)


def _assert_same_run(got, want, label=""):
    assert [dataclasses.asdict(e) for e in got.energies] == [
        dataclasses.asdict(e) for e in want.energies
    ], label
    assert (got.final_positions == want.final_positions).all(), label
    assert len(got.timelines) == len(want.timelines), label
    for t_got, t_want in zip(got.timelines, want.timelines):
        assert t_got.phases == t_want.phases, label
    assert got.transfers == want.transfers, label


class TestSessionEqualsOracle:
    @both_sanitize_settings
    def test_inline_engine(self, sanitize):
        expected = _oracle(sanitize)
        engine = tiny_engine(sanitize=sanitize)
        result = engine.run(POINTS)
        assert result.ok
        assert verify_stores_match(engine.store, expected) == []
        for point, record in zip(POINTS, result.records):
            assert record == expected.get(engine.key_for(point))

    @both_sanitize_settings
    def test_work_campaign(self, sanitize, tmp_path):
        expected = _oracle(sanitize)
        board = tmp_path / "board.json"
        publish_campaign(tiny_engine(sanitize=sanitize), POINTS, board)
        store = ResultStore(tmp_path / "worker")
        before = REGISTRY.snapshot()
        stats = work_campaign(board, store, "w0")
        assert stats["executed"] == len(POINTS) and stats["failed"] == 0
        assert verify_stores_match(store, expected) == []
        for entry in expected.entries():
            assert store.get(entry.key) == entry.record
        counts = _counts(before)
        # sanitized or not: one live run per trajectory, five replays of it
        assert counts == OPS_1_TO_5
        assert _force_evaluations(REGISTRY.delta(before)) == TRAJECTORY_RANK_STEPS
        # ... and says so wherever a worker's metrics already go
        dumped = json.loads((store.root / "metrics-w0.json").read_text())["counters"]
        for name, total in counts.items():
            assert dumped.get(f"exec.{name}", {}).get("total", 0) == total
        done = list(read_runlog(store.root / "logs" / "worker-w0.jsonl"))[-1]
        assert done["event"] == "worker_done"
        assert {name: done[name] for name in COUNTERS} == counts

    @both_sanitize_settings
    def test_pooled_engine(self, sanitize):
        """Pooled dispatch runs one task per trajectory group, in a child
        holding a session: the same 8 recordings and 40 replays as inline,
        sanitized or not, the same store."""
        expected = _oracle(sanitize)
        engine = tiny_engine(sanitize=sanitize, n_workers=2)
        result = engine.run(POINTS)
        assert result.ok
        assert {p.status for p in result.manifest.points} == {"ran"}
        assert verify_stores_match(engine.store, expected) == []
        counters = result.manifest.metrics["counters"]
        counts = {name: counters.get(f"exec.{name}", {}).get("total", 0) for name in COUNTERS}
        assert counts == OPS_1_TO_5
        assert _force_evaluations(result.manifest.metrics) == TRAJECTORY_RANK_STEPS
        if not sanitize:
            inline = tiny_engine()
            assert inline.run(POINTS).ok
            digests = {e.key: record_digest(e.record) for e in inline.store.entries()}
            assert {e.key: record_digest(e.record) for e in engine.store.entries()} == digests

    def test_runner_measure(self, peptide_tiny):
        expected = _oracle(False)
        system, positions = peptide_tiny
        runner = CharacterizationRunner(
            system, positions, config=TINY_CONFIG, store=ResultStore(None)
        )
        before = REGISTRY.snapshot()
        records = runner.measure(POINTS)
        for point, record in zip(POINTS, records):
            assert record == expected.get(runner.point_key(point))
        assert _counts(before) == OPS_1_TO_5

    @both_sanitize_settings
    def test_timelines_and_comm_trace(self, sanitize, peptide_tiny):
        """Per-rank virtual timelines and the full event stream, per point:
        a CommTrace sees a replayed run's events as the live run's."""
        system, positions = peptide_tiny
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        seen = set()
        for point in POINTS:
            got_trace, want_trace = CommTrace(), CommTrace()
            mark = FORCE_EVALUATIONS.snapshot()
            got = run_point(
                system, positions, point, TINY_CONFIG, sanitize=sanitize, trace=got_trace,
                shared_compute=session.cache(),
            )
            trajectory = (point.n_ranks, point.config.middleware)
            recorded = trajectory not in seen
            seen.add(trajectory)
            assert FORCE_EVALUATIONS.delta(mark) == recorded * point.n_ranks * N_STEPS, (
                point.label()
            )
            want = run_point(
                system, positions, point, TINY_CONFIG, sanitize=sanitize, trace=want_trace,
                shared_compute=False,
            )
            assert got_trace.events == want_trace.events, point.label()
            assert len(got.timelines) == point.n_ranks
            _assert_same_run(got, want, point.label())
        assert _counts(before) == OPS_1_TO_5
        assert len(session.trajectories) == 8


class TestReplayEqualsOracle:
    """Replayed runs against the oracle on the paper's measurement window
    and on the rendezvous path."""

    def _check_factorial(self, system, positions, points, config):
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        for point in points:
            got = run_point(
                system, positions, point, config,
                shared_compute=session.cache(),
            )
            want = run_point(system, positions, point, config, shared_compute=False)
            _assert_same_run(got, want, point.label())
        return _counts(before)

    def test_factorial_at_ten_steps(self, peptide_tiny):
        counts = self._check_factorial(*peptide_tiny, POINTS, MDRunConfig(n_steps=10))
        assert counts == OPS_1_TO_5

    def _check_myoglobin(self, n_ranks):
        system, positions = build_workload("myoglobin-pme")
        points = [p for p in POINTS if p.n_ranks == n_ranks]
        trace = CommTrace()
        run_point(system, positions, points[-1], MDRunConfig(n_steps=2), trace=trace,
                  shared_compute=False)
        assert any(e.rendezvous for e in trace.by_kind("send"))
        counts = self._check_factorial(system, positions, points, MDRunConfig(n_steps=2))
        assert counts == {**NOTHING, "opstream_recorded": 2, "opstream_replayed": 10}

    def test_rendezvous_path(self, peptide_tiny):
        """Below a lowered eager threshold, replayed rendezvous sends block
        like live ones: the myoglobin legs' path at peptide-tiny cost."""
        system, positions = peptide_tiny
        config = MDRunConfig(n_steps=2)
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        rendezvous = 0
        for point in (p for p in POINTS if p.n_ranks == 8):
            spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(2002, point))
            # the force blocks (1,024 and 1,752 B) go rendezvous, the rest eager
            network = dataclasses.replace(spec.network, eager_threshold=512)
            spec = dataclasses.replace(spec, network=network)
            options = RunOptions.for_point(point, config=config)
            trace = CommTrace()
            got = run_parallel_md(
                system, positions, spec,
                options.replace(shared_compute=session.cache(), trace=trace),
            )
            want = run_parallel_md(system, positions, spec, options.replace(shared_compute=False))
            _assert_same_run(got, want, point.label())
            rendezvous += sum(e.rendezvous for e in trace.by_kind("send"))
        assert rendezvous > 0
        assert _counts(before) == {**NOTHING, "opstream_recorded": 2, "opstream_replayed": 10}

    @pytest.mark.nightly
    def test_myoglobin_rendezvous_path(self):
        """The myoglobin-PME force vector exceeds the eager threshold on
        some platforms: replayed rendezvous sends block like live ones
        (nightly; tier-1 keeps the peptide-tiny leg)."""
        self._check_myoglobin(8)

    @pytest.mark.nightly
    def test_myoglobin_rendezvous_path_p2(self):
        """The same at p = 2 (nightly)."""
        self._check_myoglobin(2)

    def test_span_tracer_sees_the_live_spans(self, peptide_tiny):
        system, positions = peptide_tiny
        variants = [p for p in POINTS if p.n_ranks == 4 and p.config.middleware == "cmpi"]
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        for point in variants:
            got, want = SpanTracer(), SpanTracer()
            run_point(
                system, positions, point, TINY_CONFIG, span_tracer=got,
                shared_compute=session.cache(),
            )
            run_point(system, positions, point, TINY_CONFIG, span_tracer=want,
                      shared_compute=False)
            assert got.spans and got.spans == want.spans, point.label()
        assert _counts(before)["opstream_replayed"] == len(variants) - 1


#: the factorial under the spatial strategy (the water box: classic path only)
SPATIAL_POINTS = [dataclasses.replace(p, strategy="spatial") for p in POINTS]


@lru_cache(maxsize=None)
def _spatial_oracle() -> dict:
    """Every spatial factorial point of the water box, run with no cache
    of any kind (computed once)."""
    system, positions = build_workload("water-box")
    return {
        point: run_point(system, positions, point, TINY_CONFIG, shared_compute=False)
        for point in SPATIAL_POINTS
    }


class TestSpatialReplayEqualsOracle:
    """Halo pulses, migrations and their sizes depend on the positions,
    never on the platform: a spatial trajectory records and replays like
    a replicated one."""

    def test_platform_variants_at_p4(self):
        system, positions = build_workload("water-box")
        variants = [p for p in SPATIAL_POINTS if p.n_ranks == 4]  # 6 platforms x 2 middlewares
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        for point in variants:
            got = run_point(system, positions, point, TINY_CONFIG, shared_compute=session.cache())
            _assert_same_run(got, _spatial_oracle()[point], point.label())
        assert _counts(before) == {"opstream_recorded": 2, "opstream_replayed": 10}

    def test_inline_engine(self):
        engine = tiny_engine(workload="water-box")
        before = REGISTRY.snapshot()
        result = engine.run(SPATIAL_POINTS)
        assert result.ok
        assert _counts(before) == OPS_1_TO_5
        expected = ResultStore(None)
        for point, run in _spatial_oracle().items():
            expected.put(engine.key_for(point), ResponseRecord.from_run(point, run), {})
        assert verify_stores_match(engine.store, expected) == []

    def test_each_rank_grid_records_its_own(self):
        """Runs differing only in ``spatial_grid`` issue different halo
        schedules: each grid records its own stream and replays only it."""
        system, positions = build_workload("water-box")
        point = next(p for p in SPATIAL_POINTS if p.n_ranks == 4)
        spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(2002, point))
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        for grid in (None, (4, 1, 1), None, (4, 1, 1)):
            options = RunOptions.for_point(point, config=TINY_CONFIG).replace(spatial_grid=grid)
            got = run_parallel_md(
                system, positions, spec, options.replace(shared_compute=session.cache())
            )
            if grid is None:
                want = _spatial_oracle()[point]
            else:
                want = run_parallel_md(
                    system, positions, spec, options.replace(shared_compute=False)
                )
            _assert_same_run(got, want, str(grid))
        assert _counts(before) == {"opstream_recorded": 2, "opstream_replayed": 2}
        assert len(session.trajectories) == 2


class TestTrajectoryKey:
    """Everything an op stream depends on is in the key: runs of one
    session that differ in one such input each record their own."""

    POINT = next(p for p in POINTS if p.n_ranks == 4 and p.config.middleware == "cmpi")

    def test_config_cost_and_middleware_parameters(self, peptide_tiny, monkeypatch):
        system, positions = peptide_tiny
        session = TrajectorySession()
        slow_pairs = dataclasses.replace(PIII_1GHZ, pair_cost=2 * PIII_1GHZ.pair_cost)
        no_barrier = dataclasses.replace(TINY_CONFIG, barrier_per_step=False)
        before = REGISTRY.snapshot()

        def check(config, cost):
            got = run_point(
                system, positions, self.POINT, config, cost=cost,
                shared_compute=session.cache(),
            )
            want = run_point(system, positions, self.POINT, config, cost=cost,
                             shared_compute=False)
            _assert_same_run(got, want)

        check(TINY_CONFIG, PIII_1GHZ)
        check(no_barrier, PIII_1GHZ)
        check(TINY_CONFIG, slow_pairs)
        monkeypatch.setattr(CMPIMiddleware, "call_overhead", 3 * CMPIMiddleware.call_overhead)
        check(TINY_CONFIG, PIII_1GHZ)
        assert _counts(before) == {**NOTHING, "opstream_recorded": 4}
        assert len(session.trajectories) == 4

    def test_workload(self, peptide_tiny):
        """Same coordinates, other force field setup (as myoglobin-pme and
        myoglobin-shift share theirs): each system records its own."""
        system, positions = peptide_tiny
        shift = MDSystem(system.topology, system.forcefield, system.box, system.scheme)
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        for workload in (system, shift, system, shift):
            got = run_point(workload, positions, self.POINT, TINY_CONFIG,
                            shared_compute=session.cache())
            want = run_point(workload, positions, self.POINT, TINY_CONFIG,
                             shared_compute=False)
            _assert_same_run(got, want)
        assert _counts(before) == {"opstream_recorded": 2, "opstream_replayed": 2}


class TestEachTrajectoryComputedOnce:
    def test_eight_trajectories_one_to_five(self, peptide_tiny):
        system, positions = peptide_tiny
        session = TrajectorySession()
        before = REGISTRY.snapshot()
        seen = set()
        for point in POINTS:
            mark = FORCE_EVALUATIONS.snapshot()
            execute_built(
                system, positions, point, TINY_CONFIG, PIII_1GHZ, 2002, session=session
            )
            evaluations = FORCE_EVALUATIONS.delta(mark)
            trajectory = (point.n_ranks, point.config.middleware)
            if trajectory in seen:
                assert evaluations == 0, point.label()
            else:
                # today's count: one kernel evaluation per rank per step
                assert evaluations == point.n_ranks * N_STEPS, point.label()
            seen.add(trajectory)
        assert len(session.trajectories) == 8
        assert _counts(before) == OPS_1_TO_5
        assert REGISTRY.gauge("exec.opstream_bytes").value == session.opstream_bytes > 0

    def test_a_bare_run_has_no_session(self, peptide_tiny):
        system, positions = peptide_tiny
        before = REGISTRY.snapshot()
        for point in POINTS[:8]:
            mark = FORCE_EVALUATIONS.snapshot()
            run_point(system, positions, point, TINY_CONFIG)
            assert FORCE_EVALUATIONS.delta(mark) == point.n_ranks * N_STEPS
        assert _counts(before) == NOTHING

    def test_byte_cap_admits_one_trajectory(self, peptide_tiny, monkeypatch):
        """Past the cap a trajectory runs live, recording nothing."""
        system, positions = peptide_tiny
        first = POINTS[0]
        probe = TrajectorySession()
        execute_built(system, positions, first, TINY_CONFIG, PIII_1GHZ, 2002, session=probe)
        one = probe.opstream_bytes
        monkeypatch.setattr(shared_mod, "OPSTREAM_BYTES_BUDGET", one)
        engine = tiny_engine()
        before = REGISTRY.snapshot()
        assert engine.run(POINTS).ok
        assert _counts(before) == {**NOTHING, "opstream_recorded": 1, "opstream_replayed": 5}
        assert REGISTRY.gauge("exec.opstream_bytes").value == one
        assert verify_stores_match(engine.store, _oracle(False)) == []


class TestAuditsStayIndependent:
    #: six platform variants of one trajectory: with a session, five would replay
    VARIANTS = [p for p in POINTS if p.n_ranks == 2 and p.config.middleware == "mpi"]

    def test_verify_never_replays(self, store_root):
        engine = tiny_engine(store_root)
        assert engine.run(self.VARIANTS).ok
        before = REGISTRY.snapshot()
        assert engine.verify(sample=len(self.VARIANTS)) == []
        assert _counts(before) == NOTHING

    @pytest.mark.parametrize("n_workers", [0, 2], ids=["inline", "pooled"])
    def test_verify_reruns_carry_no_session(self, store_root, monkeypatch, n_workers):
        engine = tiny_engine(store_root)
        assert engine.run(self.VARIANTS).ok
        seen = []
        real_dispatch = engine_mod.dispatch

        def spy(target, payloads, *args, **kwargs):
            seen.extend(payloads.values())
            return real_dispatch(target, payloads, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "dispatch", spy)
        assert engine.verify(sample=len(self.VARIANTS), n_workers=n_workers) == []
        assert len(seen) == len(self.VARIANTS)
        assert not [arg for payload in seen for arg in payload
                    if isinstance(arg, TrajectorySession)]
