"""A campaign computes each (p, middleware) trajectory once.

Only time is simulated, so the 48 points of the factorial are 8 distinct
trajectories, each visited by six platform variants.  The inline engine,
``work_campaign`` and ``CharacterizationRunner`` hold a
:class:`~repro.parallel.shared.TrajectorySession`: a trajectory's first
run records its op streams and the other five replay them.  These tests
hold every run to the oracle (``shared_compute=False``: no cache of any
kind) record for record, timeline for timeline and transfer for
transfer, check the refusal cases (sanitized and traced runs run live,
on the force tables), and check that audits and pooled attempts never
see a session.
"""

from __future__ import annotations

import dataclasses
import json
from functools import lru_cache

import pytest

from repro.campaign import ResultStore, publish_campaign, verify_stores_match, work_campaign
from repro.campaign.engine import execute_built
from repro.campaign.keys import workload_fingerprint
from repro.campaign.runner import CharacterizationRunner
from repro.campaign.workloads import build_workload
from repro.cmpi import CMPIMiddleware
from repro.core.design import full_factorial
from repro.instrument.commstats import CommTrace
from repro.instrument.counters import FORCE_EVALUATIONS
from repro.instrument.metrics import REGISTRY
from repro.instrument.runlog import read_runlog
from repro.instrument.tracing import SpanTracer
from repro.parallel import PIII_1GHZ, MDRunConfig
from repro.parallel import shared as shared_mod
from repro.parallel.shared import TrajectorySession

from .conftest import TINY_CONFIG, oracle_store, run_point, tiny_engine

POINTS = full_factorial()
N_STEPS = TINY_CONFIG.n_steps
#: rank-steps of the 8 trajectories: p in {1, 2, 4, 8} under both middlewares
TRAJECTORY_RANK_STEPS = 2 * (1 + 2 + 4 + 8) * N_STEPS
SITES = ("site=classic", "site=pme")
COUNTERS = ("opstream_recorded", "opstream_replayed", "trajectory_recorded", "trajectory_replayed")


def _counts(since: dict) -> dict[str, int]:
    """Totals of the session counters (``exec.<name>``) since a snapshot."""
    counters = REGISTRY.delta(since)["counters"]
    return {name: counters.get(f"exec.{name}", {}).get("total", 0) for name in COUNTERS}


def _force_labels(since: dict) -> dict[str, dict]:
    """Per-site force-table counts since a snapshot."""
    counters = REGISTRY.delta(since)["counters"]
    return {
        name: counters.get(f"exec.trajectory_{name}", {}).get("labels", {})
        for name in ("recorded", "replayed")
    }


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
        if sanitize:
            # a sanitized run never replays an op stream: it runs live and
            # five of every six step lookups come from the force tables
            assert counts["opstream_recorded"] == counts["opstream_replayed"] == 0
            assert _force_labels(before)["replayed"] == dict.fromkeys(
                SITES, 5 * TRAJECTORY_RANK_STEPS
            )
        else:
            assert counts == OPS_1_TO_5
        # ... and says so wherever a worker's metrics already go
        dumped = json.loads((store.root / "metrics-w0.json").read_text())["counters"]
        for name, total in counts.items():
            assert dumped.get(f"exec.{name}", {}).get("total", 0) == total
        done = list(read_runlog(store.root / "logs" / "worker-w0.jsonl"))[-1]
        assert done["event"] == "worker_done"
        assert {name: done[name] for name in COUNTERS} == counts

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
        runs that record a CommTrace run live, on the force tables."""
        system, positions = peptide_tiny
        session = TrajectorySession(workload_fingerprint(system, positions))
        before = REGISTRY.snapshot()
        for point in POINTS:
            got_trace, want_trace = CommTrace(), CommTrace()
            got = run_point(
                system, positions, point, TINY_CONFIG, sanitize=sanitize, trace=got_trace,
                shared_compute=session.cache_for(point, TINY_CONFIG, system, PIII_1GHZ),
            )
            want = run_point(
                system, positions, point, TINY_CONFIG, sanitize=sanitize, trace=want_trace,
                shared_compute=False,
            )
            assert got_trace.events == want_trace.events, point.label()
            assert len(got.timelines) == point.n_ranks
            _assert_same_run(got, want, point.label())
        counts = _counts(before)
        assert counts["opstream_recorded"] == counts["opstream_replayed"] == 0
        assert counts["trajectory_replayed"] == 2 * 5 * TRAJECTORY_RANK_STEPS


class TestReplayEqualsOracle:
    """Replayed runs against the oracle on the paper's measurement window
    and on the rendezvous path."""

    def _check_factorial(self, system, positions, points, config):
        session = TrajectorySession(workload_fingerprint(system, positions))
        before = REGISTRY.snapshot()
        for point in points:
            got = run_point(
                system, positions, point, config,
                shared_compute=session.cache_for(point, config, system, PIII_1GHZ),
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

    def test_myoglobin_rendezvous_path(self):
        """The myoglobin-PME force vector exceeds the eager threshold on
        some platforms: replayed rendezvous sends block like live ones."""
        self._check_myoglobin(8)

    @pytest.mark.nightly
    def test_myoglobin_rendezvous_path_p2(self):
        """The same at p = 2 (nightly; tier-1 keeps the p = 8 leg)."""
        self._check_myoglobin(2)

    def test_span_tracer_sees_the_live_spans(self, peptide_tiny):
        system, positions = peptide_tiny
        variants = [p for p in POINTS if p.n_ranks == 4 and p.config.middleware == "cmpi"]
        session = TrajectorySession(workload_fingerprint(system, positions))
        before = REGISTRY.snapshot()
        for point in variants:
            got, want = SpanTracer(), SpanTracer()
            run_point(
                system, positions, point, TINY_CONFIG, span_tracer=got,
                shared_compute=session.cache_for(point, TINY_CONFIG, system, PIII_1GHZ),
            )
            run_point(system, positions, point, TINY_CONFIG, span_tracer=want,
                      shared_compute=False)
            assert got.spans and got.spans == want.spans, point.label()
        assert _counts(before)["opstream_replayed"] == len(variants) - 1


class TestTrajectoryKey:
    """Everything an op stream depends on is in the key: runs of one
    session that differ in one such input each record their own."""

    POINT = next(p for p in POINTS if p.n_ranks == 4 and p.config.middleware == "cmpi")

    def test_config_cost_and_middleware_parameters(self, peptide_tiny, monkeypatch):
        system, positions = peptide_tiny
        session = TrajectorySession(workload_fingerprint(system, positions))
        slow_pairs = dataclasses.replace(PIII_1GHZ, pair_cost=2 * PIII_1GHZ.pair_cost)
        no_barrier = dataclasses.replace(TINY_CONFIG, barrier_per_step=False)
        before = REGISTRY.snapshot()

        def check(config, cost):
            got = run_point(
                system, positions, self.POINT, config, cost=cost,
                shared_compute=session.cache_for(self.POINT, config, system, cost),
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


class TestEachTrajectoryComputedOnce:
    def test_eight_trajectories_one_to_five(self, peptide_tiny):
        system, positions = peptide_tiny
        session = TrajectorySession(workload_fingerprint(system, positions))
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
        assert REGISTRY.gauge("exec.trajectory_table_bytes").value == session.table_bytes > 0

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
        probe = TrajectorySession(workload_fingerprint(system, positions))
        execute_built(system, positions, first, TINY_CONFIG, PIII_1GHZ, 2002, session=probe)
        one = probe.table_bytes
        monkeypatch.setattr(shared_mod, "TRAJECTORY_TABLE_BYTES", one)
        engine = tiny_engine()
        before = REGISTRY.snapshot()
        assert engine.run(POINTS).ok
        assert _counts(before) == {**NOTHING, "opstream_recorded": 1, "opstream_replayed": 5}
        assert REGISTRY.gauge("exec.trajectory_table_bytes").value == one
        assert verify_stores_match(engine.store, _oracle(False)) == []

    def test_spatial_points_get_no_cache(self, peptide_tiny):
        system, _ = peptide_tiny
        session = TrajectorySession("fp")
        spatial = dataclasses.replace(POINTS[5], strategy="spatial")
        assert session.cache_for(spatial, TINY_CONFIG, system, PIII_1GHZ) is True
        assert session.trajectories == {} and session.table_bytes == 0


class TestAuditsStayIndependent:
    #: six platform variants of one trajectory: with a session, five would replay
    VARIANTS = [p for p in POINTS if p.n_ranks == 2 and p.config.middleware == "mpi"]

    def test_verify_never_replays(self, store_root):
        engine = tiny_engine(store_root)
        assert engine.run(self.VARIANTS).ok
        before = REGISTRY.snapshot()
        assert engine.verify(sample=len(self.VARIANTS)) == []
        assert _counts(before) == NOTHING

    def test_pooled_dispatch_never_replays(self):
        engine = tiny_engine(n_workers=2)
        before = REGISTRY.snapshot()
        result = engine.run(self.VARIANTS)
        assert result.ok
        assert _counts(before) == NOTHING
        merged = result.manifest.metrics["counters"]
        assert merged["run.points_executed"]["total"] == len(self.VARIANTS)
        assert not [name for name in merged if name.startswith("exec.trajectory")]
        assert not [name for name in merged if name.startswith("exec.opstream")]
