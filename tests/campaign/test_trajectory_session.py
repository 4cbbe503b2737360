"""A campaign computes each (p, middleware) trajectory once.

Only time is simulated, so the 48 points of the factorial are 8 distinct
force trajectories, each visited by six platform variants.  The inline
engine, ``work_campaign`` and ``CharacterizationRunner.measure`` hold a
:class:`~repro.parallel.shared.TrajectorySession` for the pass; these
tests hold it to the oracle (``shared_compute=False``: no cache of any
kind) record for record, timeline for timeline and event for event, and
check that audits and pooled attempts never see one.
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
from repro.core.design import full_factorial
from repro.instrument.commstats import CommTrace
from repro.instrument.counters import FORCE_EVALUATIONS
from repro.instrument.metrics import REGISTRY
from repro.instrument.runlog import read_runlog
from repro.parallel import PIII_1GHZ
from repro.parallel import shared as shared_mod
from repro.parallel.shared import TrajectorySession

from .conftest import TINY_CONFIG, oracle_store, run_point, tiny_engine

POINTS = full_factorial()
N_STEPS = TINY_CONFIG.n_steps
#: rank-steps of the 8 trajectories: p in {1, 2, 4, 8} under both middlewares
TRAJECTORY_RANK_STEPS = 2 * (1 + 2 + 4 + 8) * N_STEPS
SITES = ("site=classic", "site=pme")


def _replay_counts(since: dict) -> dict[str, dict]:
    """``{"recorded": labels, "replayed": labels}`` since a registry snapshot."""
    counters = REGISTRY.delta(since)["counters"]
    return {
        name: counters.get(f"exec.trajectory_{name}", {}).get("labels", {})
        for name in ("recorded", "replayed")
    }


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
        # the session really was on: five of every six lookups replayed
        counts = _replay_counts(before)
        assert counts["replayed"] == dict.fromkeys(SITES, 5 * TRAJECTORY_RANK_STEPS)
        # ... and says so wherever a worker's metrics already go
        dumped = json.loads((store.root / "metrics-w0.json").read_text())["counters"]
        assert dumped["exec.trajectory_replayed"]["labels"] == counts["replayed"]
        done = list(read_runlog(store.root / "logs" / "worker-w0.jsonl"))[-1]
        assert done["event"] == "worker_done"
        assert done["trajectory_recorded"] == 2 * TRAJECTORY_RANK_STEPS
        assert done["trajectory_replayed"] == 10 * TRAJECTORY_RANK_STEPS

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
        assert _replay_counts(before)["replayed"] == dict.fromkeys(
            SITES, 5 * TRAJECTORY_RANK_STEPS
        )

    @both_sanitize_settings
    def test_timelines_and_comm_trace(self, sanitize, peptide_tiny):
        """Per-rank virtual timelines and the full event stream, per point."""
        system, positions = peptide_tiny
        session = TrajectorySession(workload_fingerprint(system, positions))
        for point in POINTS:
            got_trace, want_trace = CommTrace(), CommTrace()
            got = run_point(
                system, positions, point, TINY_CONFIG, sanitize=sanitize, trace=got_trace,
                shared_compute=session.cache_for(point, TINY_CONFIG, system),
            )
            want = run_point(
                system, positions, point, TINY_CONFIG, sanitize=sanitize, trace=want_trace,
                shared_compute=False,
            )
            assert got_trace.events == want_trace.events, point.label()
            assert len(got.timelines) == point.n_ranks
            for t_got, t_want in zip(got.timelines, want.timelines):
                assert t_got.phases == t_want.phases, point.label()
            assert got.energies == want.energies
            assert (got.final_positions == want.final_positions).all()
            assert got.transfers == want.transfers


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
        assert len(session.tables) == 8
        counts = _replay_counts(before)
        assert counts["recorded"] == dict.fromkeys(SITES, TRAJECTORY_RANK_STEPS)
        assert counts["replayed"] == dict.fromkeys(SITES, 5 * TRAJECTORY_RANK_STEPS)
        assert REGISTRY.gauge("exec.trajectory_table_bytes").value == session.table_bytes > 0

    def test_a_bare_run_has_no_session(self, peptide_tiny):
        system, positions = peptide_tiny
        before = REGISTRY.snapshot()
        for point in POINTS[:8]:
            mark = FORCE_EVALUATIONS.snapshot()
            run_point(system, positions, point, TINY_CONFIG)
            assert FORCE_EVALUATIONS.delta(mark) == point.n_ranks * N_STEPS
        assert _replay_counts(before) == {"recorded": {}, "replayed": {}}

    def test_byte_cap_admits_one_trajectory(self, peptide_tiny, monkeypatch):
        """Past the cap a trajectory runs with a plain per-run cache."""
        system, _ = peptide_tiny
        first = POINTS[0]
        one = shared_mod._TrajectoryTables.nbytes(2, N_STEPS, first.n_ranks, system.n_atoms)
        monkeypatch.setattr(shared_mod, "TRAJECTORY_TABLE_BYTES", one)
        engine = tiny_engine()
        before = REGISTRY.snapshot()
        assert engine.run(POINTS).ok
        counts = _replay_counts(before)
        assert counts["recorded"] == dict.fromkeys(SITES, first.n_ranks * N_STEPS)
        assert counts["replayed"] == dict.fromkeys(SITES, 5 * first.n_ranks * N_STEPS)
        assert REGISTRY.gauge("exec.trajectory_table_bytes").value == one
        assert verify_stores_match(engine.store, _oracle(False)) == []

    def test_spatial_points_get_no_cache(self, peptide_tiny):
        system, _ = peptide_tiny
        session = TrajectorySession("fp")
        spatial = dataclasses.replace(POINTS[5], strategy="spatial")
        assert session.cache_for(spatial, TINY_CONFIG, system) is True
        assert session.tables == {} and session.table_bytes == 0


class TestAuditsStayIndependent:
    #: six platform variants of one trajectory: with a session, five would replay
    VARIANTS = [p for p in POINTS if p.n_ranks == 2 and p.config.middleware == "mpi"]

    def test_verify_never_replays(self, store_root):
        engine = tiny_engine(store_root)
        assert engine.run(self.VARIANTS).ok
        before = REGISTRY.snapshot()
        assert engine.verify(sample=len(self.VARIANTS)) == []
        assert _replay_counts(before) == {"recorded": {}, "replayed": {}}

    def test_pooled_dispatch_never_replays(self):
        engine = tiny_engine(n_workers=2)
        before = REGISTRY.snapshot()
        result = engine.run(self.VARIANTS)
        assert result.ok
        assert _replay_counts(before) == {"recorded": {}, "replayed": {}}
        merged = result.manifest.metrics["counters"]
        assert merged["run.points_executed"]["total"] == len(self.VARIANTS)
        assert not [name for name in merged if name.startswith("exec.trajectory")]
