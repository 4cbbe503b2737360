"""Worker-pull lease board: claim/heartbeat/expiry and failure semantics.

Expiry is driven by an injected fake clock, so every timing scenario —
a worker dying mid-lease, a lease reclaimed and re-executed, a late
completion racing a reclaim — runs deterministically with zero sleeps.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    LeaseBoard,
    LeaseBoardError,
    LeaseKeyMismatchError,
    ResultStore,
    merge_into_store,
    publish_campaign,
    verify_stores_match,
    work_campaign,
)
from repro.campaign.leases import Lease
from repro.instrument.counters import FORCE_EVALUATIONS

from .conftest import tiny_engine, tiny_points


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


def _publish(tmp_path, clock, ranks=(1, 2), store_root=None):
    engine = tiny_engine(store_root)
    points = tiny_points(ranks=ranks)
    leases = tmp_path / "leases.json"
    summary = publish_campaign(engine, points, leases, now=clock)
    return engine, points, leases, summary


class TestBoardProtocol:
    def test_publish_then_claim_hands_out_each_point_once(self, tmp_path, clock):
        _, points, leases, summary = _publish(tmp_path, clock)
        assert summary == {
            "leases": 2, "pending": 2, "done": 0,
            "campaign_id": summary["campaign_id"],
        }
        board = LeaseBoard(leases, now=clock)
        first = board.claim("w1", ttl=60)
        second = board.claim("w2", ttl=60)
        assert first is not None and second is not None
        assert first.key != second.key
        assert board.claim("w3", ttl=60) is None  # board exhausted
        assert board.counts() == {"pending": 0, "leased": 2, "done": 0}

    def test_complete_and_done(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock)
        board = LeaseBoard(leases, now=clock)
        while (lease := board.claim("w1", ttl=60)) is not None:
            assert board.complete(lease.key, "w1")
        assert board.done()
        assert board.counts() == {"pending": 0, "leased": 0, "done": 2}

    def test_release_returns_the_point_to_the_pool(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock)
        board = LeaseBoard(leases, now=clock)
        lease = board.claim("w1", ttl=60)
        board.release(lease.key, "w1")
        assert board.counts()["pending"] == 2
        again = board.claim("w2", ttl=60)
        assert again.key == lease.key  # first runnable lease again

    def test_points_already_in_the_serving_store_publish_as_done(
        self, tmp_path, clock, store_root
    ):
        engine = tiny_engine(store_root)
        points = tiny_points(ranks=(1, 2))
        engine.run(points[:1])  # pre-satisfy one point
        summary = publish_campaign(engine, points, tmp_path / "leases.json", now=clock)
        assert summary["pending"] == 1
        assert summary["done"] == 1

    def test_missing_board_raises(self, tmp_path, clock):
        with pytest.raises(LeaseBoardError, match="no lease board"):
            LeaseBoard(tmp_path / "nope.json", now=clock).claim("w1")

    def test_heartbeat_extends_only_the_holders_lease(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock)
        board = LeaseBoard(leases, now=clock)
        lease = board.claim("w1", ttl=60)
        clock.advance(50)
        assert board.heartbeat(lease.key, "w1", ttl=60)
        clock.advance(50)  # would have expired without the heartbeat
        assert board.claim("w2", ttl=60).key != lease.key

    def test_stale_lock_is_broken(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock)
        board = LeaseBoard(leases, now=clock, stale_lock_after=0.0)
        lock = leases.with_suffix(leases.suffix + ".lock")
        lock.write_text("")  # a dead worker's abandoned lock
        assert board.claim("w1", ttl=60) is not None
        assert not lock.exists()


class TestExpiryReclamation:
    def test_expired_lease_is_reclaimable_with_attempts_bumped(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock)
        board = LeaseBoard(leases, now=clock)
        lease = board.claim("w1", ttl=60)
        clock.advance(61)  # w1 dies silently; its deadline passes
        reclaimed = board.claim("w2", ttl=60)
        assert reclaimed.key == lease.key
        assert reclaimed.worker == "w2"
        assert reclaimed.attempts == lease.attempts + 1

    def test_unexpired_lease_is_not_stealable(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock, ranks=(1,))
        board = LeaseBoard(leases, now=clock)
        board.claim("w1", ttl=60)
        clock.advance(59)
        assert board.claim("w2", ttl=60) is None

    def test_late_completion_after_reclaim_is_detected(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock, ranks=(1,))
        board = LeaseBoard(leases, now=clock)
        lease = board.claim("w1", ttl=60)
        clock.advance(61)
        board.claim("w2", ttl=60)
        # w1 comes back from the dead and tries to settle its old lease
        assert not board.complete(lease.key, "w1")

    def test_dead_worker_point_reexecuted_exactly_once(self, tmp_path, clock):
        """The acceptance scenario: a worker claims a lease and crashes
        before executing.  After expiry another worker reclaims and runs
        it; force-evaluation counts prove each point executed exactly
        once overall — reclamation added work for the lost point only,
        and nothing ran twice.
        """
        engine, points, leases, _ = _publish(tmp_path, clock, ranks=(1, 2))
        board = LeaseBoard(leases, now=clock)

        # worker A claims the first point and dies without running it
        doomed = board.claim("worker-a", ttl=60)
        assert doomed is not None

        # measure per-point cost: force evaluations are deterministic
        baseline = FORCE_EVALUATIONS.snapshot()
        probe = ResultStore(None)
        work_probe = tiny_engine()
        work_probe.store = probe
        work_probe.run([points[0]])
        per_point = {points[0].label(): FORCE_EVALUATIONS.delta(baseline)}
        baseline = FORCE_EVALUATIONS.snapshot()
        work_probe.run([points[1]])
        per_point[points[1].label()] = FORCE_EVALUATIONS.delta(baseline)

        clock.advance(61)  # worker A's lease expires

        baseline = FORCE_EVALUATIONS.snapshot()
        store_b = ResultStore(tmp_path / "host-b")
        stats = work_campaign(
            leases, store_b, "worker-b", ttl=60, now=clock
        )
        executed = FORCE_EVALUATIONS.delta(baseline)

        # worker B ran BOTH points (the reclaimed one and the fresh one),
        # each exactly once: the force-evaluation total is the exact sum
        assert stats["claimed"] == 2
        assert stats["executed"] == 2
        assert executed == sum(per_point.values())
        assert board.done()

        # the reclaimed lease's audit trail shows the extra attempt
        attempts = {lease.label: lease.attempts for lease in board.leases()}
        assert attempts[doomed.label] == 1
        assert sum(attempts.values()) == 1

        # and the records match a single-host run bit-for-bit
        single = ResultStore(tmp_path / "single")
        single_engine = tiny_engine(tmp_path / "single")
        single_engine.run(points)
        assert verify_stores_match(store_b, ResultStore(tmp_path / "single")) == []

    def test_resumed_worker_does_not_reexecute_its_own_records(self, tmp_path, clock):
        """A worker that crashed *after* storing but before completing:
        on restart the lease expired, the record is already in its store,
        and settling it must cost zero force evaluations."""
        engine, points, leases, _ = _publish(tmp_path, clock, ranks=(1,))
        store = ResultStore(tmp_path / "host-a")
        work_campaign(leases, store, "worker-a", ttl=60, now=clock)

        # simulate the crash-after-put: force the lease back to claimable
        board = LeaseBoard(leases, now=clock)
        lease = board.leases()[0]
        board.release(lease.key, lease.worker)  # no-op (state is done) ...
        # ... so rewrite it as an expired claim, the true crash shape
        doc = __import__("json").loads(leases.read_text())
        doc["leases"][0].update(state="leased", worker="worker-a", expires=0.0)
        leases.write_text(__import__("json").dumps(doc))

        baseline = FORCE_EVALUATIONS.snapshot()
        reopened = ResultStore(tmp_path / "host-a")
        stats = work_campaign(leases, reopened, "worker-a", ttl=60, now=clock)
        counts = {k: stats[k] for k in ("claimed", "executed", "hits", "failed", "lost")}
        assert counts == {"claimed": 1, "executed": 0, "hits": 1, "failed": 0, "lost": 0}
        assert FORCE_EVALUATIONS.delta(baseline) == 0
        assert board.done()


class TestWorkCampaign:
    def test_workers_refuse_a_foreign_cost_model(self, tmp_path, clock):
        import dataclasses

        from repro.parallel.costmodel import PIII_1GHZ

        _, _, leases, _ = _publish(tmp_path, clock, ranks=(1,))
        slower = dataclasses.replace(PIII_1GHZ, pair_cost=PIII_1GHZ.pair_cost * 2)
        with pytest.raises(ValueError, match="cost model does not match"):
            work_campaign(
                leases, ResultStore(None), "w1", cost=slower, now=clock
            )

    def test_key_mismatch_is_typed_and_releases(self, tmp_path, clock):
        _, _, leases, _ = _publish(tmp_path, clock, ranks=(1,))
        doc = json.loads(leases.read_text())
        doc["leases"][0]["key"] = "0" * 64
        leases.write_text(json.dumps(doc))
        with pytest.raises(LeaseKeyMismatchError, match="does not match") as err:
            work_campaign(leases, ResultStore(None), "w1", now=clock)
        assert isinstance(err.value, ValueError)
        assert LeaseBoard(leases, now=clock).counts()["pending"] == 1

    def test_failed_point_is_released_not_done(self, tmp_path, clock, monkeypatch):
        _, _, leases, _ = _publish(tmp_path, clock, ranks=(1,))
        from repro.campaign import federation

        def boom(*a, **kw):
            raise RuntimeError("synthetic point failure")

        monkeypatch.setattr(federation, "execute_point", boom)
        stats = work_campaign(
            leases, ResultStore(None), "w1", max_points=1, now=clock
        )
        assert stats["failed"] == 1
        assert LeaseBoard(leases, now=clock).counts()["pending"] == 1

    def test_two_workers_drain_a_board_and_merge_matches_single_host(self, tmp_path, clock):
        engine, points, leases, _ = _publish(tmp_path, clock, ranks=(1, 2, 4))
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        sa = work_campaign(leases, a, "wa", max_points=2, now=clock)
        sb = work_campaign(leases, b, "wb", now=clock)
        assert sa["executed"] + sb["executed"] == 3
        assert LeaseBoard(leases, now=clock).done()

        merged = ResultStore(tmp_path / "merged")
        merge_into_store(merged, [a, b])
        single_engine = tiny_engine(tmp_path / "single")
        single_engine.run(points)
        assert verify_stores_match(merged, ResultStore(tmp_path / "single")) == []
