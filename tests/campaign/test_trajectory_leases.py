"""A trajectory group is the unit of leasing.

The points one trajectory session records once and replays — one
``(strategy, p, middleware)`` — are claimed in one board mutation,
renewed together at half the TTL and settled with one ``complete``, on
the file board and through the coordinator alike.  Expiry runs on an
injected fake clock shared by the board (or the coordinator) and the
worker, so every timing scenario is deterministic with zero sleeps.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    HttpBoardClient,
    LeaseBoard,
    ResultStore,
    merge_into_store,
    publish_campaign,
    verify_stores_match,
    work_campaign,
)
from repro.campaign import federation
from repro.campaign.coordinator import CoordinatorThread
from repro.core.design import DesignPoint, full_factorial
from repro.instrument.metrics import REGISTRY
from repro.parallel.shared import trajectory_id

from .conftest import tiny_engine

POINTS = full_factorial()
#: the six platform variants of one trajectory
VARIANTS = [p for p in POINTS if p.n_ranks == 2 and p.config.middleware == "mpi"]


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


@pytest.fixture(params=["file", "http"])
def backend(request, tmp_path, clock):
    """A board URL on either back end, both expiring on ``clock``."""
    if request.param == "file":
        yield str(tmp_path / "leases.json")
        return
    with CoordinatorThread(tmp_path / "coordinator-board.json", now=clock) as coord:
        yield coord.url


def _board(url, clock):
    if url.startswith("http://"):
        return HttpBoardClient(url)
    return LeaseBoard(url, now=clock)


def _route_counts(since: dict) -> dict[str, int]:
    labels = REGISTRY.delta(since)["counters"].get("coordinator.requests", {}).get("labels", {})
    return {route: labels.get(f"route={route}", 0) for route in ("claim", "heartbeat", "complete")}


class TestGroupClaims:
    def test_publish_stamps_trajectories_largest_p_first(self, tmp_path):
        board = tmp_path / "leases.json"
        publish_campaign(tiny_engine(), POINTS, board)
        leases = LeaseBoard(board).leases()
        assert [lease.trajectory for lease in leases] == [
            trajectory_id(DesignPoint.from_doc(lease.point)) for lease in leases
        ]
        ranks = [lease.point["n_ranks"] for lease in leases]
        assert ranks == sorted(ranks, reverse=True)
        # one group after another: each trajectory's six points are adjacent
        runs = [lease.trajectory for i, lease in enumerate(leases)
                if i == 0 or leases[i - 1].trajectory != lease.trajectory]
        assert len(runs) == len(set(runs)) == 8
        # written compactly: one line
        assert board.read_bytes().count(b"\n") == 1

    def test_group_claim_takes_one_trajectory(self, backend, clock):
        publish_campaign(tiny_engine(), POINTS, _board(backend, clock))
        board = _board(backend, clock)
        group = board.claim("w1", ttl=60, group=48)
        assert len(group) == 6 and len({lease.trajectory for lease in group}) == 1
        assert {lease.point["n_ranks"] for lease in group} == {8}
        capped = board.claim("w2", ttl=60, group=4)
        assert len(capped) == 4 and capped[0].trajectory != group[0].trajectory
        rest = board.claim("w3", ttl=60, group=48)
        assert [lease.trajectory for lease in rest] == [capped[0].trajectory] * 2
        # the single-lease call is unchanged: the first runnable lease
        single = board.claim("w4", ttl=60)
        assert single.trajectory not in {group[0].trajectory, capped[0].trajectory}
        assert board.complete([lease.key for lease in group], "w1") == [True] * 6
        assert board.complete([single.key, group[0].key], "w1") == [False, True]

    def test_claim_is_not_idempotent(self, backend, clock):
        """A claim whose answer is lost (the worker retries) strands its
        group until the deadline: the retry gets the next group, and the
        stranded one is reclaimable after expiry with ``attempts`` + 1."""
        publish_campaign(tiny_engine(), POINTS, _board(backend, clock))
        board = _board(backend, clock)
        lost = board.claim("w1", ttl=60, group=48)
        retried = board.claim("w1", ttl=60, group=48)
        assert {lease.key for lease in lost}.isdisjoint(lease.key for lease in retried)
        assert retried[0].trajectory != lost[0].trajectory
        clock.advance(59)
        assert board.claim("w2", ttl=60, group=48)[0].trajectory not in {
            lost[0].trajectory, retried[0].trajectory
        }
        clock.advance(2)
        reclaimed = board.claim("w2", ttl=60, group=48)
        assert [lease.key for lease in reclaimed] == [lease.key for lease in lost]
        assert [lease.attempts for lease in reclaimed] == [1] * len(lost)
        assert {lease.worker for lease in reclaimed} == {"w2"}

    def test_heartbeat_renews_the_holders_group(self, backend, clock):
        publish_campaign(tiny_engine(), POINTS, _board(backend, clock))
        board = _board(backend, clock)
        group = board.claim("w1", ttl=60, group=48)
        clock.advance(50)
        assert not board.heartbeat(group[-1].key, "w2", ttl=60)
        assert board.heartbeat(group[-1].key, "w1", ttl=60)
        clock.advance(50)  # past the claim's deadline, not the renewal's
        assert board.claim("w2", ttl=60, group=48)[0].trajectory != group[0].trajectory
        assert {lease.worker for lease in board.leases() if lease.trajectory
                == group[0].trajectory} == {"w1"}


class TestWorkCampaign:
    def test_one_claim_and_one_complete_per_trajectory(self, tmp_path):
        """Board round trips of one 48-point pass through the coordinator:
        8 group claims plus the empty one, 8 completes, no heartbeat."""
        with CoordinatorThread(tmp_path / "coordinator-board.json") as coord:
            publish_campaign(tiny_engine(), POINTS, coord.url)
            store = ResultStore(tmp_path / "worker")
            lines = []
            before = REGISTRY.snapshot()
            stats = work_campaign(coord.url, store, "w0", progress=lines.append)
            routes = _route_counts(before)
        assert stats["executed"] == 48 and stats["lost"] == 0
        assert routes == {"claim": 9, "heartbeat": 0, "complete": 8}
        assert len(lines) == 48 and all(" done (" in line for line in lines)

    def test_alternating_bounded_workers_never_split_a_trajectory(self, tmp_path):
        board = tmp_path / "leases.json"
        publish_campaign(tiny_engine(), POINTS, board)
        stores = {name: ResultStore(tmp_path / name) for name in ("a", "b")}
        recorded = executed = 0
        for turn in range(8):
            name = "ab"[turn % 2]
            stats = work_campaign(board, stores[name], name, max_points=12)
            counters = stats["metrics"]["counters"]
            recorded += counters.get("exec.opstream_recorded", {}).get("total", 0)
            executed += stats["executed"]
            if stats["claimed"] == 0:
                break
        assert executed == 48
        assert recorded == 8
        assert LeaseBoard(board).done()
        merged = ResultStore(tmp_path / "merged")
        merge_into_store(merged, list(stores.values()))
        single = tiny_engine()
        assert single.run(POINTS).ok
        assert verify_stores_match(merged, single.store) == []

    def test_group_outlives_a_ttl_shorter_than_itself(self, backend, clock, monkeypatch):
        """Each point takes 1 s of the shared clock, the TTL is 2.5 s and
        the group 6 s: renewing at half the TTL keeps every lease ours, so
        an intruder claiming after every point finds nothing to reclaim."""
        publish_campaign(tiny_engine(), VARIANTS, _board(backend, clock))
        intruder = _board(backend, clock)
        stolen = []
        real = federation.execute_point

        def one_second(*args, **kwargs):
            record = real(*args, **kwargs)
            clock.advance(1.0)
            stolen.append(intruder.claim("intruder", ttl=2.5))
            return record

        renewals = []
        real_heartbeat = LeaseBoard.heartbeat

        def counted(self, *args, **kwargs):
            renewals.append(args)
            return real_heartbeat(self, *args, **kwargs)

        monkeypatch.setattr(federation, "execute_point", one_second)
        monkeypatch.setattr(LeaseBoard, "heartbeat", counted)
        stats = work_campaign(backend, ResultStore(None), "w0", ttl=2.5, now=clock)
        assert stats["executed"] == 6 and stats["lost"] == 0
        assert stolen == [None] * 6
        assert len(renewals) == 2  # at t = 2 and t = 4 s
        leases = _board(backend, clock).leases()
        assert {(lease.state, lease.worker, lease.attempts) for lease in leases} == {
            ("done", "w0", 0)
        }
