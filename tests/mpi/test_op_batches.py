"""Op batches, the executor behind them, and op-stream record/replay.

The host-time ledger counts the substrate from outside — every message
through ``RankEndpoint.isend``, every heap event through
``Simulator.schedule``, every collective through
``RankEndpoint.next_collective_tag`` — so those counts are part of the
contract: ``TestLedgerCounts`` pins them on one p = 8 CMPI point at the
values the pre-executor substrate produced, for a live and a replayed run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.keys import point_seed
from repro.campaign.workloads import build_workload
from repro.cluster import ClusterSpec, myrinet_gm, tcp_gigabit_ethernet
from repro.cmpi import CMPIMiddleware
from repro.core.design import DesignPoint, full_factorial
from repro.core.factors import FOCAL_POINT
from repro.instrument.commstats import CommTrace
from repro.mpi import MPIWorld
from repro.mpi.endpoint import (
    CHARGE, RECV, SEND, WAIT, OpStreamRecorder, RankEndpoint, replay_program,
)
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md
from repro.parallel.shared import TrajectorySession
from repro.sim import Simulator

PINNED = DesignPoint(config=FOCAL_POINT.with_level("middleware", "cmpi"), n_ranks=8)
PINNED_CONFIG = MDRunConfig(n_steps=2, dt=0.0004)
#: counted at the pinned point before op batches existed (one generator
#: per endpoint call, one closure per event)
GOLDEN = {"events": 6224, "messages": 1008, "collectives": 144, "bytes": 449_680}


class _Counting:
    """The ledger's outside counters: wrappers installed on the classes."""

    def __init__(self, monkeypatch) -> None:
        self.counts = dict.fromkeys(("events", "messages", "collectives"), 0)
        for name, owner, attr in (
            ("events", Simulator, "schedule"),
            ("messages", RankEndpoint, "isend"),
            ("collectives", RankEndpoint, "next_collective_tag"),
        ):
            monkeypatch.setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


@pytest.fixture(scope="module")
def peptide_tiny():
    return build_workload("peptide-tiny")


def _run(system, positions, point, **options):
    spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(2002, point))
    opts = RunOptions.for_point(point, config=PINNED_CONFIG, **options)
    return run_parallel_md(system, positions, spec, opts)


class TestLedgerCounts:
    def test_live_run(self, peptide_tiny, monkeypatch):
        counting = _Counting(monkeypatch)
        trace = CommTrace()
        result = _run(*peptide_tiny, PINNED, trace=trace, shared_compute=False)
        assert counting.counts["messages"] == len(trace.by_kind("send"))
        assert counting.counts["collectives"] == len(trace.by_kind("collective"))
        assert sum(t.nbytes for t in result.transfers) == GOLDEN["bytes"]
        assert counting.counts == {k: GOLDEN[k] for k in counting.counts}

    def test_replayed_run(self, peptide_tiny):
        system, positions = peptide_tiny
        session = TrajectorySession()
        # another platform variant of the trajectory records it ...
        recorder = next(
            p for p in full_factorial()
            if p.n_ranks == 8 and p.config.middleware == "cmpi" and p.config != PINNED.config
        )
        _run(system, positions, recorder,
             shared_compute=session.cache())
        # ... and the pinned point replays it with the live run's counts
        with pytest.MonkeyPatch.context() as monkeypatch:
            counting = _Counting(monkeypatch)
            replayed = _run(
                system, positions, PINNED,
                shared_compute=session.cache(),
            )
        assert counting.counts == {k: GOLDEN[k] for k in counting.counts}
        assert sum(t.nbytes for t in replayed.transfers) == GOLDEN["bytes"]


# ---------------------------------------------------------------------------
def _world(n=2, network=tcp_gigabit_ethernet, seed=1):
    sim = Simulator()
    return sim, MPIWorld(sim, ClusterSpec(n_ranks=n, network=network(), seed=seed))


def _drive(sim, world, programs):
    procs = [sim.spawn(prog, name=f"r{r}") for r, prog in enumerate(programs)]
    sim.run()
    world.assert_drained()
    return [p.result for p in procs]


def _ring_program(ep, blocks):
    """Compute, a tag draw and one hand-built batch per round."""
    p = ep.size
    out = []
    for block in blocks:
        yield from ep.compute(1e-4 * (ep.rank + 1))
        tag = ep.next_collective_tag("ring")
        received = yield from ep.batch([
            (CHARGE, 2e-6),
            (RECV, (ep.rank - 1) % p, tag, None, None),
            (SEND, (ep.rank + 1) % p, tag, block),
            (WAIT, 0),
            (WAIT, 1),
        ])
        out.append(received[0])
    return out


class TestOpBatch:
    def test_batch_returns_received_payloads(self):
        sim, world = _world(3)
        blocks = [np.full(4, float(r)) for r in range(3)]
        results = _drive(sim, world, [_ring_program(ep, [blocks[ep.rank]])
                                      for ep in world.endpoints])
        for rank, (got,) in enumerate(results):
            np.testing.assert_array_equal(got, blocks[(rank - 1) % 3])

    def test_split_phase_handles_are_batches_too(self):
        sim, world = _world()
        log = []

        def sender(ep):
            req = yield from ep.isend(1, np.arange(3.0), tag=5)
            log.append(("posted", req.issued_at))
            yield from req.wait()

        def receiver(ep):
            req = yield from ep.irecv(0, tag=5)
            got = yield from req.wait()
            return got

        _, got = _drive(sim, world, [sender(world.endpoints[0]), receiver(world.endpoints[1])])
        np.testing.assert_array_equal(got, np.arange(3.0))
        assert log[0][1] > 0.0  # posted after the send's host overhead


class TestRecordAndReplay:
    def _record(self, blocks):
        sim, world = _world(3)
        interned: dict = {}
        recorders = [OpStreamRecorder(lambda v: interned.setdefault(v, v)) for _ in range(3)]
        for ep, rec in zip(world.endpoints, recorders):
            ep.recorder = rec
        _drive(sim, world, [_ring_program(ep, blocks) for ep in world.endpoints])
        return recorders, world

    def test_replay_reproduces_the_live_run_on_any_platform(self):
        blocks = [np.zeros(5), np.zeros(9000)]
        recorders, _ = self._record(blocks)
        assert all(r.replayable for r in recorders)
        for network, seed in ((tcp_gigabit_ethernet, 3), (myrinet_gm, 4)):
            sim, live = _world(3, network, seed)
            _drive(sim, live, [_ring_program(ep, blocks) for ep in live.endpoints])
            sim, replayed = _world(3, network, seed)
            _drive(sim, replayed, [replay_program(ep, rec.stream())
                                   for ep, rec in zip(replayed.endpoints, recorders)])
            assert replayed.state.transfers == live.state.transfers
            for a, b in zip(replayed.endpoints, live.endpoints):
                assert a.timeline == b.timeline

    def test_repeated_rounds_share_their_tables(self):
        recorders, _ = self._record([np.zeros(5)] * 4)
        stream = recorders[0].stream()
        # tags are offsets from the round's draw, payloads are sizes, so
        # four rounds record one batch entry four times
        batches = [entry for entry in stream.entries if isinstance(entry[2], tuple)]
        assert len(batches) == 4 and all(b is batches[0] for b in batches)
        assert len(stream.seconds) == 4

    def test_a_request_from_outside_the_batch_is_not_replayable(self):
        sim, world = _world()
        recorders = [OpStreamRecorder(lambda v: v) for _ in range(2)]
        for ep, rec in zip(world.endpoints, recorders):
            ep.recorder = rec

        def sender(ep):
            req = yield from ep.isend(1, b"x", tag=1)
            yield from req.wait()

        def receiver(ep):
            yield from ep.recv(0, tag=1)

        _drive(sim, world, [sender(world.endpoints[0]), receiver(world.endpoints[1])])
        assert not recorders[0].replayable
        assert recorders[1].replayable


def test_cmpi_sync_is_one_batch_per_call():
    """p - 1 rounds of charge/irecv/isend/waits, one yield per sync."""
    sim, world = _world(4)
    effects = []

    def prog(ep):
        for _ in range(3):
            yield from CMPIMiddleware().sync(ep)

    def counted(gen):
        value = None
        while True:
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                return stop.value
            effects.append(effect)
            value = yield effect

    _drive(sim, world, [counted(prog(ep)) for ep in world.endpoints])
    assert len(effects) == 4 * 3
    assert all(len(effect.ops) == 5 * 3 for effect in effects)
    assert all(ep.timeline.grand_total().sync > 0.0 for ep in world.endpoints)
