"""Point-to-point semantics: payload integrity, matching, timing split."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, myrinet_gm, tcp_gigabit_ethernet
from repro.mpi import MPIWorld
from repro.sim import SimulationError, Simulator


def _world(n=2, network=None, seed=1):
    sim = Simulator()
    spec = ClusterSpec(n_ranks=n, network=network or tcp_gigabit_ethernet(), seed=seed)
    return sim, MPIWorld(sim, spec)


def _run(sim, world, programs):
    procs = [sim.spawn(programs[r](world.endpoints[r]), name=f"r{r}") for r in range(len(programs))]
    sim.run()
    world.assert_drained()
    return [p.result for p in procs]


class TestBlockingSendRecv:
    def test_array_payload_delivered(self):
        sim, world = _world()
        data = np.arange(100, dtype=np.float64)

        def sender(ep):
            yield from ep.send(1, data, tag=7)

        def receiver(ep):
            got = yield from ep.recv(0, tag=7)
            return got

        results = _run(sim, world, [sender, receiver])
        assert np.array_equal(results[1], data)

    def test_payload_is_copied_at_send(self):
        sim, world = _world()
        data = np.zeros(10)

        def sender(ep):
            req = yield from ep.isend(1, data, tag=1)
            data[:] = 99.0  # mutate after send: receiver must not see this
            yield from req.wait()

        def receiver(ep):
            got = yield from ep.recv(0, tag=1)
            return got

        results = _run(sim, world, [sender, receiver])
        assert np.allclose(results[1], 0.0)

    def test_bytes_payload(self):
        sim, world = _world()

        def sender(ep):
            yield from ep.send(1, b"\x01\x02", tag=0)

        def receiver(ep):
            got = yield from ep.recv(0, tag=0)
            return got

        results = _run(sim, world, [sender, receiver])
        assert results[1] == b"\x01\x02"

    def test_tag_matching(self):
        sim, world = _world()

        def sender(ep):
            yield from ep.send(1, np.array([1.0]), tag=5)
            yield from ep.send(1, np.array([2.0]), tag=6)

        def receiver(ep):
            second = yield from ep.recv(0, tag=6)
            first = yield from ep.recv(0, tag=5)
            return first[0], second[0]

        results = _run(sim, world, [sender, receiver])
        assert results[1] == (1.0, 2.0)

    def test_fifo_per_tag(self):
        sim, world = _world()

        def sender(ep):
            for v in (1.0, 2.0, 3.0):
                yield from ep.send(1, np.array([v]), tag=0)

        def receiver(ep):
            got = []
            for _ in range(3):
                arr = yield from ep.recv(0, tag=0)
                got.append(arr[0])
            return got

        results = _run(sim, world, [sender, receiver])
        assert results[1] == [1.0, 2.0, 3.0]

    def test_sendrecv_exchanges(self):
        sim, world = _world()

        def prog(ep):
            other = yield from ep.sendrecv(
                1 - ep.rank, np.array([float(ep.rank)]), 1 - ep.rank, tag=3
            )
            return other[0]

        results = _run(sim, world, [prog, prog])
        assert results == [1.0, 0.0]


class TestValidation:
    def test_self_send_rejected(self):
        sim, world = _world()

        def prog(ep):
            yield from ep.send(0, b"x")

        sim.spawn(prog(world.endpoints[0]))
        with pytest.raises(ValueError):
            sim.run()

    def test_bad_rank_rejected(self):
        sim, world = _world()

        def prog(ep):
            yield from ep.send(5, b"x")

        sim.spawn(prog(world.endpoints[0]))
        with pytest.raises(ValueError):
            sim.run()

    def test_unsupported_payload_rejected(self):
        sim, world = _world()

        def prog(ep):
            yield from ep.send(1, [1, 2, 3])

        sim.spawn(prog(world.endpoints[0]))
        with pytest.raises(TypeError):
            sim.run()

    def test_missing_receiver_deadlocks(self):
        sim, world = _world()
        big = np.zeros(100_000)  # rendezvous: sender blocks forever

        def prog(ep):
            yield from ep.send(1, big)

        sim.spawn(prog(world.endpoints[0]), name="lonely")
        with pytest.raises(SimulationError):
            sim.run()

    def test_unmatched_recv_detected(self):
        sim, world = _world()

        def prog(ep):
            yield from ep.recv(1, tag=0)

        sim.spawn(prog(world.endpoints[0]), name="r0")
        with pytest.raises(SimulationError):
            sim.run()


class TestTiming:
    def test_compute_charges_comp(self):
        sim, world = _world()

        def prog(ep):
            yield from ep.compute(0.25)

        def idle(ep):
            yield from ep.compute(0.0)

        _run(sim, world, [prog, idle])
        totals = world.endpoints[0].timeline.grand_total()
        assert totals.comp == pytest.approx(0.25)
        assert totals.comm == 0.0

    def test_negative_compute_rejected(self):
        sim, world = _world()

        def prog(ep):
            yield from ep.compute(-1.0)

        sim.spawn(prog(world.endpoints[0]))
        with pytest.raises(ValueError):
            sim.run()

    def test_late_receiver_accrues_sync(self):
        sim, world = _world()
        payload = np.zeros(200_000)  # rendezvous

        def sender(ep):
            yield from ep.send(1, payload, tag=0)

        def receiver(ep):
            yield from ep.compute(0.5)  # make the sender wait
            got = yield from ep.recv(0, tag=0)
            return got.shape

        _run(sim, world, [sender, receiver])
        sender_totals = world.endpoints[0].timeline.grand_total()
        assert sender_totals.sync > 0.4  # waited ~0.5s for the receiver

    def test_early_receiver_accrues_sync(self):
        sim, world = _world()

        def sender(ep):
            yield from ep.compute(0.5)
            yield from ep.send(1, np.zeros(10), tag=0)

        def receiver(ep):
            got = yield from ep.recv(0, tag=0)
            return got.shape

        _run(sim, world, [sender, receiver])
        recv_totals = world.endpoints[1].timeline.grand_total()
        assert recv_totals.sync > 0.4

    def test_faster_network_faster_delivery(self):
        def run_on(network):
            sim, world = _world(network=network)
            payload = np.zeros(125_000)

            def sender(ep):
                yield from ep.send(1, payload, tag=0)

            def receiver(ep):
                yield from ep.recv(0, tag=0)

            _run(sim, world, [sender, receiver])
            return sim.now

        assert run_on(myrinet_gm()) < run_on(tcp_gigabit_ethernet())


class TestRequestCompletion:
    """A request is its own completion: a wait blocks until the matching
    engine completes it, and resumes through one zero-delay event."""

    @staticmethod
    def _delays(sim):
        """Every event delay scheduled on ``sim`` from now on."""
        delays = []
        schedule = sim.schedule

        def recording(delay, fn, *args):
            delays.append(delay)
            schedule(delay, fn, *args)

        sim.schedule = recording
        return delays

    def _wait_after_completion(self, payload, waiting_rank):
        """``waiting_rank`` waits on its request one second after posting it,
        long after the message has arrived; returns the event delays and the
        virtual seconds that wait took."""
        sim, world = _world()
        delays = self._delays(sim)
        seen = {}

        def prog(ep):
            if ep.rank == 0:
                req = yield from ep.isend(1, payload, tag=4)
            else:
                req = yield from ep.irecv(0, tag=4)
            if ep.rank != waiting_rank:
                yield from req.wait()
                return
            yield from ep.compute(1.0)
            assert req.done
            mark, t0 = len(delays), ep.now
            yield from req.wait()
            seen["delays"], seen["took"] = delays[mark:], ep.now - t0

        _run(sim, world, [prog, prog])
        return seen["delays"], seen["took"]

    def test_waiting_on_a_completed_eager_send_schedules_no_event(self):
        # an eager send completes when it is posted: its wait never blocks
        delays, took = self._wait_after_completion(np.zeros(10), waiting_rank=0)
        assert delays == [] and took == 0.0

    def test_waiting_on_a_completed_rendezvous_send_is_one_zero_delay_event(self):
        delays, took = self._wait_after_completion(np.zeros(100_000), waiting_rank=0)
        assert delays == [0.0] and took == 0.0

    def test_waiting_on_a_completed_receive_is_one_zero_delay_event(self):
        payload = np.zeros(10)
        delays, took = self._wait_after_completion(payload, waiting_rank=1)
        # ... then the receive-side copy, the one event that advances time
        net = tcp_gigabit_ethernet()
        assert delays == [0.0, net.host_cost(payload.nbytes)]
        assert took == pytest.approx(net.host_cost(payload.nbytes))

    def test_wait_blocks_until_the_message_arrives(self):
        sim, world = _world()

        def sender(ep):
            yield from ep.compute(3.0)
            yield from ep.send(1, b"hello", tag=2)

        def receiver(ep):
            req = yield from ep.irecv(0, tag=2)
            got = yield from req.wait()
            return ep.now, got

        _, (resumed_at, got) = _run(sim, world, [sender, receiver])
        assert resumed_at > 3.0 and got == b"hello"

    def test_every_blocked_receiver_resumes(self):
        sim, world = _world(3)

        def prog(ep):
            if ep.rank == 0:
                yield from ep.compute(1.0)
                for dest in (1, 2):
                    yield from ep.send(dest, np.array([float(dest)]), tag=1)
                return None
            got = yield from ep.recv(0, tag=1)
            return ep.now, got[0]

        results = _run(sim, world, [prog] * 3)
        assert [got for _, got in results[1:]] == [1.0, 2.0]
        assert all(resumed_at > 1.0 for resumed_at, _ in results[1:])

    def test_a_receive_completed_twice_raises(self):
        sim, world = _world()
        posted = []

        def sender(ep):
            yield from ep.send(1, b"x", tag=0)

        def receiver(ep):
            req = yield from ep.irecv(0, tag=0)
            posted.append(req)
            yield from req.wait()

        _run(sim, world, [sender, receiver])
        assert posted[0].done
        with pytest.raises(SimulationError, match="completed twice"):
            posted[0]._complete()
