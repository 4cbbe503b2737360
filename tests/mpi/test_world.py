"""World-level protocol invariants: eager vs rendezvous, causality, drain."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, score_gigabit_ethernet, tcp_gigabit_ethernet
from repro.mpi import MPIWorld
from repro.sim import SimulationError, Simulator


def _pingpong(network, nbytes, seed=1):
    """One message each way; returns (sim_time, world)."""
    sim = Simulator()
    world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=network, seed=seed))
    payload = np.zeros(max(1, nbytes // 8))

    def rank0(ep):
        yield from ep.send(1, payload, tag=0)
        yield from ep.recv(1, tag=1)

    def rank1(ep):
        yield from ep.recv(0, tag=0)
        yield from ep.send(0, payload, tag=1)

    sim.spawn(rank0(world.endpoints[0]), name="r0")
    sim.spawn(rank1(world.endpoints[1]), name="r1")
    total = sim.run()
    world.assert_drained()
    return total, world


class TestProtocols:
    def test_eager_sender_does_not_block(self):
        """An eager sender finishes even while the receiver computes."""
        net = tcp_gigabit_ethernet()
        sim = Simulator()
        world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=net, seed=1))
        done_at = {}

        def sender(ep):
            yield from ep.send(1, np.zeros(10), tag=0)  # tiny: eager
            done_at["sender"] = ep.now

        def receiver(ep):
            yield from ep.compute(1.0)
            yield from ep.recv(0, tag=0)

        sim.spawn(sender(world.endpoints[0]))
        sim.spawn(receiver(world.endpoints[1]))
        sim.run()
        assert done_at["sender"] < 0.1

    def test_rendezvous_sender_blocks(self):
        net = tcp_gigabit_ethernet()
        sim = Simulator()
        world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=net, seed=1))
        done_at = {}

        def sender(ep):
            yield from ep.send(1, np.zeros(100_000), tag=0)  # > eager threshold
            done_at["sender"] = ep.now

        def receiver(ep):
            yield from ep.compute(1.0)
            yield from ep.recv(0, tag=0)

        sim.spawn(sender(world.endpoints[0]))
        sim.spawn(receiver(world.endpoints[1]))
        sim.run()
        assert done_at["sender"] > 1.0

    def test_threshold_boundary_behaviour(self):
        net = dataclasses.replace(tcp_gigabit_ethernet(), eager_threshold=800)
        sim = Simulator()
        world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=net, seed=1))
        done = {}

        def sender(ep):
            yield from ep.send(1, np.zeros(100), tag=0)  # exactly 800 B: eager
            done["eager"] = ep.now
            yield from ep.send(1, np.zeros(101), tag=1)  # 808 B: rendezvous
            done["rendezvous"] = ep.now

        def receiver(ep):
            yield from ep.compute(0.5)
            yield from ep.recv(0, tag=0)
            yield from ep.recv(0, tag=1)

        sim.spawn(sender(world.endpoints[0]))
        sim.spawn(receiver(world.endpoints[1]))
        sim.run()
        assert done["eager"] < 0.1
        assert done["rendezvous"] > 0.5



class TestClosedFormTiming:
    """One ``sendrecv`` of n bytes each way between two uni nodes, timed
    against a closed form of :class:`NetworkParams` with the noise,
    congestion and interrupt terms switched off: the simulator's first
    timing oracle that does not come from the simulator."""

    NET = dataclasses.replace(
        tcp_gigabit_ethernet(),
        variability=0.0, congestion_variability=0.0, congestion_sensitivity=0.0,
        uses_interrupts=False,
    )
    THRESHOLD = NET.eager_threshold

    @staticmethod
    def _expected(net, n):
        """Each rank's end time and the two transfers, in closed form."""
        send_cost = net.send_overhead + net.cpu_byte_cost * n
        copy = net.cpu_byte_cost * n  # receive-side processing of the payload
        issued = net.recv_overhead + send_cost  # the receive is posted first
        occupancy = n / (net.bandwidth * net.base_efficiency)
        packets = max(1, math.ceil(n / net.packet_size))
        wire = net.latency + occupancy + packets * net.packet_overhead
        # rank 0's message leaves first; rank 1's waits for both NICs
        first = (issued, issued + wire, 0, 1, n)
        second = (issued + occupancy, issued + occupancy + wire, 1, 0, n)
        end0 = second[1] + copy
        end1 = first[1] + copy
        if n > net.eager_threshold:
            end1 = max(end1, second[1])  # its rendezvous send blocks
        return (end0, end1), [first, second]

    @pytest.mark.parametrize(
        "n", [1, 1000, THRESHOLD, THRESHOLD + 1, 4 * THRESHOLD + 3],
    )
    def test_sendrecv_matches_closed_form(self, n):
        sim = Simulator()
        world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=self.NET, seed=1))
        ends = {}

        def exchange(ep):
            peer = 1 - ep.rank
            yield from ep.sendrecv(peer, np.zeros(n, dtype=np.uint8), peer)
            ends[ep.rank] = ep.now

        for ep in world.endpoints:
            sim.spawn(exchange(ep))
        sim.run()
        world.assert_drained()
        want_ends, want_transfers = self._expected(self.NET, n)
        assert (ends[0], ends[1]) == pytest.approx(want_ends, rel=1e-12, abs=0)
        assert len(world.state.transfers) == 2
        for got, want in zip(world.state.transfers, want_transfers):
            assert got[2:] == want[2:]
            assert got[:2] == pytest.approx(want[:2], rel=1e-12, abs=0)


class TestCausality:
    @given(
        nbytes=st.integers(1, 500_000),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_time_at_least_two_latencies(self, nbytes, seed):
        net = score_gigabit_ethernet()
        total, _ = _pingpong(net, nbytes, seed)
        assert total >= 2 * net.latency

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_bigger_messages_never_faster(self, seed):
        net = score_gigabit_ethernet()
        small, _ = _pingpong(net, 1_000, seed)
        big, _ = _pingpong(net, 1_000_000, seed)
        assert big > small

    def test_transfer_records_have_positive_duration(self):
        _, world = _pingpong(tcp_gigabit_ethernet(), 50_000)
        assert world.state.transfers
        for rec in world.state.transfers:
            assert rec.end > rec.start
            assert rec.nbytes > 0

    def test_timeline_total_never_exceeds_sim_time(self):
        total, world = _pingpong(tcp_gigabit_ethernet(), 200_000)
        for ep in world.endpoints:
            assert ep.timeline.total_seconds() <= total + 1e-12


class TestDrainChecks:
    def test_assert_drained_raises_on_leftovers(self):
        sim = Simulator()
        world = MPIWorld(sim, ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet()))

        def sender(ep):
            yield from ep.send(1, np.zeros(4), tag=9)  # eager, never received

        sim.spawn(sender(world.endpoints[0]))
        sim.run()
        with pytest.raises(SimulationError, match="unmatched"):
            world.assert_drained()
