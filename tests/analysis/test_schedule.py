"""Schedule failures surface where they happen: collective-order
divergence in the sanitizer (REP306), unmatched traffic in the drain
check, wait-for cycles in the deadlock error, and the SMP per-message
cost on the events of real runs."""

import numpy as np
import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.cluster import ClusterSpec, NodeSpec, score_gigabit_ethernet, tcp_gigabit_ethernet
from repro.instrument.commstats import CommTrace
from repro.mpi import MPIWorld, collectives
from repro.mpi.middleware import MPIMiddleware
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md
from repro.sim import SimulationError, Simulator

from .test_sanitizer import _divergent_collectives


def _run(n_ranks, program, seed=1, network=None, cpus=1, sanitize=False, trace=None):
    """Drive one program per rank to completion; return the world."""
    sim = Simulator()
    world = MPIWorld(
        sim,
        ClusterSpec(
            n_ranks=n_ranks,
            network=network or score_gigabit_ethernet(),
            node=NodeSpec(cpus_per_node=cpus),
            seed=seed,
        ),
        sanitize=sanitize,
        trace=trace,
    )
    for r in range(n_ranks):
        sim.spawn(program(world.endpoints[r]), name=f"r{r}")
    sim.run()
    return world


def _run_md_with_barrier(peptide_system, barrier):
    """One MD step at p=2 with the MPI middleware's barrier replaced."""

    class Middleware(MPIMiddleware):
        name = "buggy-barrier"

        def barrier(self, ep):
            yield from barrier(ep)

    system, positions = peptide_system
    options = RunOptions(
        middleware=Middleware(), config=MDRunConfig(n_steps=1, dt=0.0004)
    )
    spec = ClusterSpec(n_ranks=2, network=score_gigabit_ethernet(), seed=1)
    run_parallel_md(system, positions, spec, options)


def _message_events(world):
    return [e for e in world.trace.events if e.kind in ("send", "recv")]


def _allreduce_then_barrier(ep):
    data = yield from collectives.allreduce(ep, np.ones(64))
    yield from collectives.barrier(ep)
    return data


class TestSyntheticTraces:
    """:meth:`Sanitizer.check_collective`, and the drain and deadlock
    errors for the unmatched traffic the trace rules used to report."""

    def test_collective_order_divergence_rep204(self):
        san = Sanitizer()
        san.check_collective(0, 100, "allreduce")
        divergence = "REP306.*tag 100: rank 0 runs 'allreduce' but rank 1 runs 'barrier'"
        with pytest.raises(SanitizerError, match=divergence):
            san.check_collective(1, 100, "barrier")

    def test_identical_collective_sequences_are_clean(self):
        san = Sanitizer()
        for rank in (0, 1):
            san.check_collective(rank, 100, "allreduce")
            san.check_collective(rank, 116, "allgatherv")
        assert san.violations == []

    def test_unmatched_recv_rep202(self):
        def prog(ep):
            if ep.rank == 1:
                yield from ep.irecv(0, tag=7)  # posted, never matched
            yield from ep.compute(1e-3)

        world = _run(2, prog)
        with pytest.raises(SimulationError, match=r"recvs=\{\(0, 1, 7\): 1\}"):
            world.assert_drained()

    def test_unmatched_rendezvous_send_reports_blocked_sender(self, peptide_system):
        big = np.zeros(100_000)  # 800 KB — rendezvous on this network

        def barrier(ep):
            if ep.rank == 0:
                yield from ep.send(1, big, tag=45)  # blocks: nobody receives 45
            else:
                yield from ep.recv(0, tag=46)  # blocks: nobody sends 46

        with pytest.raises(
            SimulationError,
            match=r"deadlock.*messages=\{\(0, 1, 45\): 1\} recvs=\{\(0, 1, 46\): 1\}",
        ):
            _run_md_with_barrier(peptide_system, barrier)


class TestEndToEnd:
    def test_clean_collective_run_is_clean(self):
        world = _run(4, _allreduce_then_barrier, sanitize=True)
        world.sanitizer.check_final(world)
        world.assert_drained()

    def test_forgotten_receive_diagnosed(self):
        big = np.zeros(100_000)  # 800 KB — rendezvous on this network

        def prog(ep):
            if ep.rank == 0:
                yield from ep.isend(1, big, tag=9)
            else:
                yield from ep.compute(1.0)  # never posts the receive

        world = _run(2, prog)
        with pytest.raises(SimulationError, match=r"messages=\{\(0, 1, 9\): 1\}"):
            world.assert_drained()

    def test_mutual_recv_deadlock_diagnosed(self, peptide_system):
        def barrier(ep):
            yield from ep.recv(1 - ep.rank, tag=44)  # nobody ever sends

        with pytest.raises(SimulationError) as info:
            _run_md_with_barrier(peptide_system, barrier)
        message = str(info.value)
        assert message.startswith("deadlock: processes never finished: ['rank0', 'rank1']")
        assert "(1, 0, 44): 1" in message and "(0, 1, 44): 1" in message

    def test_dual_processor_events_carry_smp_multiplier(self):
        """The paper's dual-CPU TCP case: every per-message overhead in
        the trace is the uni-processor cost times the SMP
        stack-contention multiplier, asserted from trace events."""
        net = tcp_gigabit_ethernet()
        dual = _run(4, _allreduce_then_barrier, network=net, cpus=2, trace=CommTrace())
        uni = _run(4, _allreduce_then_barrier, network=net, cpus=1, trace=CommTrace())

        mult = net.smp_overhead_multiplier
        dual_msgs = _message_events(dual)
        uni_msgs = _message_events(uni)
        assert dual_msgs and len(dual_msgs) == len(uni_msgs)
        dual_by_key = sorted(dual_msgs, key=lambda e: (e.kind, e.key, e.seq))
        uni_by_key = sorted(uni_msgs, key=lambda e: (e.kind, e.key, e.seq))
        for d, u in zip(dual_by_key, uni_by_key):
            assert (d.kind, d.key, d.nbytes) == (u.kind, u.key, u.nbytes)
            assert d.overhead == pytest.approx(u.overhead * mult)
            assert d.overhead > u.overhead

    def test_smp_assertion_only_applies_where_the_cost_exists(self):
        """Uni-processor nodes, and dual nodes on an OS-bypass network,
        charge the uni-processor cost model on every message."""
        for network, cpus in ((tcp_gigabit_ethernet(), 1), (score_gigabit_ethernet(), 2)):
            world = _run(
                4, _allreduce_then_barrier, network=network, cpus=cpus, trace=CommTrace()
            )
            events = _message_events(world)
            assert events
            for ev in events:
                if ev.kind == "send":
                    expected = network.send_overhead + network.host_cost(ev.nbytes)
                else:
                    expected = network.recv_overhead
                assert ev.overhead == pytest.approx(expected, rel=1e-12), (network.name, cpus)

    def test_divergent_collective_order_detected_from_trace(self):
        """The silent SPMD killer: ranks disagree on which collective runs.

        At p=2 both operations draw the same tag and move the same bytes,
        so a plain run cross-matches them, drains cleanly and times the
        wrong operation; the sanitizer stops it at the second draw.
        """
        _run(2, _divergent_collectives).assert_drained()
        with pytest.raises(
            SanitizerError, match="REP306.*rank 0 runs 'allreduce' but rank 1 runs 'allgatherv'"
        ):
            _run(2, _divergent_collectives, sanitize=True)
