"""The static communication-schedule verifier (REP4xx).

The verifier must (a) prove the shipped strategies and middleware
collectives deadlock-free symbolically, with no run executed, (b) catch
each archetypal schedule bug in the golden fixtures with the exact rule
and symbolic p-condition, and (c) agree event-for-event with what an
executed run actually records.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static_schedule import (
    crosscheck_against_trace,
    extract_strategy_collective_ops,
    static_step_events,
    verify_contract_conformance,
    verify_middleware_collectives,
    verify_rank_program_source,
    verify_static,
    verify_strategy,
)
from repro.analysis.symbolic import Block, SymSize
from repro.mpi import collectives

FIXTURES = Path(__file__).parent / "static"


def _verify_fixture(name: str, bound: int):
    path = FIXTURES / f"{name}.py"
    return verify_rank_program_source(path.read_text(), str(path), bound=bound)


class TestGoldenFixtures:
    """Each archetypal schedule bug: exact rule, exact p-condition."""

    def test_deadlocking_exchange(self):
        diags = _verify_fixture("deadlock_exchange", bound=8)
        assert [d.rule for d in diags] == ["REP401"]
        assert diags[0].p_condition == "all p in [2, 8]"
        assert "wait-for cycle" in diags[0].message

    def test_tag_race(self):
        diags = _verify_fixture("tag_race", bound=4)
        assert [d.rule for d in diags] == ["REP404"]
        assert diags[0].p_condition == "all p in [2, 4]"
        assert diags[0].severity == "warning"
        assert "tag 3" in diags[0].message

    def test_odd_p_only_mismatch(self):
        """The bug every even-p local test misses; symbolic p finds it."""
        diags = _verify_fixture("odd_p_mismatch", bound=9)
        assert [d.rule for d in diags] == ["REP402"]
        assert diags[0].p_condition == "odd p in [3, 9]"
        assert "never posted" in diags[0].message

    def test_halo_exchange_ring_proves_clean(self):
        """The distilled spatial halo/migrate ring is deadlock-free."""
        assert _verify_fixture("halo_exchange", bound=9) == []

    def test_halo_exchange_seeded_bad_variant(self):
        """Send-before-recv in the same ring deadlocks at every p >= 2."""
        path = FIXTURES / "halo_exchange.py"
        diags = verify_rank_program_source(
            path.read_text(), str(path), bound=8, entry="bad_rank_program"
        )
        assert [d.rule for d in diags] == ["REP401"]
        assert diags[0].p_condition == "all p in [2, 8]"
        assert "wait-for cycle" in diags[0].message


class TestInlinePrograms:
    def test_size_disagreement_rep405(self):
        src = (
            "def rank_program(ep, mw):\n"
            "    if ep.size < 2:\n"
            "        return\n"
            "    if ep.rank == 0:\n"
            "        yield from ep.send(1, b'four', tag=2)\n"
            "    elif ep.rank == 1:\n"
            "        yield from ep.recv(0, tag=2, expect_nbytes=8)\n"
        )
        diags = verify_rank_program_source(src, "inline.py", bound=4)
        assert "REP405" in {d.rule for d in diags}
        rep405 = next(d for d in diags if d.rule == "REP405")
        assert "4" in rep405.message and "8" in rep405.message

    def test_clean_ring_passes(self):
        """A correct shift pattern (irecv-before-send) proves clean."""
        src = (
            "def rank_program(ep, mw):\n"
            "    if ep.size < 2:\n"
            "        return\n"
            "    right = (ep.rank + 1) % ep.size\n"
            "    left = (ep.rank - 1) % ep.size\n"
            "    req = yield from ep.irecv(left, tag=9)\n"
            "    yield from ep.send(right, b'data', tag=9)\n"
            "    yield from req.wait()\n"
        )
        assert verify_rank_program_source(src, "inline.py", bound=8) == []

    def test_undecidable_comm_branch_is_rep406(self):
        """Communication behind an unextractable condition is refused,
        not silently skipped — soundness over convenience."""
        src = (
            "def rank_program(ep, mw, flag):\n"
            "    if flag:\n"
            "        yield from mw.barrier(ep)\n"
        )
        diags = verify_rank_program_source(src, "inline.py", bound=4)
        assert [d.rule for d in diags] == ["REP406"]
        assert "statically" in diags[0].message

    def test_undecidable_comm_free_branch_is_fine(self):
        src = (
            "def rank_program(ep, mw, flag):\n"
            "    x = 0\n"
            "    if flag:\n"
            "        x = 1\n"
            "    yield from mw.barrier(ep)\n"
        )
        assert verify_rank_program_source(src, "inline.py", bound=4) == []

    def test_fixture_collectives_run_the_real_middleware(self):
        """``mw`` is the real MPI middleware: a barrier only rank 0 enters
        waits for messages no rank sends and diverges from rank 1's
        (empty) collective sequence at rank 0's tag draw."""
        src = (
            "def rank_program(ep, mw):\n"
            "    if ep.rank == 0:\n"
            "        yield from mw.barrier(ep)\n"
        )
        diags = verify_rank_program_source(src, "inline.py", bound=4)
        assert [d.rule for d in diags] == ["REP403", "REP406"]
        assert {d.p_condition for d in diags} == {"all p in [2, 4]"}
        divergence = diags[1]
        assert "rank 0 issues barrier at position 0, rank 1 issues <end>" in divergence.message
        draw = inspect.getsource(collectives.barrier).splitlines().index(
            '    tag = ep.next_collective_tag("barrier")'
        )
        assert divergence.path.endswith("repro/mpi/collectives.py")
        assert divergence.line == inspect.getsourcelines(collectives.barrier)[1] + draw

    def test_exception_inside_the_middleware_is_rep406(self):
        src = (
            "def rank_program(ep, mw):\n"
            "    yield from mw.alltoallv(ep, [b'x'])\n"
        )
        diags = verify_rank_program_source(src, "inline.py", bound=4)
        assert [d.rule for d in diags] == ["REP406"]
        assert diags[0].p_condition == "all p in [2, 4]"
        assert "need 2 send blocks" in diags[0].message
        assert diags[0].path.endswith("repro/mpi/collectives.py")

    def test_divergence_without_a_collective_keeps_its_location(self):
        """Rank 1 issues no collective: the finding points at rank 0's."""
        src = (
            "def rank_program(ep, mw):\n"
            "    if ep.rank == 0:\n"
            "        ep.next_collective_tag('halo')\n"
        )
        diags = verify_rank_program_source(src, "inline.py", bound=4)
        assert [d.rule for d in diags] == ["REP406"]
        assert diags[0].p_condition == "all p in [2, 4]"
        assert (diags[0].path, diags[0].line) == ("inline.py", 3)


class TestRecordingEndpoint:
    """The one boundary between symbolic and real payloads."""

    def test_stand_ins_map_back_to_their_payloads(self):
        from repro.analysis.static_schedule import UNKNOWN, _RecordingEndpoint

        ep = _RecordingEndpoint(0, 2)
        block = Block("x", SymSize(name="X"), "float64")
        a, b = ep.stand_in([block, UNKNOWN])
        assert ep.symbolic([np.asarray(a).copy(), b]) == [block, UNKNOWN]
        assert ep.symbolic(np.add(a, a)) is UNKNOWN  # a reduction is no block

    def test_middleware_sends_carry_their_blocks(self):
        """The ring allgatherv sends the caller's block, then forwards
        what it received, and declares nothing derived from a stand-in."""
        from repro.analysis.static_schedule import _RecordingEndpoint

        ep = _RecordingEndpoint(0, 3)
        block = Block("own", SymSize(name="B"), "float64")
        result = ep.drive(collectives.allgatherv(ep, ep.stand_in(block)))
        sends = [op for op in ep.ops if op.kind == "post_send"]
        recvs = [op for op in ep.ops if op.kind == "post_recv"]
        assert [(op.size, op.dtype) for op in sends[:1]] == [(SymSize(name="B"), "float64")]
        assert sends[1].size.name.startswith("msg@collectives.py:")
        assert all(not op.size.concrete and op.dtype is None for op in recvs)
        assert result[0] == block and all(isinstance(b, Block) for b in result)


class TestShippedStrategiesProveClean:
    """The acceptance bar: both strategies, both middlewares, symbolically."""

    @pytest.mark.parametrize("strategy", ["pclassic", "ppme", "spatial"])
    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    def test_strategy_clean(self, strategy, middleware):
        diags = verify_strategy(strategy, middleware, bound=6)
        formatted = "\n".join(d.format() for d in diags)
        assert diags == [], f"static findings:\n{formatted}"

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    def test_middleware_collectives_clean(self, middleware):
        diags = verify_middleware_collectives(middleware, bound=8)
        formatted = "\n".join(d.format() for d in diags)
        assert diags == [], f"static findings:\n{formatted}"

    def test_verify_static_clean(self):
        assert verify_static(bound=5) == []


class TestContractConformance:
    def test_extracted_pme_schedule_matches_figure_2(self):
        ops = extract_strategy_collective_ops("ppme", p=4)
        for rank_ops in ops:
            assert rank_ops == [
                "barrier", "alltoallv", "alltoallv", "allreduce", "allgatherv",
            ]

    def test_extracted_classic_schedule(self):
        ops = extract_strategy_collective_ops("pclassic", p=4)
        for rank_ops in ops:
            assert rank_ops == ["barrier", "allreduce", "allgatherv"]

    def test_extracted_spatial_schedule_is_neighbour_only(self):
        """p=8 water box splits (2,2,2): one halo pulse per dim and one
        migration round-trip per dim — no collective reductions at all."""
        ops = extract_strategy_collective_ops("spatial", p=8, profile="water-box")
        for rank_ops in ops:
            assert rank_ops == ["barrier"] + ["exchange"] * 12
            assert "allreduce" not in rank_ops

    @pytest.mark.parametrize("strategy", ["pclassic", "ppme", "spatial"])
    def test_conformance(self, strategy):
        diags = verify_contract_conformance(strategy, ps=(1, 2, 3, 4, 5, 8))
        formatted = "\n".join(d.format() for d in diags)
        assert diags == [], f"contract violations:\n{formatted}"


class TestStaticStepEvents:
    def test_event_shape(self):
        events = static_step_events("ppme", "mpi", p=2, n_steps=1)
        assert len(events) == 2
        for rank_events in events:
            assert rank_events, "every rank communicates"
            for kind, peer, tag, op, nbytes, dtype in rank_events:
                assert kind in ("send", "recv", "collective")
                assert isinstance(tag, int)

    def test_collective_tags_use_the_runtime_scheme(self):
        """Static tags are absolute integers in the collective range."""
        from repro.mpi.endpoint import COLLECTIVE_TAG_BASE

        events = static_step_events("ppme", "mpi", p=2, n_steps=1)
        tags = {t for rank in events for (_, _, t, _, _, _) in rank}
        assert all(t >= COLLECTIVE_TAG_BASE for t in tags)


class TestCrosscheckAgainstExecution:
    """Static extraction vs a really-executed trace, event for event.

    The odd and non-power-of-two p take MPI allreduce's reduce + bcast
    path and alltoallv's ring path, which p = 8 never executes."""

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_pme_step(self, peptide_system, p, middleware):
        from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
        from repro.instrument.commstats import CommTrace
        from repro.parallel import MDRunConfig, RunOptions, run_parallel_md

        system, pos = peptide_system
        trace = CommTrace()
        run_parallel_md(
            system, pos,
            ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=7),
            RunOptions(
                middleware=middleware,
                config=MDRunConfig(n_steps=1, dt=0.0004),
                trace=trace,
            ),
        )
        problems = crosscheck_against_trace(
            trace, strategy="ppme", middleware=middleware, p=p, n_steps=1
        )
        assert problems == [], "\n".join(problems)

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("p", [3, 6, 8])
    def test_spatial_step(self, p, middleware):
        from repro.campaign.workloads import build_workload
        from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
        from repro.instrument.commstats import CommTrace
        from repro.parallel import MDRunConfig, RunOptions, run_parallel_md

        system, pos = build_workload("water-box")
        trace = CommTrace()
        run_parallel_md(
            system, pos,
            ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=7),
            RunOptions(
                middleware=middleware,
                config=MDRunConfig(n_steps=1, dt=0.0004),
                trace=trace,
                strategy="spatial",
            ),
        )
        problems = crosscheck_against_trace(
            trace, strategy="spatial", middleware=middleware, p=p,
            n_steps=1, profile="water-box",
        )
        assert problems == [], "\n".join(problems)
