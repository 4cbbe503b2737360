"""The static communication-schedule verifier (REP4xx).

The verifier must (a) prove the shipped strategies and middleware
collectives deadlock-free symbolically, with no rank program run, (b)
catch each archetypal schedule bug in the golden fixtures with the exact
rule and symbolic p-condition, and (c) extract the very op streams an
executed run records.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static_schedule import (
    extract_streams,
    extract_strategy_collective_ops,
    verify_contract_conformance,
    verify_middleware_collectives,
    verify_rank_program_source,
    verify_static,
    verify_strategy,
)
from repro.analysis.symbolic import SYMBOLIC_DTYPE, SYMBOLIC_NBYTES, Block, SymSize
from repro.mpi import collectives
from repro.mpi.endpoint import (
    BATCH_ENTRY, CHARGE, COMPUTE_ENTRY, DRAW_ENTRY, RECV, SEND, WAIT,
)

FIXTURES = Path(__file__).parent / "static"


def _verify_fixture(name: str, bound: int, entry: str | None = None):
    path = FIXTURES / f"{name}.py"
    return verify_rank_program_source(path.read_text(), str(path), bound=bound, entry=entry)


class TestGoldenFixtures:
    """Each archetypal schedule bug: exact rule, exact p-condition."""

    def test_deadlocking_exchange(self):
        diags = _verify_fixture("deadlock_exchange", bound=8)
        assert [d.rule for d in diags] == ["REP401"]
        assert diags[0].p_condition == "all p in [2, 8]"
        assert "wait-for cycle" in diags[0].message

    def test_zero_byte_exchange_deadlocks_too(self):
        """Every send is rendezvous, an empty one included."""
        diags = _verify_fixture("deadlock_exchange", bound=8, entry="zero_byte_rank_program")
        assert [d.rule for d in diags] == ["REP401"]
        assert diags[0].p_condition == "all p in [2, 8]"
        assert "wait-for cycle across ranks [0, 1]" in diags[0].message

    def test_odd_p_mismatch_beyond_sixteen_ranks(self):
        """The proof's cluster has a node per rank, past the default 16."""
        diags = _verify_fixture("odd_p_mismatch", bound=20)
        assert [d.rule for d in diags] == ["REP402"]
        assert diags[0].p_condition == "odd p in [3, 19]"

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
        diags = _verify_fixture("halo_exchange", bound=8, entry="bad_rank_program")
        assert [d.rule for d in diags] == ["REP401"]
        assert diags[0].p_condition == "all p in [2, 8]"
        assert "wait-for cycle" in diags[0].message

    @pytest.mark.parametrize("entry", ["dataclass_ring", "plain_ring", "accumulated_peer"])
    def test_peers_from_constructors_prove_clean(self, entry):
        """A dataclass's ``__post_init__``, a plain ``__init__`` and ``+=``
        are interpreted, so the peers they derive are known."""
        assert _verify_fixture("constructed_peers", bound=8, entry=entry) == []

    def test_odd_p_bug_in_a_post_init(self):
        diags = _verify_fixture("constructed_peers", bound=9, entry="halves_exchange")
        assert [d.rule for d in diags] == ["REP402"]
        assert diags[0].p_condition == "odd p in [3, 9]"
        assert "rank 2 waits for rank 1 to receive its send" in diags[0].message


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

    def test_inherited_members_are_interpreted(self):
        """``Ring`` inherits its constructor and ``right()``/``left()``
        from ``Base``: the destinations are statically known."""
        src = (
            "class Base:\n"
            "    def __init__(self, rank, size):\n"
            "        self.rank = rank\n"
            "        self.size = size\n"
            "    def right(self):\n"
            "        return (self.rank + 1) % self.size\n"
            "    def left(self):\n"
            "        return (self.rank - 1) % self.size\n"
            "\n"
            "class Ring(Base):\n"
            "    TAG = 9\n"
            "\n"
            "def rank_program(ep, mw):\n"
            "    if ep.size < 2:\n"
            "        return\n"
            "    ring = Ring(ep.rank, ep.size)\n"
            "    req = yield from ep.irecv(ring.left(), tag=ring.TAG)\n"
            "    yield from ep.send(ring.right(), b'data', tag=ring.TAG)\n"
            "    yield from req.wait()\n"
        )
        assert verify_rank_program_source(src, "inline.py", bound=4) == []

    def test_inheritance_follows_the_mro(self):
        """The subclass's ``step`` wins over its base's, and a dataclass
        binds its base's fields first: ``Shifted(size, shift)``."""
        src = (
            "@dataclass\n"
            "class Grid:\n"
            "    size: int\n"
            "    def step(self):\n"
            "        return self.unknown\n"
            "\n"
            "@dataclass\n"
            "class Shifted(Grid):\n"
            "    shift: int = 0\n"
            "    def step(self):\n"
            "        return self.shift\n"
            "\n"
            "def rank_program(ep, mw):\n"
            "    if ep.size < 2:\n"
            "        return\n"
            "    g = Shifted(ep.size, 1)\n"
            "    right = (ep.rank + g.step()) % g.size\n"
            "    left = (ep.rank - g.step()) % g.size\n"
            "    req = yield from ep.irecv(left, tag=9)\n"
            "    yield from ep.send(right, b'data', tag=9)\n"
            "    yield from req.wait()\n"
        )
        assert verify_rank_program_source(src, "inline.py", bound=4) == []

    def test_xor_partners(self):
        """``rank ^ 1`` pairs ranks exactly; at odd p the top rank's
        partner does not exist."""
        src = (
            "def rank_program(ep, mw):\n"
            "    peer = ep.rank ^ 1\n"
            "    yield from ep.sendrecv(peer, b'xor', peer, tag=3)\n"
        )
        diags = verify_rank_program_source(src, "inline.py", bound=6)
        assert [d.rule for d in diags] == ["REP406"]
        assert diags[0].p_condition == "odd p in [1, 5]"
        assert "bad source rank" in diags[0].message

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
        ops = [op for kind, _, body in ep.entries if kind == BATCH_ENTRY for op in body]
        sends = [op[3] for op in ops if op[0] == SEND]
        recvs = [op for op in ops if op[0] == RECV]
        # the markers equal every value: compare them by identity
        assert sends[0].nbytes is SYMBOLIC_NBYTES and sends[0].dtype is not SYMBOLIC_DTYPE
        assert sends[0].dtype == "float64"
        assert sends[1].nbytes is SYMBOLIC_NBYTES and sends[1].dtype is SYMBOLIC_DTYPE
        assert all(op[3] is SYMBOLIC_NBYTES and op[4] is SYMBOLIC_DTYPE for op in recvs)
        assert result[0] == block and all(isinstance(b, Block) for b in result)
        assert all(b.origin.startswith("msg@collectives.py:") for b in result[1:])


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


def _schedule(stream):
    """A stream's entries less its compute charges and attributions."""
    return [(kind, body) for kind, _, body in stream.entries if kind != COMPUTE_ENTRY]


class TestStaticStepEvents:
    def test_event_shape(self):
        streams = extract_streams("ppme", "mpi", p=2, n_steps=1)
        assert len(streams) == 2
        for stream in streams:
            assert stream.entries, "every rank communicates"
            assert len(stream.seconds) == 0, "no compute charges"
            for kind, body in _schedule(stream):
                assert kind in (DRAW_ENTRY, BATCH_ENTRY)
                if kind == BATCH_ENTRY:
                    assert all(op[0] in (SEND, RECV, WAIT, CHARGE) for op in body)
                    assert all(isinstance(op[2], int) for op in body if op[0] in (SEND, RECV))

    def test_collective_tags_use_the_runtime_scheme(self):
        """Every message tag is in the collective range: an offset below
        the stride from the last draw's, as a live rank's stream has it."""
        for stream in extract_streams("ppme", "mpi", p=2, n_steps=1):
            draws = 0
            for kind, body in _schedule(stream):
                draws += kind == DRAW_ENTRY
                for op in body if kind == BATCH_ENTRY else ():
                    if op[0] in (SEND, RECV):
                        assert draws > 0 and 0 <= op[2] < 16


def _live_streams(system, positions, p, middleware, strategy="replicated"):
    """Each rank's op stream as a live one-step run records it."""
    from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
    from repro.parallel import MDRunConfig, RunOptions, run_parallel_md
    from repro.parallel.shared import TrajectorySession

    session = TrajectorySession()
    run_parallel_md(
        system, positions,
        ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=7),
        RunOptions(
            middleware=middleware,
            config=MDRunConfig(n_steps=1, dt=0.0004),
            shared_compute=session.cache(),
            strategy=strategy,
        ),
    )
    [recorded] = session.trajectories.values()
    return recorded.streams


class TestCrosscheckAgainstExecution:
    """Static extraction vs a really-executed run: the statically
    extracted op streams equal the ones the run records, entry for entry.

    The odd and non-power-of-two p take MPI allreduce's reduce + bcast
    path and alltoallv's ring path, which p = 8 never executes."""

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_pme_step(self, peptide_system, p, middleware):
        system, pos = peptide_system
        live = _live_streams(system, pos, p, middleware)
        static = extract_streams("ppme", middleware, p=p, n_steps=1)
        assert [_schedule(s) for s in static] == [_schedule(s) for s in live]

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("p", [3, 6, 8])
    def test_spatial_step(self, p, middleware):
        from repro.campaign.workloads import build_workload

        system, pos = build_workload("water-box")
        live = _live_streams(system, pos, p, middleware, strategy="spatial")
        static = extract_streams("spatial", middleware, p=p, n_steps=1, profile="water-box")
        assert [_schedule(s) for s in static] == [_schedule(s) for s in live]

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("p", [3, 8])
    def test_classic_step(self, p, middleware):
        """The classic-only step: water-box has shift electrostatics and
        no PME, so the replicated run is barrier, allreduce, allgatherv."""
        from repro.campaign.workloads import build_workload

        system, pos = build_workload("water-box")
        assert not system.uses_pme
        live = _live_streams(system, pos, p, middleware)
        static = extract_streams("pclassic", middleware, p=p, n_steps=1)
        assert [_schedule(s) for s in static] == [_schedule(s) for s in live]

    @pytest.mark.parametrize("field", [1, 2], ids=["peer", "tag"])
    def test_one_changed_peer_or_tag_fails_it(self, peptide_system, field):
        system, pos = peptide_system
        live = [_schedule(s) for s in _live_streams(system, pos, 3, "mpi")]
        static = [_schedule(s) for s in extract_streams("ppme", "mpi", p=3, n_steps=1)]
        assert static == live
        i, (kind, body) = next(
            (i, entry) for i, entry in enumerate(static[1]) if entry[0] == BATCH_ENTRY
        )
        j = next(j for j, op in enumerate(body) if op[0] in (SEND, RECV))
        changed = list(body[j])
        changed[field] += 1
        static[1][i] = (kind, body[:j] + (tuple(changed),) + body[j + 1:])
        assert static != live
