"""Runtime sanitizer: each invariant, live and on a replayed variant,
plus passivity on real workloads."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.cluster import (
    ClusterSpec,
    NodeSpec,
    score_gigabit_ethernet,
    tcp_gigabit_ethernet,
)
from repro.cluster.state import ClusterState, TransferPlan
from repro.instrument.timeline import Category
from repro.mpi import MPIWorld, collectives
from repro.mpi.endpoint import (
    EMPTY_PAYLOAD, SEND, OpBatch, OpStreamRecorder, replay_program,
)
from repro.mpi.middleware import MPIMiddleware
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md
from repro.sim import SimulationError, Simulator


def _spec(n_ranks=2, seed=1):
    return ClusterSpec(n_ranks=n_ranks, network=score_gigabit_ethernet(), seed=seed)


def _run_sanitized(program, n_ranks=2, spec=None):
    sim = Simulator()
    world = MPIWorld(sim, spec or _spec(n_ranks), sanitize=True)
    for ep in world.endpoints:
        sim.spawn(program(ep), name=f"r{ep.rank}")
    sim.run()
    return world


def _size_mismatch(ep):
    if ep.rank == 0:
        yield from ep.send(1, np.ones(10), tag=2)
    else:
        yield from ep.recv(0, tag=2, expect_nbytes=4)


def _dtype_mismatch(ep):
    if ep.rank == 0:
        yield from ep.send(1, np.ones(10, dtype=np.float64), tag=2)
    else:
        yield from ep.recv(0, tag=2, expect_dtype="int32")


def _orphan_send(ep):
    if ep.rank == 0:
        yield from ep.send(1, b"x", tag=3)  # eager; never received


def _divergent_collectives(ep):
    # same tag, same 64 B: a plain run cross-matches the two silently
    if ep.rank == 0:
        combined = yield from collectives.allreduce(ep, np.ones(8))
    else:
        combined = yield from collectives.allgatherv(ep, np.ones(8))
    return combined


def _exchange(ep):
    peer = 1 - ep.rank
    yield from ep.compute(1e-4)
    yield from ep.sendrecv(peer, np.ones(10), peer, tag=5, expect_nbytes=80)


class TestMessageInvariants:
    def test_size_mismatch_rep301(self):
        with pytest.raises(SanitizerError, match="REP301"):
            _run_sanitized(_size_mismatch)

    def test_dtype_mismatch_rep302(self):
        with pytest.raises(SanitizerError, match="REP302"):
            _run_sanitized(_dtype_mismatch)

    def test_agreeing_expectations_pass(self):
        def prog(ep):
            if ep.rank == 0:
                yield from ep.send(1, np.ones(10), tag=2)
            else:
                data = yield from ep.recv(
                    0, tag=2, expect_nbytes=80, expect_dtype="float64"
                )
                np.testing.assert_array_equal(data, np.ones(10))

        world = _run_sanitized(prog)
        world.sanitizer.check_final(world)  # also clean at shutdown

    def test_channel_collision_rep404(self):
        """The golden tag race, run live: rank 0 posts its second send
        before the slow receiver matched the first.  A warning: the run
        completes and drains."""
        path = Path(__file__).parent / "static" / "tag_race.py"
        spec = importlib.util.spec_from_file_location("tag_race", path)
        tag_race = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tag_race)
        slow_receiver = dataclasses.replace(score_gigabit_ethernet(), recv_overhead=1e-3)
        world = _run_sanitized(
            lambda ep: tag_race.rank_program(ep, MPIMiddleware()),
            spec=ClusterSpec(n_ranks=2, network=slow_receiver, seed=1),
        )
        world.sanitizer.check_final(world)
        [warning] = world.sanitizer.violations
        assert (warning.rule, warning.severity, warning.ranks) == ("REP404", "warning", (0, 1))
        assert "second in-flight send to rank 1 with tag 3" in warning.message


class TestPlanInvariants:
    def _plan(self, **kw):
        base = dict(start=0.0, end=1.0, nbytes=100, efficiency=0.5, intranode=False)
        base.update(kw)
        return TransferPlan(**base)

    def test_valid_plan_passes(self):
        Sanitizer().check_plan(self._plan(), ready_time=0.0)

    def test_negative_window_rep303(self):
        with pytest.raises(SanitizerError, match="REP303"):
            Sanitizer().check_plan(self._plan(start=5.0, end=4.0), ready_time=0.0)

    def test_start_before_ready_rep303(self):
        with pytest.raises(SanitizerError, match="REP303"):
            Sanitizer().check_plan(self._plan(start=0.0, end=1.0), ready_time=2.0)

    def test_bad_efficiency_rep303(self):
        with pytest.raises(SanitizerError, match="REP303"):
            Sanitizer().check_plan(self._plan(efficiency=0.0), ready_time=0.0)

    def test_non_strict_accumulates(self):
        san = Sanitizer(strict=False)
        san.check_plan(self._plan(start=5.0, end=4.0), ready_time=0.0)
        san.check_plan(self._plan(efficiency=2.0), ready_time=0.0)
        assert [d.rule for d in san.violations] == ["REP303", "REP303"]


class TestFinalInvariants:
    def test_overbooked_timeline_rep304(self):
        def prog(ep):
            yield from ep.compute(1.0)

        world = _run_sanitized(prog)
        # book a virtual second that never existed on the clock
        world.endpoints[0].timeline.add(Category.COMP, 1e9)
        with pytest.raises(SanitizerError, match="REP304"):
            world.sanitizer.check_final(world)

    def test_unclean_shutdown_rep305(self):
        def prog(ep):
            if ep.rank == 0:
                yield from ep.isend(1, b"x", tag=3)  # eager; never received

        world = _run_sanitized(prog)
        with pytest.raises(SanitizerError, match="REP305"):
            world.sanitizer.check_final(world)


class OrphanSendingMiddleware(MPIMiddleware):
    """MPI, except that rank 0 sends one message nobody receives per barrier."""

    name = "orphan"

    def barrier(self, ep):
        if ep.rank == 0:
            yield from ep.send(1, EMPTY_PAYLOAD, tag=77)
        yield from super().barrier(ep)


class TestLeftoverTraffic:
    """Unmatched traffic at the end of a run is a typed error: REP305 when
    the run is sanitized, the substrate's :class:`SimulationError` when not."""

    def _run(self, peptide_system, sanitize):
        system, positions = peptide_system
        options = RunOptions(
            middleware=OrphanSendingMiddleware(), config=MDRunConfig(n_steps=1, dt=0.0004),
            sanitize=sanitize,
        )
        run_parallel_md(system, positions, _spec(), options)

    def test_plain_run_raises_simulation_error(self, peptide_system):
        with pytest.raises(SimulationError, match=r"unmatched traffic.*\(0, 1, 77\)"):
            self._run(peptide_system, sanitize=False)

    def test_sanitized_run_reports_rep305(self, peptide_system):
        with pytest.raises(SanitizerError, match=r"REP305.*\(0, 1, 77\)"):
            self._run(peptide_system, sanitize=True)


class DoubleSendingMiddleware(MPIMiddleware):
    """MPI, except that each barrier first has rank 0 post two sends on one
    channel while rank 1 is still computing."""

    name = "double"

    def barrier(self, ep):
        if ep.rank == 0:
            yield from ep.batch(((SEND, 1, 78, EMPTY_PAYLOAD), (SEND, 1, 78, EMPTY_PAYLOAD)))
        elif ep.rank == 1:
            yield from ep.compute(1e-3)
            yield from ep.recv(0, tag=78)
            yield from ep.recv(0, tag=78)
        yield from super().barrier(ep)


def test_sanitized_run_keeps_channel_warnings(peptide_system):
    """REP404 warns without failing the run, and the run keeps it."""
    system, positions = peptide_system
    options = RunOptions(
        middleware=DoubleSendingMiddleware(), config=MDRunConfig(n_steps=1, dt=0.0004)
    )
    plain = run_parallel_md(system, positions, _spec(), options)
    sanitized = run_parallel_md(system, positions, _spec(), options.replace(sanitize=True))
    assert "sanitizer_warnings" not in plain.extra
    warnings = sanitized.extra["sanitizer_warnings"]
    assert warnings and {(w.rule, w.tag) for w in warnings} == {("REP404", 78)}


class TestCollectiveWindow:
    """REP304 for middlewares that book time they never sleep.

    Every op books exactly what it sleeps, so the executor's check at the
    end of each op batch catches a collective that books more, at the
    collective itself, with the bare middleware: no proxy around it.
    """

    def _drive(self, mw, n_ranks=2):
        sim = Simulator()
        world = MPIWorld(sim, _spec(n_ranks), sanitize=True)

        def prog(ep):
            yield from mw.barrier(ep)
            result = yield from mw.allreduce(ep, np.ones(4))
            np.testing.assert_array_equal(result, n_ranks * np.ones(4))

        for r in range(n_ranks):
            sim.spawn(prog(world.endpoints[r]), name=f"r{r}")
        sim.run()
        return world

    def test_overbooking_collective_rep304(self):
        class OverbookingMiddleware(MPIMiddleware):
            name = "overbooking"

            def barrier(self, ep):
                # charge overhead to the timeline without sleeping it —
                # the bug class this check exists to catch
                ep.timeline.add(Category.COMM, 1e-3)
                yield from super().barrier(ep)

        with pytest.raises(SanitizerError, match="REP304"):
            self._drive(OverbookingMiddleware())

    @pytest.mark.parametrize("name", ["mpi", "cmpi"])
    def test_shipped_middlewares_book_what_they_sleep(self, name):
        from repro.parallel.run import make_middleware

        world = self._drive(make_middleware(name))
        world.sanitizer.check_final(world)


def _record(program, spec):
    """Run ``program`` unsanitized on ``spec``; each rank's op stream."""
    sim = Simulator()
    world = MPIWorld(sim, spec)
    recorders = []
    for ep in world.endpoints:
        ep.recorder = OpStreamRecorder(lambda value: value)
        recorders.append(ep.recorder)
        sim.spawn(program(ep), name=f"r{ep.rank}")
    sim.run()
    assert all(recorder.replayable for recorder in recorders)
    return [recorder.stream() for recorder in recorders]


#: the platform a stream is recorded on, and the variant it is replayed on
RECORDED_ON = ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet(), seed=1)
REPLAYED_ON = ClusterSpec(
    n_ranks=2, network=score_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2), seed=7
)


def _replay_sanitized(streams, spec=REPLAYED_ON):
    """Replay recorded op streams in a sanitized world on another platform."""
    sim = Simulator()
    world = MPIWorld(sim, spec, sanitize=True)
    for ep, stream in zip(world.endpoints, streams):
        sim.spawn(replay_program(ep, stream), name=f"r{ep.rank}")
    sim.run()
    return world


class TestReplayedVariants:
    """Every REP3xx rule fires on a replay: the golden bad programs run
    unsanitized once, and their recorded op streams (payloads reduced to
    sizes) replay on another platform under the sanitizer."""

    def test_clean_replay_equals_live(self):
        world = _replay_sanitized(_record(_exchange, RECORDED_ON))
        world.sanitizer.check_final(world)
        live = _run_sanitized(_exchange, spec=REPLAYED_ON)
        assert [ep.timeline.phases for ep in world.endpoints] == [
            ep.timeline.phases for ep in live.endpoints
        ]

    def test_size_mismatch_rep301(self):
        streams = _record(_size_mismatch, RECORDED_ON)
        with pytest.raises(SanitizerError, match="REP301.*expected 4 B"):
            _replay_sanitized(streams)

    def test_dtype_mismatch_rep302(self):
        streams = _record(_dtype_mismatch, RECORDED_ON)
        with pytest.raises(SanitizerError, match="REP302"):
            _replay_sanitized(streams)

    def test_inverted_window_rep303(self, monkeypatch):
        streams = _record(_exchange, RECORDED_ON)

        def inverted(self, node, nbytes, ready_time, path):
            return TransferPlan(ready_time + 1.0, ready_time, nbytes, 1.0, True)

        # the variant's two ranks share a node: its transfers plan intranode
        monkeypatch.setattr(ClusterState, "_plan_intranode", inverted)
        with pytest.raises(SanitizerError, match="REP303"):
            _replay_sanitized(streams)

    def test_unslept_booking_rep304(self, monkeypatch):
        streams = _record(_exchange, RECORDED_ON)
        book_wait = OpBatch._book_wait

        def overbooking(self, transfer_start):
            book_wait(self, transfer_start)
            self.ep.timeline.add(Category.SYNC, 1.0)  # a second never slept

        monkeypatch.setattr(OpBatch, "_book_wait", overbooking)
        # raised at the batch, inside the run: not left to the final check
        with pytest.raises(SanitizerError, match="REP304"):
            _replay_sanitized(streams)

    def test_orphan_send_rep305(self):
        world = _replay_sanitized(_record(_orphan_send, RECORDED_ON))
        with pytest.raises(SanitizerError, match=r"REP305.*\(0, 1, 3\)"):
            world.sanitizer.check_final(world)

    def test_divergent_collectives_rep306(self):
        streams = _record(_divergent_collectives, RECORDED_ON)
        with pytest.raises(SanitizerError, match="REP306.*'allreduce'.*'allgatherv'"):
            _replay_sanitized(streams)


class TestPassivity:
    """Sanitizing must not perturb the measurement — bit-identical totals."""

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    def test_sanitized_run_matches_plain(self, peptide_system, middleware):
        system, positions = peptide_system
        config = MDRunConfig(n_steps=2, dt=0.0004)
        spec = _spec(n_ranks=2, seed=7)
        options = RunOptions(middleware=middleware, config=config)
        plain = run_parallel_md(system, positions, spec, options)
        sanitized = run_parallel_md(
            system, positions, spec, options.replace(sanitize=True)
        )
        phases = {p for tl in plain.timelines for p in tl.phases}
        for phase in sorted(phases):
            a, b = plain.component(phase), sanitized.component(phase)
            assert (a.comp, a.comm, a.sync) == (b.comp, b.comm, b.sync), phase
        np.testing.assert_array_equal(
            plain.final_positions, sanitized.final_positions
        )
