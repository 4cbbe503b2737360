"""Discrete-event kernel: ordering, sleeping, deadlock detection.

Blocking on another process is the MPI layer's requests
(``tests/mpi/test_endpoint.py::TestRequestCompletion``).
"""

import pytest

from repro.sim import SimulationError, Simulator, Sleep


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0

    def test_final_time(self):
        sim = Simulator()
        sim.schedule(4.5, lambda: None)
        assert sim.run() == pytest.approx(4.5)


class TestProcesses:
    def test_sleep_advances_clock(self):
        sim = Simulator()

        def proc():
            yield Sleep(1.5)
            yield Sleep(2.5)
            return sim.now

        p = sim.spawn(proc())
        sim.run()
        assert p.done
        assert p.result == pytest.approx(4.0)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-0.1)

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def proc(name, dt):
            for _ in range(3):
                yield Sleep(dt)
                log.append((name, sim.now))

        sim.spawn(proc("fast", 1.0))
        sim.spawn(proc("slow", 1.6))
        sim.run()
        names = [n for n, _ in log]
        times = [t for _, t in log]
        assert names == ["fast", "slow", "fast", "fast", "slow", "slow"]
        assert times == pytest.approx([1.0, 1.6, 2.0, 3.0, 3.2, 4.8])

    def test_bad_yield_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestDeadlock:
    def test_blocked_process_raises(self):
        sim = Simulator()

        class Never:
            """An effect that takes the process over and never resumes it."""

            def start(self, proc):
                pass

        def proc():
            yield Never()

        sim.spawn(proc(), name="stuck")
        with pytest.raises(SimulationError, match="stuck"):
            sim.run()

    def test_clean_shutdown_when_all_finish(self):
        sim = Simulator()

        def proc():
            yield Sleep(1.0)

        sim.spawn(proc())
        sim.run()  # must not raise
