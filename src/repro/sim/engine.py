"""Discrete-event simulation kernel with generator-based processes.

Rank programs are plain Python generators: real (numpy) computation runs
inline, and *virtual time* advances only at explicit yield points.  A
process yields an *effect*: :class:`Sleep` to advance its clock,
:class:`Await` to block on a :class:`Future`, or any object with a
``start(process)`` method that takes the process over and resumes it
with ``process._step(value)`` when done (the MPI layer's op batches,
:class:`repro.mpi.endpoint.OpBatch`).  Nested protocol code composes
with ``yield from``.

The kernel is deterministic: events at equal timestamps fire in scheduling
order (a monotonically increasing sequence number breaks ties).  An event
is a callable plus its arguments — a bound method, not a fresh closure
per event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

__all__ = ["Simulator", "Future", "Sleep", "Await", "Process", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


@dataclass
class Sleep:
    """Effect: resume the yielding process after ``duration`` sim-seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative sleep duration {self.duration}")

    def start(self, proc: "Process") -> None:
        proc.sim.schedule(self.duration, proc._step, None)


class Future:
    """A one-shot value that processes can await.

    ``resolve`` may be called at most once; awaiting an already-resolved
    future resumes the process without advancing time.  Waiters are
    callbacks taking the value; each is woken by its own zero-delay event.
    """

    __slots__ = ("resolved", "value", "_waiters")

    def __init__(self) -> None:
        self.resolved = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def resolve(self, sim: "Simulator", value: Any = None) -> None:
        if self.resolved:
            raise SimulationError("future resolved twice")
        self.resolved = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            sim.schedule(0.0, wake, value)

    def wake_on_resolve(self, sim: "Simulator", wake: Callable[[Any], None]) -> None:
        """Call ``wake(value)`` from a zero-delay event once resolved — now,
        if it already is."""
        if self.resolved:
            sim.schedule(0.0, wake, self.value)
        else:
            self._waiters.append(wake)


@dataclass
class Await:
    """Effect: block until ``future`` resolves; yields its value back."""

    future: Future

    def start(self, proc: "Process") -> None:
        self.future.wake_on_resolve(proc.sim, proc._step)


ProcessGen = Generator[Any, Any, Any]


class Process:
    """One running generator inside the simulator."""

    __slots__ = ("sim", "gen", "name", "done", "result")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "proc") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None

    def _step(self, send_value: Any = None) -> None:
        if self.done:
            raise SimulationError(f"stepping finished process {self.name}")
        try:
            effect = self.gen.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.sim._process_finished(self)
            return
        start = getattr(effect, "start", None)
        if start is None:
            raise SimulationError(
                f"process {self.name} yielded {effect!r}; expected an effect "
                "(Sleep, Await or an object with start(process))"
            )
        start(self)


# heap entries are plain (time, seq, fn, args) tuples: the unique seq
# breaks time ties before fn is ever compared, and tuple comparison runs
# in C — the event loop's hottest operation
_Event = tuple[float, int, Callable[..., None], tuple]


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        procs = [sim.spawn(rank_main(...), name=f"rank{r}") for r in range(p)]
        sim.run()
        results = [p.result for p in procs]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[_Event] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._live = 0

    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` after ``delay`` sim-seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay {delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Register a process; it takes its first step at the current time."""
        proc = Process(self, gen, name)
        self._processes.append(proc)
        self._live += 1
        self.schedule(0.0, proc._step, None)
        return proc

    def _process_finished(self, proc: Process) -> None:
        self._live -= 1

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Drain the event queue; returns the final simulation time.

        Raises :class:`SimulationError` if processes remain blocked when
        the queue empties (deadlock), which is how lost messages and
        mismatched collectives surface in tests.
        """
        while self._heap:
            ev = heapq.heappop(self._heap)
            ev_time = ev[0]
            if until is not None and ev_time > until:
                heapq.heappush(self._heap, ev)
                self.now = until
                return self.now
            if ev_time < self.now - 1e-15:
                raise SimulationError("event queue went backwards")
            self.now = ev_time
            ev[2](*ev[3])
        if self._live > 0:
            stuck = [p.name for p in self._processes if not p.done]
            raise SimulationError(f"deadlock: processes never finished: {stuck}")
        return self.now
