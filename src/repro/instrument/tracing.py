"""Two-clock span tracing exported as Chrome trace-event JSON.

One :class:`SpanTracer` records nested spans on two clocks at once:

* **virtual seconds** for simulated ranks — every
  :meth:`~repro.instrument.timeline.Timeline.add` attribution becomes
  one span carrying its phase, category and rank.  Placement needs no
  clock at all: a rank's attributions tile its virtual time ("every
  virtual second is attributed to exactly one cell"), so a per-rank
  cursor that advances by each attribution's duration reconstructs the
  exact span layout.  Recording is an append to a Python list — the
  simulation's event order, random streams and virtual clocks are
  untouched, so a traced run is bit-identical to an untraced one and
  observability charges **zero virtual seconds**.
* **wall-clock seconds** for host-side harness work — campaign engine
  scheduling, worker launch/retire, lease claims, store merges — via the
  :meth:`span` context manager or the :meth:`begin`/``end`` pair.

The export (:meth:`to_chrome`) is the Chrome trace-event format
(``chrome://tracing`` / Perfetto): complete ``"X"`` events with one
synthetic *process* per simulated rank and one per host-side track, plus
``"M"`` metadata naming them.  The two clocks share the file but not an
epoch — virtual processes start at t=0, wall processes at tracer
construction — which is exactly what you want when comparing a rank's
phase layout against the harness's scheduling behaviour side by side.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["SpanTracer", "Span", "validate_chrome_trace", "VIRTUAL_PID_BASE"]

#: Simulated rank r exports as process ``VIRTUAL_PID_BASE + r``; host-side
#: tracks take small pids below it, so the two families never collide.
VIRTUAL_PID_BASE = 1000


@dataclass(frozen=True)
class Span:
    """One complete span (either clock), in seconds on its timebase."""

    name: str
    cat: str
    pid: int
    tid: int
    start: float
    duration: float
    args: dict = field(default_factory=dict)


class _OpenSpan:
    """Handle for a wall-clock span whose end is not lexically scoped."""

    __slots__ = ("_tracer", "name", "track", "args", "_t0")

    def __init__(self, tracer: "SpanTracer", name: str, track: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self.args = args
        self._t0 = tracer._wall_now()

    def end(self, **more_args) -> float:
        """Close the span; returns its wall duration in seconds."""
        dur = self._tracer._wall_now() - self._t0
        self._tracer._emit_wall(self.name, self.track, self._t0, dur,
                                {**self.args, **more_args})
        return dur

    # context-manager sugar: ``with tracer.span(...)``
    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class SpanTracer:
    """Records spans on the virtual and wall clocks; exports Chrome JSON.

    Purely passive: attaching one to a run changes no virtual timestamp,
    no random stream and no result bit.  ``clock`` injects the wall clock
    for deterministic tests.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        # hot path: raw tuples, materialized into Span objects on demand —
        # a frozen-dataclass construction per Timeline.add would cost real
        # wall time on long runs (tens of thousands of attributions)
        self._raw: list[tuple] = []
        self._process_names: dict[int, str] = {}
        self._thread_names: dict[tuple[int, int], str] = {}
        self._cursors: dict[int, float] = {}
        self._host_pids: dict[str, int] = {}

    @property
    def spans(self) -> list[Span]:
        """All recorded spans (materialized from the raw append log)."""
        out: list[Span] = []
        for rec in self._raw:
            if rec[0] == "v":
                _, rank, phase, category, start, dt = rec
                out.append(Span(
                    name=f"{phase}:{category}", cat=phase,
                    pid=VIRTUAL_PID_BASE + rank, tid=0, start=start,
                    duration=dt,
                    args={"phase": phase, "category": category, "rank": rank},
                ))
            else:
                _, name, pid, start, dur, args = rec
                out.append(Span(name=name, cat="host", pid=pid, tid=0,
                                start=start, duration=dur, args=args))
        return out

    # -- virtual (simulated-rank) side ----------------------------------
    def attach_rank(self, rank: int, timeline) -> None:
        """Mirror every attribution of ``timeline`` as a span of ``rank``."""
        pid = VIRTUAL_PID_BASE + rank
        self._process_names.setdefault(pid, f"rank {rank} (virtual)")
        self._thread_names.setdefault((pid, 0), "timeline")
        timeline.attach_sink(
            lambda phase, category, dt, _rank=rank: self.record_virtual(
                _rank, phase, category, dt
            )
        )

    def record_virtual(self, rank: int, phase: str, category: str, dt: float) -> None:
        """One ``Timeline.add`` attribution as a span on the virtual clock.

        The per-rank cursor *is* the rank's attributed virtual time, so
        spans tile without ever reading the simulator's clock.
        Zero-duration attributions are skipped (they carry no area).
        """
        cursor = self._cursors.get(rank, 0.0)
        if dt > 0.0:
            self._raw.append(("v", rank, phase, category, cursor, dt))
        self._cursors[rank] = cursor + dt

    def virtual_seconds(self, rank: int) -> float:
        """Total virtual time attributed by ``rank`` so far (its cursor)."""
        return self._cursors.get(rank, 0.0)

    # -- wall (host-side) side -------------------------------------------
    def _wall_now(self) -> float:
        return self._clock() - self._epoch

    def _host_pid(self, track: str) -> int:
        pid = self._host_pids.get(track)
        if pid is None:
            pid = len(self._host_pids) + 1
            self._host_pids[track] = pid
            self._process_names[pid] = f"{track} (wall)"
            self._thread_names[(pid, 0)] = track
        return pid

    def _emit_wall(self, name: str, track: str, start: float, dur: float,
                   args: dict) -> None:
        self._raw.append(("w", name, self._host_pid(track), start, dur, args))

    def span(self, name: str, track: str = "host", **args) -> _OpenSpan:
        """Wall-clock span, usable as a context manager or via ``.end()``."""
        return _OpenSpan(self, name, track, args)

    begin = span  # explicit begin/end reads better around split control flow

    # -- export -----------------------------------------------------------
    def to_chrome(self) -> dict:
        """The Chrome trace-event document (Perfetto-loadable)."""
        events: list[dict] = []
        for pid, name in sorted(self._process_names.items()):
            events.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                 "args": {"name": name}}
            )
        for (pid, tid), name in sorted(self._thread_names.items()):
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": name}}
            )
        for span in sorted(self.spans, key=lambda s: (s.pid, s.start, s.tid)):
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.cat,
                    "pid": span.pid,
                    "tid": span.tid,
                    "ts": span.start * 1e6,  # trace-event ts is microseconds
                    "dur": span.duration * 1e6,
                    "args": span.args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()) + "\n")
        return path


def validate_chrome_trace(doc: dict) -> list[str]:
    """Structural lint of a trace document; returns problem strings.

    Checks what a viewer needs: a ``traceEvents`` list, every slice a
    complete ``"X"`` event with non-negative ``ts``/``dur`` and a
    pid/tid, and every pid named by a ``process_name`` metadata event.
    Used by the tests and the nightly CI artifact step.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["no traceEvents list"]
    named_pids = set()
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            named_pids.add(ev.get("pid"))
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            problems.append(f"event {i}: ph {ph!r} is not a complete ('X') event")
            continue
        if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
            problems.append(f"event {i} ({ev.get('name')}): bad ts {ev.get('ts')!r}")
        if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
            problems.append(f"event {i} ({ev.get('name')}): bad dur {ev.get('dur')!r}")
        if "pid" not in ev or "tid" not in ev:
            problems.append(f"event {i} ({ev.get('name')}): missing pid/tid")
        elif ev["pid"] not in named_pids:
            problems.append(f"event {i} ({ev.get('name')}): unnamed pid {ev['pid']}")
        if not ev.get("name"):
            problems.append(f"event {i}: unnamed slice")
    return problems
