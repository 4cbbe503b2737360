"""The campaign engine: parallel, resumable design-point execution.

A *campaign* is any iterable of :class:`DesignPoint` over one named
workload.  The engine partitions points into cache hits and misses
against the :class:`ResultStore`, hands the misses to :func:`dispatch`
(design points are independent — the classic embarrassingly-parallel
sweep shape), and streams every completed record straight back into the
store, so a killed campaign resumes exactly where it stopped.

Two functions carry the execution policy for the whole package:

* :func:`execute_point` is where a :class:`DesignPoint` becomes a
  :class:`ResponseRecord`.  The engine (inline and pooled), ``verify``,
  the federated worker and :class:`CharacterizationRunner` all end in
  it, with the same deterministic crc32-derived platform seed, so
  records agree bit-for-bit however a point was produced.
* :func:`dispatch` is the loop that fans independent payloads out, in
  this process or one process per task (a group of payloads run in
  order), with a per-attempt timeout (the worker is killed, not
  abandoned) and bounded retries with exponential backoff.
  :meth:`CampaignEngine.run` (one task per trajectory group) and
  :meth:`CampaignEngine.verify` consume it.

Wall-clock reads in this module time the *harness itself* (scheduling,
per-point elapsed time for the manifest), never the simulation — hence
the ``noqa: REP104`` markers on those lines.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..core.design import DesignPoint
from ..core.responses import ResponseRecord
from ..instrument.commstats import communication_speeds
from ..instrument.metrics import REGISTRY, merge_metrics
from ..instrument.runlog import RunLog
from ..instrument.tracing import SpanTracer
from ..parallel.costmodel import PIII_1GHZ, MachineCostModel
from ..parallel.pmd import MDRunConfig
from ..parallel.run import RunOptions, run_parallel_md
from ..parallel.shared import TrajectorySession, trajectory_groups
from . import manifest as mf
from .keys import SCHEMA_VERSION, cache_key, point_seed, workload_fingerprint
from .store import ResultStore, record_to_dict
from .workloads import build_workload

__all__ = [
    "Attempt",
    "CampaignEngine",
    "CampaignResult",
    "campaign_id_for",
    "dispatch",
    "execute_built",
    "execute_point",
    "point_trace_path",
]


def point_trace_path(trace_dir, key: str) -> Path:
    """Where one executed point's span trace lands under ``trace_dir``."""
    return Path(trace_dir) / f"point-{key[:16]}.trace.json"


def campaign_id_for(keys: Iterable[str]) -> str:
    """The id of the campaign over this set of point keys, in any order."""
    h = hashlib.sha256()
    for k in sorted(keys):
        h.update(k.encode())
    return h.hexdigest()[:12]


def execute_built(
    system,
    positions,
    point: DesignPoint,
    config: MDRunConfig,
    cost: MachineCostModel,
    base_seed: int,
    sanitize: bool = False,
    span_trace_path=None,
    session: TrajectorySession | None = None,
) -> ResponseRecord:
    """Run one design point from scratch on an already-built workload.

    ``span_trace_path``, when given, attaches a fresh
    :class:`~repro.instrument.tracing.SpanTracer` to the run and writes
    its Chrome trace-event JSON there — wall-clock only, so it
    participates in neither the cache key nor the record.

    ``session``, when given, is the caller's
    :class:`~repro.parallel.shared.TrajectorySession`: the first run of a
    ``(p, middleware)`` trajectory records its op streams and the
    session's other platform variants of it replay them.  Wall-clock
    only as well; audits (``verify``) pass none.
    """
    spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(base_seed, point))
    tracer = SpanTracer() if span_trace_path is not None else None
    options = RunOptions.for_point(
        point, config=config, cost=cost, sanitize=sanitize, span_tracer=tracer,
        shared_compute=True if session is None else session.cache(),
    )
    if tracer is not None:
        with tracer.span("execute_point", track="engine", label=point.label()):
            result = run_parallel_md(system, positions, spec, options)
        tracer.write(span_trace_path)
    else:
        result = run_parallel_md(system, positions, spec, options)
    stats = communication_speeds(result.transfers)
    if stats.n_transfers:
        REGISTRY.histogram("run.comm_speed_mbs").observe(stats.mean)
    REGISTRY.counter("run.points_executed").increment()
    return ResponseRecord.from_run(point, result)


def execute_point(
    workload: str,
    point: DesignPoint,
    config: MDRunConfig,
    cost: MachineCostModel,
    base_seed: int,
    sanitize: bool = False,
    span_trace_path=None,
    session: TrajectorySession | None = None,
) -> ResponseRecord:
    """:func:`execute_built` over a named workload, in whatever process this is."""
    system, positions = build_workload(workload)
    return execute_built(
        system, positions, point, config, cost, base_seed, sanitize, span_trace_path,
        session,
    )


def _execute_args(args: tuple) -> ResponseRecord:
    """The :func:`dispatch` target for design points."""
    return execute_point(*args)


# ---------------------------------------------------------------------------
@dataclass
class Attempt:
    """One execution attempt of one payload, as :func:`dispatch` reports it."""

    key: str
    #: 1 for the first try
    number: int
    #: the child process running it; None in-process
    pid: int | None = None
    #: "ok" | "failed" (the target raised) | "timeout" | "crashed"
    status: str = "ok"
    #: what the target returned, when it did
    doc: object = None
    error: str | None = None
    elapsed: float = 0.0
    #: the child's metrics-registry delta, for the parent to fold back in
    metrics: dict | None = None
    #: False when dispatch is going to launch this key again
    final: bool = True


def _child_main(target, task: list, out_queue) -> None:
    """Worker-process entry: run one task's ``(key, payload)`` attempts in
    order, posting each outcome as it lands.

    Each posted tuple carries the child's own metrics delta over that
    attempt (work counters, comm-speed observations) so the parent can
    fold per-process observability back into one campaign-wide snapshot.
    """
    for key, payload in task:
        before = REGISTRY.snapshot()  # fork copies the parent's live counters
        try:
            doc = target(payload)
        except Exception as exc:  # the parent decides whether to retry
            error = f"{type(exc).__name__}: {exc}"
            out_queue.put((key, "failed", None, error, REGISTRY.delta(before)))
        else:
            out_queue.put((key, "ok", doc, None, REGISTRY.delta(before)))


def _ignore(attempt: Attempt) -> None:
    pass


def dispatch(
    target: Callable,
    payloads: dict,
    n_workers: int = 0,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.25,
    on_launch: Callable[[Attempt], None] = _ignore,
    on_settle: Callable[[Attempt], None] = _ignore,
    groups: Iterable[Iterable] | None = None,
) -> dict[str, Attempt]:
    """Fan independent payloads out; returns each key's final attempt.

    ``payloads`` maps a key to the argument of ``target(payload) -> doc``,
    a module-level callable that raises on failure.  A key is tried up to
    ``1 + retries`` times.  ``on_launch`` sees every attempt as it starts
    and ``on_settle`` every attempt as it ends, so a caller can persist
    results while the rest are still running.

    ``n_workers <= 0`` runs the payloads in this process, in order — the
    reference that pooled output is asserted byte-identical against.
    Only ``Exception`` is caught, so an interrupt propagates; ``timeout``
    cannot be enforced and retries do not wait.  Otherwise ``groups``
    partitions the keys into tasks, launched in the order given (default:
    one task per key), and every task runs its keys one after another in
    its own process, ``n_workers`` at a time; each key still
    settles on its own as its outcome is posted: an attempt that
    overruns ``timeout`` seconds is terminated with its process, one
    whose process dies without posting is ``crashed``, and either way the
    task's unstarted keys go back to the front of the queue as a new
    task.  A retry runs as a task of its own; retry ``n`` waits
    ``backoff * 2**(n - 1)`` seconds.
    """
    final: dict[str, Attempt] = {}

    def settle(attempt, elapsed, status, doc=None, error=None, metrics=None) -> None:
        attempt.elapsed, attempt.status, attempt.doc = elapsed, status, doc
        attempt.error, attempt.metrics = error, metrics
        attempt.final = status == "ok" or attempt.number > retries
        if attempt.final:
            final[attempt.key] = attempt
        on_settle(attempt)

    if n_workers <= 0:
        for key in payloads:
            number = 0
            while key not in final:
                number += 1
                attempt = Attempt(key, number)
                on_launch(attempt)
                started = time.monotonic()  # noqa: REP104 — harness wall time
                try:
                    outcome = ("ok", target(payloads[key]))
                except Exception as exc:
                    outcome = ("failed", None, f"{type(exc).__name__}: {exc}")
                settle(attempt, time.monotonic() - started, *outcome)  # noqa: REP104
        return final

    methods = multiprocessing.get_all_start_methods()
    # fork where available: children share the built workload's pages
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    out_queue = ctx.Queue()
    if groups is None:
        groups = [[key] for key in payloads]
    # (a task's attempts, in run order; not before)
    pending = deque((deque(Attempt(key, 1) for key in group), 0.0) for group in groups)
    live: dict[str, tuple] = {}  # key running -> (process, started, its task's attempts)

    def start(proc, attempts, started) -> None:
        attempt = attempts[0]
        attempt.pid = proc.pid
        live[attempt.key] = (proc, started, attempts)
        on_launch(attempt)

    def retire(key, status, doc=None, error=None, metrics=None) -> None:
        proc, started, attempts = live.pop(key)
        attempt = attempts.popleft()
        now = time.monotonic()  # noqa: REP104
        goes_on = status in ("ok", "failed")  # the child runs the task's next key
        if not (goes_on and attempts):
            proc.join(timeout=5)
        settle(attempt, now - started, status, doc, error, metrics)
        if attempts:
            if goes_on:
                start(proc, attempts, now)
            else:
                pending.appendleft((attempts, 0.0))
        if not attempt.final:
            delay = backoff * (2 ** (attempt.number - 1))
            pending.append(
                (deque([Attempt(key, attempt.number + 1)]), now + delay)
            )

    while pending or live:
        now = time.monotonic()  # noqa: REP104 — harness wall time
        while pending and len(live) < n_workers and pending[0][1] <= now:
            attempts = pending.popleft()[0]
            proc = ctx.Process(
                target=_child_main,
                args=(target, [(a.key, payloads[a.key]) for a in attempts], out_queue),
                daemon=True,
            )
            proc.start()
            start(proc, attempts, time.monotonic())  # noqa: REP104

        try:
            posted = out_queue.get(timeout=0.05)
        except queue_mod.Empty:
            pass
        else:
            if posted[0] in live:
                retire(*posted)
            continue

        now = time.monotonic()  # noqa: REP104
        for key, (proc, started, _) in list(live.items()):
            if key not in live:
                continue
            if timeout is not None and now - started > timeout:
                proc.terminate()
                retire(key, "timeout", error=f"timed out after {timeout} s")
            elif not proc.is_alive():
                # died without posting; give its message a moment to land
                try:
                    posted = out_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    retire(key, "crashed", error=f"worker exited with code {proc.exitcode}")
                else:
                    if posted[0] in live:
                        retire(*posted)
        if not live and pending and pending[0][1] > now:
            time.sleep(min(0.05, pending[0][1] - now))
    return final


# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What one :meth:`CampaignEngine.run` call produced."""

    manifest: mf.CampaignManifest
    #: one record per input point, in input order (None for failed/timeout)
    records: list[ResponseRecord | None]

    @property
    def ok(self) -> bool:
        c = self.manifest.counts
        return c["failed"] == 0 and c["timeout"] == 0 and c["pending"] == 0


@dataclass
class CampaignEngine:
    """Executes design-point campaigns over one named workload.

    Parameters
    ----------
    workload:
        A name from :mod:`repro.campaign.workloads`.
    store:
        Result store; defaults to a fresh memory-only store.  Hand every
        engine and runner the same persistent store and they share work.
    n_workers:
        ``0`` executes inline (no subprocesses, no timeout enforcement);
        ``n >= 1`` fans out over ``n`` worker processes, one per
        trajectory group.
    timeout:
        Per-point wall-time budget in seconds (workers only).  An
        overrunning worker is terminated, the point retried until
        ``retries`` is exhausted, then marked ``timeout``, and its
        group's unstarted points requeued.
    retries:
        Extra attempts after the first, for failed or timed-out points.
    backoff:
        Base of the exponential retry delay (seconds).
    trace_dir:
        When set, every executed point writes a Chrome span trace
        (``point-<key>.trace.json``) there, and the engine writes its own
        host-side trace (``campaign-<id>-host.trace.json``) covering
        scheduling, launches and retires.  Wall-clock only.
    """

    workload: str = "myoglobin-pme"
    config: MDRunConfig = field(default_factory=MDRunConfig)
    cost: MachineCostModel = PIII_1GHZ
    base_seed: int = 2002
    store: ResultStore = field(default_factory=ResultStore)
    n_workers: int = 0
    timeout: float | None = None
    retries: int = 1
    backoff: float = 0.25
    sanitize: bool = False
    trace_dir: str | None = None

    _fingerprint: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be > 0 seconds, got {self.timeout}")

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            system, positions = build_workload(self.workload)
            self._fingerprint = workload_fingerprint(system, positions)
        return self._fingerprint

    def key_for(self, point: DesignPoint) -> str:
        return cache_key(self.fingerprint, point, self.config, self.cost, self.base_seed)

    def meta(self, point: DesignPoint, elapsed: float, attempts: int) -> dict:
        """The store metadata of one point this engine's campaign executed."""
        return {
            "workload": self.workload,
            "label": point.label(),
            "elapsed": elapsed,
            "attempts": attempts,
            "git_rev": mf.git_revision(),
            "host": mf.host_info()["node"],
        }

    def point_trace(self, key: str):
        """This point's span-trace output path, or None when untraced."""
        if self.trace_dir is None:
            return None
        return point_trace_path(self.trace_dir, key)

    # ------------------------------------------------------------------
    def run(self, points, progress=None) -> CampaignResult:
        """Execute a campaign; cache hits cost nothing, misses fan out.

        ``progress`` is an optional callable receiving one human-readable
        line after every resolved point.
        """
        points = list(points)
        keys = [self.key_for(p) for p in points]
        man = mf.CampaignManifest(
            campaign_id=campaign_id_for(keys),
            workload=self.workload,
            created_at=mf.timestamp(),
            git_rev=mf.git_revision(),
            host=mf.host_info(),
            schema=SCHEMA_VERSION,
            points=[
                mf.PointStatus(label=p.label(), key=k) for p, k in zip(points, keys)
            ],
        )
        records: list[ResponseRecord | None] = [None] * len(points)

        t_start = time.monotonic()  # noqa: REP104 — harness wall time
        metrics_before = REGISTRY.snapshot()
        runlog = self._runlog(man.campaign_id)
        runlog.log("campaign_start", n_points=len(points), n_workers=self.n_workers)
        tracer = SpanTracer() if self.trace_dir is not None else None

        first: dict[str, int] = {}  # key of a miss -> index of its first copy
        for i, (point, key) in enumerate(zip(points, keys)):
            cached = self.store.get(key)
            if cached is not None:
                records[i] = cached
                man.points[i].status = "hit"
                REGISTRY.counter("campaign.points").increment(status="hit")
                REGISTRY.counter("campaign.cache_hits").increment()
                runlog.log("point_hit", key=key, label=point.label())
            elif key not in first:
                REGISTRY.counter("campaign.cache_misses").increment()
                first[key] = i

        def note() -> None:
            man.total_wall = time.monotonic() - t_start  # noqa: REP104
            if self.store.root is not None:
                man.write(self.store.root / "manifests" / f"{man.campaign_id}.json")
            if progress is not None:
                c = man.counts
                progress(
                    mf.progress_line(
                        man.campaign_id, man.n_points - c["pending"], man.n_points, c
                    )
                )

        worker_deltas: list[dict] = []
        spans: dict[str, object] = {}  # key -> open wall span (traced runs)
        track = "engine" if self.n_workers <= 0 else "pool"

        def log(event: str, attempt: Attempt, **fields) -> None:
            label = man.points[first[attempt.key]].label
            runlog.log(event, key=attempt.key, label=label, attempt=attempt.number, **fields)

        def launched(attempt: Attempt) -> None:
            log("point_launch", attempt, pid=attempt.pid)
            if tracer is not None:
                spans[attempt.key] = tracer.begin(
                    "point", track=track, key=attempt.key[:16], attempt=attempt.number
                )

        def settled(attempt: Attempt) -> None:
            if attempt.metrics:
                worker_deltas.append(attempt.metrics)
            if tracer is not None:
                spans.pop(attempt.key).end(status=attempt.status)
            if not attempt.final:
                log("point_retry", attempt, status=attempt.status, error=attempt.error)
                return
            i = first[attempt.key]
            ps = man.points[i]
            ps.status = {"ok": "ran", "timeout": "timeout"}.get(attempt.status, "failed")
            ps.attempts = attempt.number
            ps.wall_time = attempt.elapsed
            ps.error = attempt.error
            REGISTRY.counter("campaign.points").increment(status=ps.status)
            REGISTRY.counter("campaign.attempts").increment(attempt.number)
            if attempt.number > 1:
                REGISTRY.counter("campaign.retries").increment(attempt.number - 1)
            REGISTRY.histogram("campaign.point_wall_seconds").observe(attempt.elapsed)
            if attempt.status == "ok":
                records[i] = attempt.doc
                self.store.put(
                    attempt.key, attempt.doc,
                    self.meta(points[i], attempt.elapsed, attempt.number),
                )
            log("point_retire", attempt, status=ps.status, elapsed=attempt.elapsed,
                error=attempt.error)
            note()

        note()
        # a trajectory's points run one after another in one process —
        # inline, or the pooled child of its group, working on its copy of
        # the still empty session — so its platform variants replay its
        # first run
        session = TrajectorySession()
        dispatch(
            _execute_args,
            {
                key: (self.workload, points[i], self.config, self.cost, self.base_seed,
                      self.sanitize, self.point_trace(key), session)
                for key, i in first.items()
            },
            self.n_workers, self.timeout, self.retries, self.backoff,
            on_launch=launched, on_settle=settled,
            groups=trajectory_groups(first, point=lambda key: points[first[key]]).values(),
        )

        # every later copy of a repeated point takes the first copy's outcome
        for i, key in enumerate(keys):
            j = first.get(key, i)
            if j != i:
                records[i] = records[j]
                ran = man.points[j]
                man.points[i].status = "hit" if ran.status == "ran" else ran.status
                man.points[i].error = ran.error

        man.total_wall = time.monotonic() - t_start  # noqa: REP104
        man.metrics = merge_metrics(REGISTRY.delta(metrics_before), *worker_deltas)
        runlog.log("campaign_end", total_wall=man.total_wall, **man.counts)
        if tracer is not None:
            tracer.write(
                Path(self.trace_dir) / f"campaign-{man.campaign_id}-host.trace.json"
            )
        note()
        return CampaignResult(manifest=man, records=records)

    def _runlog(self, campaign_id: str) -> RunLog:
        """The engine's structured event log (in-memory for memory stores)."""
        path = None
        if self.store.root is not None:
            path = self.store.root / "logs" / f"campaign-{campaign_id}.jsonl"
        return RunLog(path, campaign=campaign_id, workload=self.workload)

    # ------------------------------------------------------------------
    def verify(self, sample: int = 4, seed: int = 0, n_workers: int = 0) -> list[dict]:
        """Re-run a sample of cached points; diff responses bit-for-bit.

        Only entries addressable by *this* engine (same workload, config,
        cost model and base seed) are eligible; an unknown workload, or a
        store holding no eligible entry, raises :class:`ValueError` rather
        than passing with nothing re-run.  Returns one dict per
        mismatching field; an empty list means every sampled record
        reproduced exactly.

        ``n_workers`` fans the re-runs out through :func:`dispatch` like
        :meth:`run` does for misses; ``0`` re-runs inline.  No timeout or
        retries — these points already executed successfully once — and
        a re-run that errors or dies surfaces as a ``__rerun__`` mismatch.
        Re-runs never get a trajectory session: an audit that replayed
        the run it is checking would prove nothing.
        """
        import numpy as np

        self.fingerprint  # an unknown workload raises here, store empty or not
        eligible = []
        for entry in self.store.entries():
            point = self._point_from_record(entry.record)
            if self.key_for(point) == entry.key:
                eligible.append((entry, point))
        if not eligible:
            raise ValueError(
                f"no stored entry is addressable by workload {self.workload!r} "
                f"with {self.config.n_steps} step(s) and seed {self.base_seed}: "
                "nothing to re-run"
            )
        eligible.sort(key=lambda pair: pair[0].key)
        rng = np.random.default_rng(seed)
        if len(eligible) > sample:
            idx = rng.choice(len(eligible), size=sample, replace=False)
            eligible = [eligible[i] for i in sorted(idx)]

        reruns = dispatch(
            _execute_args,
            {
                entry.key: (self.workload, point, self.config, self.cost, self.base_seed)
                for entry, point in eligible
            },
            n_workers,
        )

        mismatches = []
        for entry, point in eligible:
            rerun = reruns[entry.key]
            if rerun.status != "ok":
                found = [("__rerun__", None, rerun.error)]
            else:
                stored, fresh = record_to_dict(entry.record), record_to_dict(rerun.doc)
                found = [
                    (name, stored[name], fresh[name])
                    for name in stored
                    if stored[name] != fresh[name]
                    and not (
                        isinstance(stored[name], float)
                        and isinstance(fresh[name], float)
                        and np.isnan(stored[name])
                        and np.isnan(fresh[name])
                    )
                ]
            mismatches += [
                {"key": entry.key, "label": point.label(), "field": name,
                 "stored": was, "rerun": now}
                for name, was, now in found
            ]
        return mismatches

    @staticmethod
    def _point_from_record(record: ResponseRecord) -> DesignPoint:
        from ..core.factors import PlatformConfig

        return DesignPoint(
            config=PlatformConfig(
                network=record.network,
                middleware=record.middleware,
                cpus_per_node=record.cpus_per_node,
            ),
            n_ranks=record.n_ranks,
            replicate=record.replicate,
        )
