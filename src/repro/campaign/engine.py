"""The campaign runner: parallel, resumable design-point execution.

A *campaign* is any iterable of :class:`DesignPoint` over one named
workload.  The engine partitions points into cache hits and misses
against the :class:`ResultStore`, fans the misses out over a
``multiprocessing`` worker pool (design points are independent — the
classic embarrassingly-parallel sweep shape), and streams every
completed record straight back into the store, so a killed campaign
resumes exactly where it stopped.  Each point gets a per-point timeout
(the worker is killed, not abandoned), bounded retries with exponential
backoff, and the same deterministic crc32-derived platform seed the
:class:`CharacterizationRunner` uses — an engine-run record is
bit-identical to a runner-run one.

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

from ..core.design import DesignPoint
from ..core.responses import ResponseRecord
from ..instrument.commstats import communication_speeds
from ..instrument.metrics import REGISTRY, merge_metrics
from ..instrument.runlog import RunLog
from ..instrument.tracing import SpanTracer
from ..parallel.costmodel import PIII_1GHZ, MachineCostModel
from ..parallel.pmd import MDRunConfig
from ..parallel.run import RunOptions, run_parallel_md
from . import manifest as mf
from .keys import SCHEMA_VERSION, cache_key, point_seed, workload_fingerprint
from .store import ResultStore, record_from_dict, record_to_dict
from .workloads import build_workload

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "execute_point",
    "point_trace_path",
    "pool_map",
]


def point_trace_path(trace_dir, key: str) -> Path:
    """Where one executed point's span trace lands under ``trace_dir``."""
    return Path(trace_dir) / f"point-{key[:16]}.trace.json"


def execute_point(
    workload: str,
    point: DesignPoint,
    config: MDRunConfig,
    cost: MachineCostModel,
    base_seed: int,
    sanitize: bool = False,
    span_trace_path=None,
) -> ResponseRecord:
    """Run one design point from scratch, in whatever process this is.

    This is the single execution path shared by the inline engine, the
    worker processes and ``verify`` — and it performs exactly the calls
    :meth:`CharacterizationRunner.run_point` makes, so records agree
    bit-for-bit however a point was produced.  ``span_trace_path``, when
    given, attaches a fresh :class:`~repro.instrument.tracing.SpanTracer`
    to the run and writes its Chrome trace-event JSON there — wall-clock
    only, so it participates in neither the cache key nor the record.
    """
    system, positions = build_workload(workload)
    spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(base_seed, point))
    tracer = SpanTracer() if span_trace_path is not None else None
    options = RunOptions.for_point(
        point, config=config, cost=cost, sanitize=sanitize, span_tracer=tracer
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


def _worker_main(task: dict, out_queue) -> None:
    """Worker-process entry: run one point, post the record (or the error).

    The posted tuple carries the worker's own metrics delta (work
    counters, comm-speed observations) so the parent can fold
    per-process observability back into one campaign-wide snapshot.
    """
    before = REGISTRY.snapshot()  # fork copies the parent's live counters
    try:
        record = execute_point(
            task["workload"],
            task["point"],
            task["config"],
            task["cost"],
            task["base_seed"],
            sanitize=task["sanitize"],
            span_trace_path=task.get("trace_path"),
        )
        out_queue.put(
            (task["key"], "ok", record_to_dict(record), None, REGISTRY.delta(before))
        )
    except BaseException as exc:  # the parent decides whether to retry
        out_queue.put(
            (task["key"], "error", None, f"{type(exc).__name__}: {exc}",
             REGISTRY.delta(before))
        )


class _InlineQueue:
    """A list pretending to be a queue, for the ``n_workers <= 0`` path."""

    def __init__(self) -> None:
        self.items: list[tuple] = []

    def put(self, item) -> None:
        self.items.append(item)


def pool_map(target, payloads, n_workers: int, mp_context=None):
    """Fan independent payloads out over single-task worker processes.

    The generic pool shape every fan-out in this package shares (the
    engine's verify re-runs, the analytics map stage): ``target(payload,
    out_queue)`` runs in its own process and must post exactly one
    ``(key, status, doc, error, metrics_delta)`` tuple, where ``key`` is
    ``payload["key"]`` and ``status`` is ``"ok"`` for a result.  No
    timeout, no retries — callers that need those use
    :class:`CampaignEngine` itself.

    Returns ``(docs, errors, deltas)``: per-key result documents, per-key
    error strings (including workers that died without posting), and the
    workers' metrics deltas for the parent to fold back into its own
    registry view.

    ``n_workers <= 0`` runs every payload inline, in order, through the
    same posting protocol (no subprocesses) — the reference path that
    parallel output is asserted byte-identical against.
    """
    docs: dict[str, object] = {}
    errors: dict[str, str] = {}
    deltas: list[dict] = []

    def fold(item) -> None:
        key, status, doc, error, delta = item
        if delta:
            deltas.append(delta)
        if status == "ok":
            docs[key] = doc
        else:
            errors[key] = error

    if n_workers <= 0:
        out = _InlineQueue()
        for payload in payloads:
            target(payload, out)
        for item in out.items:
            fold(item)
        return docs, errors, deltas

    ctx = mp_context if mp_context is not None else CampaignEngine._mp_context()
    out_queue = ctx.Queue()
    todo = deque(payloads)
    live: dict[str, object] = {}  # key -> process

    def settle(item) -> None:
        proc = live.pop(item[0], None)
        if proc is not None:
            proc.join(timeout=5)
        fold(item)

    while todo or live:
        while todo and len(live) < n_workers:
            payload = todo.popleft()
            proc = ctx.Process(target=target, args=(payload, out_queue), daemon=True)
            proc.start()
            live[payload["key"]] = proc
        try:
            item = out_queue.get(timeout=0.05)
        except queue_mod.Empty:
            for key in list(live):
                proc = live.get(key)
                if proc is None or proc.is_alive():
                    continue
                # died without posting; give its message a moment to land
                try:
                    item2 = out_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    settle(
                        (key, "error", None,
                         f"worker exited with code {proc.exitcode}", None)
                    )
                else:
                    settle(item2)
        else:
            settle(item)
    return docs, errors, deltas


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
class _Task:
    key: str
    index: int
    point: DesignPoint
    attempts: int = 0
    not_before: float = 0.0
    elapsed: float = 0.0


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
        ``n >= 1`` fans out over ``n`` single-point worker processes.
    timeout:
        Per-point wall-time budget in seconds (workers only).  An
        overrunning worker is terminated, and the point retried until
        ``retries`` is exhausted, then marked ``timeout``.
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

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            system, positions = build_workload(self.workload)
            self._fingerprint = workload_fingerprint(system, positions)
        return self._fingerprint

    def key_for(self, point: DesignPoint) -> str:
        return cache_key(self.fingerprint, point, self.config, self.cost, self.base_seed)

    def _campaign_id(self, keys: list[str]) -> str:
        h = hashlib.sha256()
        for k in sorted(keys):
            h.update(k.encode())
        return h.hexdigest()[:12]

    def _meta(self, point: DesignPoint, elapsed: float, attempts: int) -> dict:
        return {
            "workload": self.workload,
            "label": point.label(),
            "elapsed": elapsed,
            "attempts": attempts,
            "git_rev": mf.git_revision(),
            "host": mf.host_info()["node"],
        }

    # ------------------------------------------------------------------
    def run(self, points, progress=None) -> CampaignResult:
        """Execute a campaign; cache hits cost nothing, misses fan out.

        ``progress`` is an optional callable receiving one human-readable
        line after every resolved point.
        """
        points = list(points)
        keys = [self.key_for(p) for p in points]
        man = mf.CampaignManifest(
            campaign_id=self._campaign_id(keys),
            workload=self.workload,
            created_at=mf.timestamp(),
            git_rev=mf.git_revision(),
            host=mf.host_info(),
            schema=SCHEMA_VERSION,
            points=[
                mf.PointStatus(label=p.label(), key=k) for p, k in zip(points, keys)
            ],
        )
        by_key = {k: i for i, k in enumerate(keys)}
        records: list[ResponseRecord | None] = [None] * len(points)

        t_start = time.monotonic()  # noqa: REP104 — harness wall time
        metrics_before = REGISTRY.snapshot()
        runlog = self._runlog(man.campaign_id)
        runlog.log("campaign_start", n_points=len(points), n_workers=self.n_workers)
        tracer = SpanTracer() if self.trace_dir is not None else None

        misses: list[_Task] = []
        for i, (point, key) in enumerate(zip(points, keys)):
            cached = self.store.get(key)
            if cached is not None:
                records[i] = cached
                man.points[i].status = "hit"
                REGISTRY.counter("campaign.points").increment(status="hit")
                REGISTRY.counter("campaign.cache_hits").increment()
                runlog.log("point_hit", key=key, label=point.label())
            elif key in by_key and by_key[key] != i:
                # duplicate point in the input: resolved by the first copy
                continue
            else:
                REGISTRY.counter("campaign.cache_misses").increment()
                misses.append(_Task(key=key, index=i, point=point))

        def note() -> None:
            man.total_wall = time.monotonic() - t_start  # noqa: REP104
            if self.store.root is not None:
                man.write(self._manifest_path(man.campaign_id))
            if progress is not None:
                c = man.counts
                progress(
                    mf.progress_line(
                        man.campaign_id, man.n_points - c["pending"], man.n_points, c
                    )
                )

        note()
        worker_deltas: list[dict] = []
        if self.n_workers <= 0:
            self._run_inline(misses, man, records, note, runlog, tracer)
        else:
            self._run_pool(misses, man, records, note, runlog, tracer, worker_deltas)

        # duplicate inputs share the first copy's outcome
        for i, key in enumerate(keys):
            if records[i] is None and self.store.get(key) is not None:
                records[i] = self.store.get(key)
                if man.points[i].status == "pending":
                    man.points[i].status = "hit"

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

    def _point_trace(self, key: str):
        """This point's span-trace output path, or None when untraced."""
        if self.trace_dir is None:
            return None
        return point_trace_path(self.trace_dir, key)

    # ------------------------------------------------------------------
    def _resolve(
        self,
        man: mf.CampaignManifest,
        records: list,
        task: _Task,
        status: str,
        record: ResponseRecord | None,
        error: str | None,
    ) -> None:
        ps = man.points[task.index]
        ps.status = status
        ps.attempts = task.attempts
        ps.wall_time = task.elapsed
        ps.error = error
        REGISTRY.counter("campaign.points").increment(status=status)
        REGISTRY.counter("campaign.attempts").increment(task.attempts)
        if task.attempts > 1:
            REGISTRY.counter("campaign.retries").increment(task.attempts - 1)
        REGISTRY.histogram("campaign.point_wall_seconds").observe(task.elapsed)
        if record is not None:
            records[task.index] = record
            self.store.put(
                task.key, record, self._meta(task.point, task.elapsed, task.attempts)
            )

    def _run_inline(self, misses, man, records, note, runlog, tracer) -> None:
        for task in misses:
            last_error = None
            plog = runlog.bind(key=task.key, label=task.point.label())
            while task.attempts <= self.retries:
                task.attempts += 1
                plog.log("point_launch", attempt=task.attempts)
                span = None
                if tracer is not None:
                    span = tracer.begin(
                        "point", track="engine",
                        key=task.key[:16], attempt=task.attempts,
                    )
                t0 = time.monotonic()  # noqa: REP104 — harness wall time
                try:
                    record = execute_point(
                        self.workload, task.point, self.config, self.cost,
                        self.base_seed, sanitize=self.sanitize,
                        span_trace_path=self._point_trace(task.key),
                    )
                except Exception as exc:
                    task.elapsed = time.monotonic() - t0  # noqa: REP104
                    last_error = f"{type(exc).__name__}: {exc}"
                    if span is not None:
                        span.end(status="error")
                    plog.log("point_retry", attempt=task.attempts, error=last_error)
                    continue
                task.elapsed = time.monotonic() - t0  # noqa: REP104
                if span is not None:
                    span.end(status="ran")
                self._resolve(man, records, task, "ran", record, None)
                plog.log("point_retire", attempt=task.attempts, status="ran",
                         elapsed=task.elapsed)
                break
            else:
                self._resolve(man, records, task, "failed", None, last_error)
                plog.log("point_retire", attempt=task.attempts, status="failed",
                         error=last_error)
            note()

    def _run_pool(self, misses, man, records, note, runlog, tracer, worker_deltas) -> None:
        ctx = self._mp_context()
        out_queue = ctx.Queue()
        pending: deque[_Task] = deque(misses)
        live: dict[str, tuple] = {}  # key -> (process, started, task)
        spans: dict[str, object] = {}  # key -> open wall span (traced runs)

        def launch(task: _Task) -> None:
            task.attempts += 1
            payload = {
                "key": task.key,
                "workload": self.workload,
                "point": task.point,
                "config": self.config,
                "cost": self.cost,
                "base_seed": self.base_seed,
                "sanitize": self.sanitize,
                "trace_path": self._point_trace(task.key),
            }
            proc = ctx.Process(target=_worker_main, args=(payload, out_queue), daemon=True)
            proc.start()
            live[task.key] = (proc, time.monotonic(), task)  # noqa: REP104
            runlog.log("point_launch", key=task.key, label=task.point.label(),
                       attempt=task.attempts, pid=proc.pid)
            if tracer is not None:
                spans[task.key] = tracer.begin(
                    "point", track="pool", key=task.key[:16], attempt=task.attempts
                )

        def retire(key: str, status: str, record_doc, error, metrics=None) -> None:
            proc, started, task = live.pop(key)
            task.elapsed = time.monotonic() - started  # noqa: REP104
            proc.join(timeout=5)
            if metrics:
                worker_deltas.append(metrics)
            span = spans.pop(key, None)
            if span is not None:
                span.end(status=status)
            if status == "ok":
                self._resolve(man, records, task, "ran", record_from_dict(record_doc), None)
                runlog.log("point_retire", key=key, attempt=task.attempts,
                           status="ran", elapsed=task.elapsed)
            elif task.attempts <= self.retries:
                delay = self.backoff * (2 ** (task.attempts - 1))
                task.not_before = time.monotonic() + delay  # noqa: REP104
                runlog.log("point_retry", key=key, attempt=task.attempts,
                           status=status, error=error)
                pending.append(task)
                return
            else:
                final = "timeout" if status == "timeout" else "failed"
                self._resolve(man, records, task, final, None, error)
                runlog.log("point_retire", key=key, attempt=task.attempts,
                           status=final, error=error)
            note()

        while pending or live:
            now = time.monotonic()  # noqa: REP104 — harness wall time
            while pending and len(live) < self.n_workers:
                if pending[0].not_before > now:
                    break
                launch(pending.popleft())

            try:
                key, status, record_doc, error, wdelta = out_queue.get(timeout=0.05)
            except queue_mod.Empty:
                pass
            else:
                if key in live:
                    retire(key, "ok" if status == "ok" else "failed",
                           record_doc, error, wdelta)
                continue

            now = time.monotonic()  # noqa: REP104
            for key in list(live):
                if key not in live:
                    continue
                proc, started, task = live[key]
                if self.timeout is not None and now - started > self.timeout:
                    proc.terminate()
                    retire(key, "timeout", None, f"timed out after {self.timeout} s")
                elif not proc.is_alive():
                    # died without posting; give its message a moment to land
                    try:
                        k2, s2, doc2, err2, wd2 = out_queue.get(timeout=0.5)
                    except queue_mod.Empty:
                        retire(
                            key, "crashed", None,
                            f"worker exited with code {proc.exitcode}",
                        )
                    else:
                        if k2 in live:
                            retire(k2, "ok" if s2 == "ok" else "failed", doc2, err2, wd2)
            if not live and pending and pending[0].not_before > now:
                time.sleep(min(0.05, pending[0].not_before - now))

    @staticmethod
    def _mp_context():
        """Fork where available (shares the built workload pages); else spawn."""
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def _manifest_path(self, campaign_id: str):
        assert self.store.root is not None
        return self.store.root / "manifests" / f"{campaign_id}.json"

    # ------------------------------------------------------------------
    def verify(self, sample: int = 4, seed: int = 0, n_workers: int = 0) -> list[dict]:
        """Re-run a sample of cached points; diff responses bit-for-bit.

        Only entries addressable by *this* engine (same workload, config,
        cost model and base seed) are eligible.  Returns one dict per
        mismatching field; an empty list means every sampled record
        reproduced exactly.

        ``n_workers`` fans the re-runs out over worker processes exactly
        like :meth:`run` does for misses (verification is embarrassingly
        parallel over sampled points); ``0`` re-runs inline.  A worker
        that dies or errors surfaces as a ``__rerun__`` mismatch.
        """
        import numpy as np

        eligible = []
        for entry in self.store.entries():
            point = self._point_from_record(entry.record)
            if self.key_for(point) == entry.key:
                eligible.append((entry, point))
        eligible.sort(key=lambda pair: pair[0].key)
        rng = np.random.default_rng(seed)
        if len(eligible) > sample:
            idx = rng.choice(len(eligible), size=sample, replace=False)
            eligible = [eligible[i] for i in sorted(idx)]

        fresh_by_key, rerun_errors = self._rerun_points(eligible, n_workers)

        mismatches = []
        for entry, point in eligible:
            if entry.key in rerun_errors:
                mismatches.append(
                    {
                        "key": entry.key,
                        "label": point.label(),
                        "field": "__rerun__",
                        "stored": None,
                        "rerun": rerun_errors[entry.key],
                    }
                )
                continue
            fresh = fresh_by_key[entry.key]
            stored, rerun = record_to_dict(entry.record), record_to_dict(fresh)
            for name in stored:
                if stored[name] != rerun[name] and not (
                    isinstance(stored[name], float)
                    and isinstance(rerun[name], float)
                    and np.isnan(stored[name])
                    and np.isnan(rerun[name])
                ):
                    mismatches.append(
                        {
                            "key": entry.key,
                            "label": point.label(),
                            "field": name,
                            "stored": stored[name],
                            "rerun": rerun[name],
                        }
                    )
        return mismatches

    def _rerun_points(
        self, pairs: list[tuple], n_workers: int
    ) -> tuple[dict[str, ResponseRecord], dict[str, str]]:
        """Re-execute (entry, point) pairs; return records and errors by key.

        Reuses the package's generic worker pool (:func:`pool_map` over
        :func:`_worker_main`); no timeout or retries — verification
        re-runs points that already executed successfully once.
        """
        if n_workers <= 0:
            fresh = {}
            for entry, point in pairs:
                fresh[entry.key] = execute_point(
                    self.workload, point, self.config, self.cost, self.base_seed
                )
            return fresh, {}

        payloads = [
            {
                "key": entry.key,
                "workload": self.workload,
                "point": point,
                "config": self.config,
                "cost": self.cost,
                "base_seed": self.base_seed,
                "sanitize": False,
            }
            for entry, point in pairs
        ]
        docs, errors, _ = pool_map(_worker_main, payloads, n_workers)
        return {key: record_from_dict(doc) for key, doc in docs.items()}, errors

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
