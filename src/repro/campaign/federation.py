"""Multi-host campaign fan-out: publish, work, merge, audit.

The three verbs of a federated campaign:

* :func:`publish_campaign` — one host enumerates the design points and
  writes the lease board (:mod:`repro.campaign.leases`);
* :func:`work_campaign` — any number of hosts pull leases a trajectory
  group at a time, execute the points through the exact single-host
  path (:func:`repro.campaign.engine.execute_point`) into their *own*
  result stores, and mark each group done;
* :func:`merge_into_store` — the worker stores fold back into one, with
  per-host provenance recorded in a merge manifest.

Everything rests on determinism: cache keys and per-point platform
seeds are pure functions of the published campaign description, so any
host computes the same key for the same point, and any two hosts that
execute the same point produce bit-identical records.  That is what
makes merging trivially safe (duplicates dedup, disagreements raise)
and what :func:`verify_stores_match` audits after a merge.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable

import json

from ..core.design import DesignPoint
from ..instrument.metrics import REGISTRY, merge_metrics
from ..instrument.runlog import RunLog
from ..parallel.costmodel import PIII_1GHZ, MachineCostModel
from ..parallel.pmd import MDRunConfig
from ..parallel.shared import TrajectorySession, trajectory_groups
from . import manifest as mf
from .board import Board, board_from_url
from .engine import CampaignEngine, campaign_id_for, execute_point
from .keys import SCHEMA_VERSION, cost_fingerprint
from .leases import Lease
from .store import ResultStore, record_digest

__all__ = [
    "publish_campaign",
    "work_campaign",
    "merge_into_store",
    "verify_stores_match",
]


# ---------------------------------------------------------------------------
def publish_campaign(
    engine: CampaignEngine,
    points: Iterable[DesignPoint],
    board: Board | str | Path,
    now: Callable[[], float] | None = None,
) -> dict:
    """Publish one campaign to a lease board; returns a summary dict.

    ``board`` is any :class:`~repro.campaign.board.Board`, or a board
    URL / file path resolved through
    :func:`~repro.campaign.board.board_from_url` (the historical
    path-only call form keeps working).

    The board carries everything a worker needs to reconstruct the
    engine *exactly* — workload name, every run-config field, base seed,
    sanitize flag — plus the cost-model fingerprint so a worker whose
    build carries a different calibration refuses to run rather than
    poison the store.  Points already satisfied by the serving store are
    published as ``done`` (workers skip them).

    Every lease carries its point's trajectory id, and the board lists
    the points trajectory by trajectory, largest ``p`` first: a worker's
    group claim takes the first runnable trajectory, so the longest
    groups start first.
    """
    points = list(points)
    board = board_from_url(board, now=now)
    campaign = {
        "schema": SCHEMA_VERSION,
        "workload": engine.workload,
        "config": {
            name: getattr(engine.config, name)
            for name in ("n_steps", "dt", "temperature", "velocity_seed", "barrier_per_step")
        },
        "base_seed": engine.base_seed,
        "cost": cost_fingerprint(engine.cost),
        "sanitize": engine.sanitize,
    }
    leases = []
    n_done = 0
    for trajectory, group in trajectory_groups(points).items():
        for point in group:
            key = engine.key_for(point)
            state = "done" if key in engine.store else "pending"
            n_done += state == "done"
            leases.append(Lease(key=key, label=point.label(), point=point.to_doc(),
                                state=state, trajectory=trajectory))
    board.publish(campaign, leases)
    return {
        "leases": len(leases),
        "pending": len(leases) - n_done,
        "done": n_done,
        "campaign_id": campaign_id_for([lease.key for lease in leases]),
    }


def engine_for_board(
    board: Board,
    store: ResultStore,
    cost: MachineCostModel = PIII_1GHZ,
) -> CampaignEngine:
    """Reconstruct the published campaign's engine over a local store.

    Raises ``ValueError`` when this build's cost model does not match
    the published fingerprint — a mis-calibrated worker would execute
    runs whose keys disagree with the board, so it must not start.
    """
    campaign = board.campaign()
    if cost_fingerprint(cost) != campaign["cost"]:
        raise ValueError(
            "this worker's machine cost model does not match the published "
            "campaign (fingerprint mismatch) — refusing to execute"
        )
    if campaign["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"lease board published under schema v{campaign['schema']}, "
            f"this build speaks v{SCHEMA_VERSION}"
        )
    return CampaignEngine(
        workload=campaign["workload"],
        config=MDRunConfig(**campaign["config"]),
        cost=cost,
        base_seed=campaign["base_seed"],
        store=store,
        sanitize=campaign["sanitize"],
    )


# ---------------------------------------------------------------------------
def work_campaign(
    board: Board | str | Path,
    store: ResultStore,
    worker: str,
    ttl: float = 300.0,
    max_points: int | None = None,
    cost: MachineCostModel = PIII_1GHZ,
    now: Callable[[], float] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Pull leases and execute them until the board runs dry.

    ``board`` is any :class:`~repro.campaign.board.Board`, or a board
    URL / file path resolved through
    :func:`~repro.campaign.board.board_from_url` — ``file:PATH`` (or a
    bare path, the historical call form) for the shared-filesystem
    board, ``http://HOST:PORT`` for a running coordinator.

    The unit of work is a trajectory group: one claim takes every
    runnable point of the board's first runnable trajectory (at most
    what ``max_points`` leaves), and one complete settles the group.
    Its points run one after another through this call's trajectory
    session, each through :func:`execute_point` — the same code path as
    every single-host mode — and land in this worker's ``store`` with
    host/worker provenance in the entry metadata, one ``progress`` line
    per point as its record is stored.  A point that raises is released
    back to the board; the rest of its group goes on.

    The group's deadline is renewed with one heartbeat at a point
    boundary once half of ``ttl`` has passed since the claim or the last
    renewal, so ``ttl`` must exceed twice the slowest point, not the
    group.  A renewal that finds the group reclaimed (this worker
    stalled past the deadline) leaves its unstarted points to their new
    holder; records already stored stay valid (deterministic) and merge
    as duplicates.  ``now`` is the clock of those renewals and of a file
    board's deadlines.

    Defence in depth: every lease key must equal the key this worker
    derives for its point.  A mismatch means the board and the build
    disagree about what a point *is*, and executing would store a record
    under an address other hosts cannot reproduce.
    """
    board = board_from_url(board, now=now)
    clock = now if now is not None else time.monotonic  # noqa: REP104 — lease renewal
    engine = engine_for_board(board, store, cost=cost)
    published = board.leases()
    campaign_id = campaign_id_for(lease.key for lease in published)
    log_path = None
    if store.root is not None:
        log_path = store.root / "logs" / f"worker-{worker}.jsonl"
    runlog = RunLog(log_path, campaign=campaign_id, worker=worker)
    metrics_before = REGISTRY.snapshot()
    # this call's points run one after another in this process: platform
    # variants of one (p, middleware) trajectory replay its first run
    session = TrajectorySession()
    stats = {"claimed": 0, "executed": 0, "hits": 0, "failed": 0, "lost": 0}
    while max_points is None or stats["claimed"] < max_points:
        budget = len(published) if max_points is None else max_points - stats["claimed"]
        group = board.claim(worker, ttl=ttl, group=budget)
        if not group:
            break
        renewed = clock()
        stats["claimed"] += len(group)
        logs = [runlog.bind(key=lease.key, label=lease.label, attempt=lease.attempts)
                for lease in group]
        points = [DesignPoint.from_doc(lease.point) for lease in group]
        for lease, plog, point in zip(group, logs, points):
            plog.log("lease_claim")
            derived = engine.key_for(point)
            if derived != lease.key:
                for held in group:
                    board.release(held.key, worker)
                plog.log("lease_release", reason="key mismatch")
                raise ValueError(
                    f"lease {lease.key[:12]}… does not match this build's key "
                    f"{derived[:12]}… for {lease.label!r} — board and worker "
                    "disagree about the campaign"
                )
        settled = []  # (lease, its log, elapsed) to complete with the group
        for i, (lease, plog, point) in enumerate(zip(group, logs, points)):
            if i and clock() - renewed >= ttl / 2:
                if not board.heartbeat(lease.key, worker, ttl=ttl):
                    break  # reclaimed while we stalled: the rest is its holder's
                renewed = clock()
            if lease.key in store:
                # already satisfied locally (a resumed worker); just settle it
                stats["hits"] += 1
                plog.log("point_hit")
                settled.append((lease, plog, 0.0))
                continue
            t0 = time.monotonic()  # noqa: REP104 — harness wall time
            try:
                record = execute_point(
                    engine.workload, point, engine.config, engine.cost,
                    engine.base_seed, sanitize=engine.sanitize,
                    span_trace_path=engine.point_trace(lease.key), session=session,
                )
            except Exception as exc:
                stats["failed"] += 1
                board.release(lease.key, worker)
                plog.log("lease_release", error=f"{type(exc).__name__}: {exc}")
                if progress is not None:
                    progress(f"{worker}: {lease.label} FAILED ({type(exc).__name__}: {exc})")
                continue
            elapsed = time.monotonic() - t0  # noqa: REP104
            meta = engine.meta(point, elapsed, attempts=lease.attempts + 1)
            meta["worker"] = worker
            store.put(lease.key, record, meta)
            stats["executed"] += 1
            plog.log("point_executed", elapsed=elapsed)
            if progress is not None:
                progress(f"{worker}: {lease.label} done ({elapsed:.2f} s)")
            settled.append((lease, plog, elapsed))
        if not settled:
            continue
        answers = board.complete([lease.key for lease, _, _ in settled], worker)
        for (lease, plog, elapsed), ok in zip(settled, answers):
            if ok:
                plog.log("lease_complete", elapsed=elapsed)
            else:
                # our lease expired and someone reclaimed it; the record is
                # still valid (deterministic) and merges as a duplicate
                stats["lost"] += 1
                plog.log("lease_lost", elapsed=elapsed)
    delta = REGISTRY.delta(metrics_before)
    if store.root is not None:
        path = store.root / f"metrics-{worker}.json"
        path.write_text(json.dumps(delta, indent=2, sort_keys=True) + "\n")
    replay = {
        name.rpartition(".")[2]: delta["counters"].get(name, {}).get("total", 0)
        for name in ("exec.opstream_recorded", "exec.opstream_replayed")
    }
    runlog.log("worker_done", **stats, **replay)
    return {**stats, "metrics": delta}


# ---------------------------------------------------------------------------
def merge_into_store(
    dest: ResultStore,
    sources: Iterable[ResultStore | str | Path],
    workload: str | None = None,
) -> dict:
    """Fold worker stores (or shard files) into ``dest``, with provenance.

    Each source may be a loaded :class:`ResultStore`, a store directory,
    or a single ``.jsonl`` shard file.  Returns the summed merge stats
    plus a :class:`~repro.campaign.manifest.CampaignManifest` (under
    ``"manifest"``) whose points record which host produced which key;
    when ``dest`` is disk-backed the manifest is also written under
    ``dest.root/manifests/``.
    """
    totals = {"imported": 0, "duplicates": 0, "conflicts": 0, "corrupt": 0,
              "stale_schema": 0, "sources": 0}
    metric_docs: list[dict] = []
    for source in sources:
        totals["sources"] += 1
        source_root = None
        if isinstance(source, ResultStore):
            stats = dest.merge(source)
            source_root = source.root
        else:
            path = Path(source)
            if path.is_dir():
                stats = dest.merge(ResultStore(path))
                source_root = path
            else:
                stats = dest.import_shard(path)
        for name, value in stats.items():
            totals[name] = totals.get(name, 0) + value
        if source_root is not None:
            metric_docs.extend(_gather_observability(source_root, dest))

    entries = sorted(dest.entries(), key=lambda e: e.key)
    manifest = mf.CampaignManifest(
        campaign_id="merge-" + campaign_id_for([e.key for e in entries]),
        workload=workload or _merged_workloads(entries),
        created_at=mf.timestamp(),
        git_rev=mf.git_revision(),
        host=mf.host_info(),
        schema=SCHEMA_VERSION,
        points=[
            mf.PointStatus(
                label=e.meta.get("label", e.key[:12]),
                key=e.key,
                status="ran",
                attempts=e.meta.get("attempts", 0),
                wall_time=e.meta.get("elapsed", 0.0),
                host=e.meta.get("host"),
            )
            for e in entries
        ],
        metrics=merge_metrics(*metric_docs) if metric_docs else {},
    )
    if dest.root is not None:
        manifest.write(dest.root / "manifests" / f"{manifest.campaign_id}.json")
    return {**totals, "entries": len(entries), "manifest": manifest}


def _gather_observability(source_root: Path, dest: ResultStore) -> list[dict]:
    """Collect a worker store's metrics dumps; copy its run logs to ``dest``.

    Returns the parsed ``metrics-*.json`` documents (merged into the merge
    manifest by the caller).  Run logs are copied verbatim into
    ``dest.root/logs/`` so :func:`~repro.instrument.runlog.reconstruct_history`
    over the merged store sees every participant's events.
    """
    docs: list[dict] = []
    source_root = Path(source_root)
    for path in sorted(source_root.glob("metrics-*.json")):
        try:
            docs.append(json.loads(path.read_text()))
        except ValueError:
            continue  # torn write on a crashed worker; metrics are advisory
    if dest.root is not None and dest.root != source_root:
        log_dir = dest.root / "logs"
        for path in sorted(source_root.glob("logs/*.jsonl")):
            log_dir.mkdir(parents=True, exist_ok=True)
            target = log_dir / path.name
            with target.open("a") as fh:
                fh.write(path.read_text())
    return docs


def _merged_workloads(entries) -> str:
    names = sorted({e.meta.get("workload", "?") for e in entries}) or ["?"]
    return "+".join(names)


def verify_stores_match(a: ResultStore, b: ResultStore) -> list[str]:
    """Audit two stores for key-for-key, bit-for-bit record equality.

    Returns human-readable discrepancy lines (empty = identical).  This
    is the post-merge acceptance check: a federated campaign's merged
    store must match a single-host run of the same campaign exactly.
    """
    problems = []
    keys_a = {e.key for e in a.entries()}
    keys_b = {e.key for e in b.entries()}
    for key in sorted(keys_a - keys_b):
        problems.append(f"key {key[:16]}… only in first store")
    for key in sorted(keys_b - keys_a):
        problems.append(f"key {key[:16]}… only in second store")
    for key in sorted(keys_a & keys_b):
        da = record_digest(a.entry(key).record)
        db = record_digest(b.entry(key).record)
        if da != db:
            problems.append(
                f"key {key[:16]}…: record digests differ ({da[:12]}… vs {db[:12]}…)"
            )
    return problems
