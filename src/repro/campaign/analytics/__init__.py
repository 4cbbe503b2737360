"""Post-hoc campaign analytics: parallel map-reduce over the result store.

The campaign layer *produces* records; this package *consumes* them.  A
warm store answers the paper's questions — where does the time go, does
the physics hold, did anything regress, did the factorial complete —
without a single new force evaluation.  :func:`run_analysis` is the one
entry point: it fans the map stage over store shards using the engine's
worker pool, reduces into one of four report documents, asserts the
zero-force-evaluation contract, and atomically publishes the canonical
JSON next to the store it describes (which is what the coordinator's
``GET /v1/report`` endpoint serves).

Determinism contract (tested byte-for-byte): the report produced over a
given store is identical regardless of worker count and of shard
arrival order.  See :mod:`~repro.campaign.analytics.mapreduce` for the
mechanics.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ...instrument.counters import FORCE_EVALUATIONS
from ...instrument.metrics import REGISTRY
from ...instrument.runlog import RunLog
from .breakdown import AXES, breakdown_report
from .coverage import coverage_report, rep203_verdict
from .drift import drift_report
from .mapreduce import (
    AnalysisError,
    discover_shards,
    map_shard,
    map_shards,
    merge_rows,
)
from .render import FORMATS, render, to_json_bytes
from .trend import load_trend_source, trend_report

__all__ = [
    "ANALYZERS",
    "AXES",
    "AnalysisError",
    "FORMATS",
    "breakdown_report",
    "coverage_report",
    "discover_shards",
    "drift_report",
    "load_trend_source",
    "map_shard",
    "map_shards",
    "merge_rows",
    "render",
    "rep203_verdict",
    "run_analysis",
    "to_json_bytes",
    "trend_report",
]

ANALYZERS = ("report", "drift", "trend", "coverage")


def _load_manifests(store_root: Path) -> list[dict]:
    """Merged campaign manifests living beside the store, sorted by name."""
    manifest_dir = store_root / "manifests"
    if not manifest_dir.is_dir():
        return []
    docs = []
    for path in sorted(manifest_dir.glob("*.json")):
        try:
            docs.append(json.loads(path.read_text()))
        except ValueError:
            continue  # a torn manifest is a coverage finding, not a crash
    return docs


def _analysis_id(kind: str, shard_names: list[str]) -> str:
    """Correlation ID for the analysis run: content-addressed, not clocked."""
    digest = hashlib.sha256()
    digest.update(kind.encode())
    for name in shard_names:
        digest.update(b"\0")
        digest.update(name.encode())
    return digest.hexdigest()[:12]


def _save_report(store_root: Path, kind: str, doc: dict) -> Path:
    """Atomically publish ``<store>/reports/<kind>-latest.json``."""
    report_dir = store_root / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    target = report_dir / f"{kind}-latest.json"
    tmp = report_dir / f".{kind}-latest.json.tmp"
    tmp.write_bytes(to_json_bytes(doc))
    os.replace(tmp, target)
    return target


def run_analysis(
    kind: str,
    store: str | Path,
    *,
    workers: int = 0,
    series: str = "p",
    against: str | Path | None = None,
    candidate: str | Path | None = None,
    factor: float = 1.25,
    rtol: float = 1e-9,
    save: bool = True,
) -> dict:
    """Run one analyzer over a warm store and return its report document.

    ``workers`` fans the map stage out over the engine's process pool
    (``0`` maps inline; the report bytes are identical either way).  For
    ``trend``, ``against`` names the baseline source and ``candidate``
    defaults to ``store``.  With ``save`` the canonical JSON also lands
    at ``<store>/reports/<kind>-latest.json`` for the coordinator's
    ``/v1/report`` endpoint.

    Raises :class:`AnalysisError` on unusable inputs and
    :class:`RuntimeError` if the analysis triggered any force
    evaluation — reports are read-only by contract.
    """
    if kind not in ANALYZERS:
        raise AnalysisError(f"unknown analyzer {kind!r} (one of {', '.join(ANALYZERS)})")
    store_root = Path(store)
    force_mark = FORCE_EVALUATIONS.snapshot()

    if kind == "trend":
        if against is None:
            raise AnalysisError("trend needs --against <baseline store|manifest>")
        baseline = load_trend_source(against, workers)
        cand = load_trend_source(candidate if candidate is not None else store_root, workers)
        shard_names = [baseline["name"], cand["name"]]
        n_records = len(cand["series"])
        builder = lambda: trend_report(baseline, cand, factor)  # noqa: E731
    else:
        partials = map_shards(store_root, workers)
        rows = merge_rows(partials)
        manifests = _load_manifests(store_root)
        shard_names = [p["shard"] for p in partials]
        n_records = len(rows)
        if kind == "report":
            builder = lambda: breakdown_report(rows, series, manifests)  # noqa: E731
        elif kind == "drift":
            builder = lambda: drift_report(rows, rtol)  # noqa: E731
        else:
            builder = lambda: coverage_report(partials, rows, manifests)  # noqa: E731

    analysis_id = _analysis_id(kind, shard_names)
    runlog = RunLog(store_root / "logs" / f"analyze-{kind}.jsonl").bind(
        analysis_id=analysis_id, analyzer=kind
    )
    runlog.log("analysis_start", store=str(store_root), inputs=shard_names,
               workers=workers)
    doc = builder()
    doc["analysis_id"] = analysis_id

    force_delta = FORCE_EVALUATIONS.delta(force_mark)
    if force_delta:
        raise RuntimeError(
            f"analysis {kind!r} triggered {force_delta} force evaluation(s); "
            "reports over a warm store must be read-only"
        )
    REGISTRY.counter("analytics.runs").increment(kind=kind)
    REGISTRY.counter("analytics.records").increment(n_records)

    saved = None
    if save:
        saved = _save_report(store_root, kind, doc)
    runlog.log("analysis_end", ok=doc.get("ok", True), n_records=n_records,
               saved=str(saved) if saved else None)
    return doc
