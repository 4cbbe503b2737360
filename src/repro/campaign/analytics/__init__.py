"""Post-hoc campaign analytics: map-reduce over the result store.

The campaign layer *produces* records; this package *consumes* them.  A
warm store answers the paper's questions — where does the time go, does
the physics hold, did the factorial complete — without a single new
force evaluation.  :func:`run_analysis` is the one entry point: it maps
every store shard inline, reduces into one of three report documents,
asserts the zero-force-evaluation contract, and atomically publishes the
canonical JSON next to the store it describes (which is what the
coordinator's ``GET /v1/report`` endpoint serves).

Determinism contract (tested byte-for-byte): the report produced over a
given set of entries is identical however they are laid out across
shard files.  See :mod:`~repro.campaign.analytics.mapreduce` for the
mechanics.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ...instrument.counters import FORCE_EVALUATIONS
from ...instrument.metrics import REGISTRY
from ...instrument.runlog import RunLog
from .breakdown import AXES, breakdown_report
from .coverage import coverage_report
from .drift import drift_report
from .mapreduce import (
    AnalysisError,
    discover_shards,
    map_shard,
    map_shards,
    merge_rows,
)
from .render import FORMATS, render, to_json_bytes

__all__ = [
    "ANALYZERS",
    "AXES",
    "AnalysisError",
    "FORMATS",
    "breakdown_report",
    "coverage_report",
    "discover_shards",
    "drift_report",
    "map_shard",
    "map_shards",
    "merge_rows",
    "render",
    "run_analysis",
    "to_json_bytes",
]

ANALYZERS = ("report", "drift", "coverage")


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
    series: str = "p",
    save: bool = True,
) -> dict:
    """Run one analyzer over a warm store and return its report document.

    ``series`` is the axis the ``report`` tables vary along.  With
    ``save`` the canonical JSON also lands at
    ``<store>/reports/<kind>-latest.json`` for the coordinator's
    ``/v1/report`` endpoint.

    Raises :class:`AnalysisError` on unusable inputs and
    :class:`RuntimeError` if the analysis triggered any force
    evaluation — reports are read-only by contract.
    """
    if kind not in ANALYZERS:
        raise AnalysisError(f"unknown analyzer {kind!r} (one of {', '.join(ANALYZERS)})")
    store_root = Path(store)
    force_mark = FORCE_EVALUATIONS.snapshot()

    partials = map_shards(store_root)
    rows = merge_rows(partials)
    shard_names = [p["shard"] for p in partials]
    analysis_id = _analysis_id(kind, shard_names)
    runlog = RunLog(store_root / "logs" / f"analyze-{kind}.jsonl").bind(
        analysis_id=analysis_id, analyzer=kind
    )
    runlog.log("analysis_start", store=str(store_root), inputs=shard_names)
    if kind == "report":
        doc = breakdown_report(rows, series)
    elif kind == "drift":
        doc = drift_report(rows)
    else:
        doc = coverage_report(partials, rows)
    doc["analysis_id"] = analysis_id

    force_delta = FORCE_EVALUATIONS.delta(force_mark)
    if force_delta:
        raise RuntimeError(
            f"analysis {kind!r} triggered {force_delta} force evaluation(s); "
            "reports over a warm store must be read-only"
        )
    REGISTRY.counter("analytics.runs").increment(kind=kind)
    REGISTRY.counter("analytics.records").increment(len(rows))

    saved = None
    if save:
        saved = _save_report(store_root, kind, doc)
    runlog.log("analysis_end", ok=doc.get("ok", True), n_records=len(rows),
               saved=str(saved) if saved else None)
    return doc
