"""Cross-campaign trend reports: diff two timing sources, flag regressions.

A *source* is anything that carries named timings:

* a **store directory** — every record becomes one series named by its
  design identity, carrying the virtual wall / classic / PME times plus
  the six per-phase splits;
* a **campaign manifest** — per-point harness wall seconds of the
  points that actually executed.

Candidate/baseline ratios above ``factor`` are regressions (non-zero
exit in the CLI, a failed job in CI), below ``1/factor`` improvements.
When both sides carry per-phase splits, each regression is
*attributed*: virtual splits are deterministic, so the split that grew
names the phase responsible.  Host seconds of the simulator itself are
not a trend source — ``benchmarks/ledger/compare.py`` diffs those, per
layer and with spread.
"""

from __future__ import annotations

import json
from pathlib import Path

from .mapreduce import AnalysisError, map_shards, merge_rows

__all__ = ["TREND_SCHEMA", "load_trend_source", "trend_report"]

TREND_SCHEMA = 1

_SPLIT_FIELDS = (
    "classic_comp", "classic_comm", "classic_sync",
    "pme_comp", "pme_comm", "pme_sync",
)


def _row_name(row: dict) -> str:
    return (
        f"{row['workload']}:{row['strategy']}:{row['network']}:"
        f"{row['middleware']}:c{row['cpus_per_node']}:p{row['n_ranks']}:"
        f"r{row['replicate']}"
    )


def _store_source(root: Path, n_workers: int) -> dict:
    rows = merge_rows(map_shards(root, n_workers))
    series: dict[str, dict] = {}
    for row in rows:  # key-sorted; identity collisions resolve to the last key
        series[_row_name(row)] = {
            "metrics": {
                "wall_time": row["wall_time"],
                "classic_time": row["classic_time"],
                "pme_time": row["pme_time"],
            },
            "splits": {field: row[field] for field in _SPLIT_FIELDS},
        }
    return {"kind": "store", "name": root.name, "series": series}


def _manifest_source(doc: dict, name: str) -> dict:
    series = {
        point["label"]: {"metrics": {"wall_time": float(point["wall_time"])}}
        for point in doc.get("points", [])
        if point.get("status") == "ran" and point.get("wall_time", 0) > 0
    }
    return {"kind": "manifest", "name": name, "series": series}


def load_trend_source(path: str | Path, n_workers: int = 0) -> dict:
    """Load one trend source: a store directory or a JSON document."""
    p = Path(path)
    if p.is_dir():
        return _store_source(p, n_workers)
    if not p.is_file():
        raise AnalysisError(f"trend source {p} does not exist")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:
        raise AnalysisError(f"trend source {p} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "points" not in doc:
        raise AnalysisError(
            f"trend source {p} is not a campaign manifest (a JSON object with a 'points' key)"
        )
    return _manifest_source(doc, p.name)


_ABS_DELTA = 1e-9


def _attribute(base_splits: dict | None, cand_splits: dict | None) -> dict | None:
    """Name the phase a regression grew in, from the virtual splits."""
    if not base_splits or not cand_splits:  # manifests carry none
        return None
    deltas = {
        "classic": cand_splits["classic_comp"] - base_splits["classic_comp"],
        "pme": cand_splits["pme_comp"] - base_splits["pme_comp"],
        "comm": sum(
            cand_splits[f] - base_splits[f]
            for f in _SPLIT_FIELDS
            if f.endswith(("_comm", "_sync"))
        ),
    }
    deltas = {k: round(v, 9) for k, v in deltas.items()}
    dominant = max(sorted(deltas), key=lambda k: deltas[k])
    if deltas[dominant] <= _ABS_DELTA:
        return None  # no split grew: nothing to name
    return {"deltas": deltas, "dominant_phase": dominant}


def trend_report(baseline: dict, candidate: dict, factor: float = 1.25) -> dict:
    """Diff two loaded sources; classify every shared metric by ratio."""
    if factor <= 1.0:
        raise AnalysisError(f"trend --factor must be > 1 (got {factor})")
    base_series, cand_series = baseline["series"], candidate["series"]
    common = sorted(set(base_series) & set(cand_series))

    compared = 0
    regressions: list[dict] = []
    improvements: list[dict] = []
    for name in common:
        base_entry, cand_entry = base_series[name], cand_series[name]
        metrics = sorted(set(base_entry["metrics"]) & set(cand_entry["metrics"]))
        for metric in metrics:
            base = base_entry["metrics"][metric]
            cand = cand_entry["metrics"][metric]
            if base <= 0:
                continue
            compared += 1
            ratio = cand / base
            if ratio <= factor and ratio >= 1.0 / factor:
                continue
            entry = {
                "name": name,
                "metric": metric,
                "baseline": base,
                "candidate": cand,
                "ratio": round(ratio, 6),
            }
            if ratio > factor:
                entry["status"] = "regression"
                attribution = _attribute(
                    base_entry.get("splits"), cand_entry.get("splits")
                )
                if attribution is not None:
                    entry["attribution"] = attribution
                regressions.append(entry)
            else:
                entry["status"] = "improvement"
                improvements.append(entry)

    return {
        "analyzer": "trend",
        "schema": TREND_SCHEMA,
        "factor": factor,
        "baseline": {"kind": baseline["kind"], "name": baseline["name"]},
        "candidate": {"kind": candidate["kind"], "name": candidate["name"]},
        "compared": compared,
        "common_series": len(common),
        "only_in_baseline": sorted(set(base_series) - set(cand_series)),
        "only_in_candidate": sorted(set(cand_series) - set(base_series)),
        "regressions": regressions,
        "improvements": improvements,
        "ok": not regressions,
    }
