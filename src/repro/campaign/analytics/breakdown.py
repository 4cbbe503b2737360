"""The comm-breakdown analyzer: the paper's tables from stored records.

The paper's entire contribution is a decomposition of wall time into
computation / communication / synchronization per energy path (classic
cutoff vs PME), per platform factor.  This reducer regenerates that
decomposition from :class:`~repro.core.responses.ResponseRecord` rows
alone — zero force evaluations — grouped along any campaign axis.

For each group (every axis fixed except the *series* axis) the report
carries one point per series level: mean phase seconds and percentages
over replicates, plus — when the series axis is the processor count —
speedup and parallel efficiency against the smallest measured p and the
*crossover* point, the smallest p at which communication +
synchronization overtakes computation.  The crossover table is the
quantitative answer to the title question: classic stays
computation-dominated where PME crosses early.
"""

from __future__ import annotations

from .mapreduce import AnalysisError

__all__ = ["AXES", "REPORT_SCHEMA", "breakdown_report"]

REPORT_SCHEMA = 2

#: The campaign axes a report can group or series along.  ``p`` is the
#: processor count (``n_ranks`` on the record).
AXES = ("workload", "strategy", "network", "middleware", "cpus_per_node", "p")

_PHASES = ("classic", "pme")


def _axis(row: dict, axis: str):
    return row["n_ranks"] if axis == "p" else row[axis]


def _mean(rows: list[dict], field: str) -> float:
    return sum(row[field] for row in rows) / len(rows)


def _phase_doc(rows: list[dict], prefix: str) -> dict:
    comp = _mean(rows, f"{prefix}_comp")
    comm = _mean(rows, f"{prefix}_comm")
    sync = _mean(rows, f"{prefix}_sync")
    total = _mean(rows, f"{prefix}_time")
    doc = {
        "total": total,
        "seconds": {"comp": comp, "comm": comm, "sync": sync},
    }
    if total > 0:
        doc["pct"] = {
            "comp": round(100.0 * comp / total, 4),
            "comm": round(100.0 * comm / total, 4),
            "sync": round(100.0 * sync / total, 4),
        }
        doc["overhead_fraction"] = round((comm + sync) / total, 6)
    return doc


def _total_phase_doc(point_phases: dict) -> dict:
    comp = sum(point_phases[p]["seconds"]["comp"] for p in _PHASES)
    comm = sum(point_phases[p]["seconds"]["comm"] for p in _PHASES)
    sync = sum(point_phases[p]["seconds"]["sync"] for p in _PHASES)
    total = sum(point_phases[p]["total"] for p in _PHASES)
    doc = {"total": total, "seconds": {"comp": comp, "comm": comm, "sync": sync}}
    if total > 0:
        doc["pct"] = {
            "comp": round(100.0 * comp / total, 4),
            "comm": round(100.0 * comm / total, 4),
            "sync": round(100.0 * sync / total, 4),
        }
        doc["overhead_fraction"] = round((comm + sync) / total, 6)
    return doc


def _crossover(points: list[dict], phase: str):
    """Smallest series level where comm + sync > comp (None: never)."""
    for point in points:
        seconds = point["phases"][phase]["seconds"]
        if seconds["comm"] + seconds["sync"] > seconds["comp"]:
            return point["series"]
    return None


def breakdown_report(rows: list[dict], series: str = "p") -> dict:
    """Reduce rows into the comm-breakdown report document.

    ``rows`` must already be merged and key-sorted
    (:func:`~repro.campaign.analytics.mapreduce.merge_rows`); iteration
    order here is therefore deterministic, which fixes floating-point
    summation order and makes the output byte-stable.
    """
    if series not in AXES:
        raise AnalysisError(f"unknown series axis {series!r} (one of {', '.join(AXES)})")
    group_axes = [axis for axis in AXES if axis != series]

    groups: dict[tuple, dict] = {}
    for row in rows:
        gkey = tuple(_axis(row, axis) for axis in group_axes)
        groups.setdefault(gkey, {}).setdefault(_axis(row, series), []).append(row)

    group_docs = []
    for gkey in sorted(groups, key=lambda k: tuple(map(str, k))):
        points = []
        for svalue in sorted(groups[gkey]):
            reps = groups[gkey][svalue]
            phases = {prefix: _phase_doc(reps, prefix) for prefix in _PHASES}
            phases["total"] = _total_phase_doc(phases)
            points.append(
                {
                    "series": svalue,
                    "replicates": len(reps),
                    "wall_time": _mean(reps, "wall_time"),
                    "final_energy": _mean(reps, "final_energy"),
                    "comm_mean_mbs": _mean(reps, "comm_mean_mbs"),
                    "phases": phases,
                }
            )
        doc = {"group": dict(zip(group_axes, gkey)), "points": points}
        if series == "p" and points:
            ref = points[0]
            for point in points:
                if ref["wall_time"] > 0 and point["wall_time"] > 0:
                    speedup = ref["wall_time"] / point["wall_time"]
                    point["speedup"] = round(speedup, 6)
                    point["efficiency"] = round(
                        speedup * ref["series"] / point["series"], 6
                    )
            doc["speedup_ref_p"] = ref["series"]
            doc["crossover"] = {
                phase: _crossover(points, phase) for phase in (*_PHASES, "total")
            }
        group_docs.append(doc)

    return {
        "analyzer": "report",
        "schema": REPORT_SCHEMA,
        "series": series,
        "n_records": len(rows),
        "n_groups": len(group_docs),
        "groups": group_docs,
    }

