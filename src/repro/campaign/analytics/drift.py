"""Energy-drift and conservation checks over stored trajectories.

Two families of findings:

* **energy consensus** — within one (workload, strategy) the simulator
  is deterministic and decomposition-independent, so every record's
  final energy must agree to a relative tolerance.  Records are
  clustered by energy; anything outside the consensus cluster (largest
  cluster, ties broken toward the lowest energy) is flagged, and a
  non-finite energy is always flagged.
* **timeline conservation** — per record, each phase's virtual wall
  time must equal its computation + communication + synchronization
  parts (the two-clock bookkeeping invariant), and no component may be
  negative.

A corrupted record — a bit flip in a shard, a non-reproducible producer
— surfaces here without re-running anything.
"""

from __future__ import annotations

import math

__all__ = ["DRIFT_SCHEMA", "RTOL", "drift_report"]

DRIFT_SCHEMA = 1
RTOL = 1e-9  # relative tolerance of the energy-consensus check

_PHASES = ("classic", "pme")
_ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), _ABS_TOL)


def _consensus_findings(rows: list[dict], findings: list[dict]) -> list[dict]:
    """Cluster per-(workload, strategy) energies; flag non-consensus rows."""
    by_group: dict[tuple, list[dict]] = {}
    for row in rows:
        by_group.setdefault((row["workload"], row["strategy"]), []).append(row)

    group_docs = []
    for gkey in sorted(by_group):
        members = by_group[gkey]
        finite = []
        for row in members:
            energy = row["final_energy"]
            if isinstance(energy, float) and not math.isfinite(energy):
                findings.append(
                    {
                        "check": "finite-energy",
                        "key": row["key"],
                        "label": row["label"],
                        "detail": f"final_energy is {energy!r}",
                    }
                )
            else:
                finite.append(row)

        clusters: list[list[dict]] = []
        for row in finite:  # rows arrive key-sorted: deterministic clustering
            for cluster in clusters:
                if _close(row["final_energy"], cluster[0]["final_energy"]):
                    cluster.append(row)
                    break
            else:
                clusters.append([row])
        clusters.sort(key=lambda c: (-len(c), c[0]["final_energy"]))

        consensus = clusters[0][0]["final_energy"] if clusters else None
        for cluster in clusters[1:]:
            for row in cluster:
                findings.append(
                    {
                        "check": "energy-consensus",
                        "key": row["key"],
                        "label": row["label"],
                        "detail": (
                            f"final_energy {row['final_energy']!r} disagrees with "
                            f"the consensus {consensus!r} (rtol {RTOL})"
                        ),
                    }
                )
        group_docs.append(
            {
                "workload": gkey[0],
                "strategy": gkey[1],
                "n_records": len(members),
                "consensus_energy": consensus,
                "clusters": [
                    {"energy": c[0]["final_energy"], "n": len(c)} for c in clusters
                ],
            }
        )
    return group_docs


def _conservation_findings(rows: list[dict], findings: list[dict]) -> None:
    for row in rows:
        for prefix in _PHASES:
            total = row[f"{prefix}_time"]
            parts = {
                name: row[f"{prefix}_{name}"] for name in ("comp", "comm", "sync")
            }
            for name, value in parts.items():
                if value < 0:
                    findings.append(
                        {
                            "check": "negative-component",
                            "key": row["key"],
                            "label": row["label"],
                            "detail": f"{prefix}_{name} = {value!r} < 0",
                        }
                    )
            gap = abs(total - sum(parts.values()))
            if gap > max(1e-9 * max(abs(total), 1.0), _ABS_TOL):
                findings.append(
                    {
                        "check": "phase-bookkeeping",
                        "key": row["key"],
                        "label": row["label"],
                        "detail": (
                            f"{prefix}_time {total!r} != comp+comm+sync "
                            f"{sum(parts.values())!r} (gap {gap:.3e})"
                        ),
                    }
                )


def drift_report(rows: list[dict]) -> dict:
    """Reduce key-sorted rows into the drift/conservation report."""
    findings: list[dict] = []
    group_docs = _consensus_findings(rows, findings)
    _conservation_findings(rows, findings)
    findings.sort(key=lambda f: (f["check"], f["key"]))
    return {
        "analyzer": "drift",
        "schema": DRIFT_SCHEMA,
        "rtol": RTOL,
        "n_records": len(rows),
        "workloads": group_docs,
        "findings": findings,
        "ok": not findings,
    }
