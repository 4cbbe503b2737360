"""Campaign manifests: machine-readable progress and provenance.

A manifest records one campaign — the design-point set, how each point
was satisfied (cache hit, executed, failed, timed out), attempt counts,
per-point and total wall time, plus provenance (git revision, host,
workload, schema version).  It is rewritten atomically after every
completed point, so a killed campaign leaves an accurate account of what
finished, and the next run of the same campaign id resumes from the
store rather than from zero.

This module is campaign bookkeeping, not simulation: the wall-clock
reads below measure *real* elapsed time of the harness itself, which is
why they carry ``noqa: REP104`` (the analyzer's virtual-time rule).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from dataclasses import asdict, dataclass, field
from functools import cache
from pathlib import Path

__all__ = [
    "PointStatus",
    "CampaignManifest",
    "git_revision",
    "host_info",
    "progress_line",
]

#: The statuses one design point can end a campaign in.
STATUSES = ("hit", "ran", "failed", "timeout", "pending")


@dataclass
class PointStatus:
    """How one design point was satisfied."""

    label: str
    key: str
    status: str = "pending"
    attempts: int = 0
    wall_time: float = 0.0
    error: str | None = None
    #: which host produced this point (federated campaigns; None = local)
    host: str | None = None


@dataclass
class CampaignManifest:
    """Everything one campaign run did, as one JSON document."""

    campaign_id: str
    workload: str
    created_at: str
    git_rev: str
    host: dict
    schema: int
    points: list[PointStatus] = field(default_factory=list)
    total_wall: float = 0.0
    #: metrics snapshot delta for this campaign (see
    #: :mod:`repro.instrument.metrics`); merged across hosts for
    #: federated campaigns
    metrics: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in STATUSES}
        for p in self.points:
            out[p.status] = out.get(p.status, 0) + 1
        return out

    @property
    def n_points(self) -> int:
        return len(self.points)

    def summary_line(self) -> str:
        c = self.counts
        done = self.n_points - c["pending"]
        return (
            f"campaign {self.campaign_id}: {done}/{self.n_points} points — "
            f"{c['hit']} hit, {c['ran']} ran, {c['failed']} failed, "
            f"{c['timeout']} timeout ({self.total_wall:.1f} s)"
        )

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        doc = asdict(self)
        doc["counts"] = self.counts
        doc["n_points"] = self.n_points
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        doc = json.loads(text)
        points = [PointStatus(**p) for p in doc["points"]]
        return cls(
            campaign_id=doc["campaign_id"],
            workload=doc["workload"],
            created_at=doc["created_at"],
            git_rev=doc["git_rev"],
            host=doc["host"],
            schema=doc["schema"],
            points=points,
            total_wall=doc["total_wall"],
            metrics=doc.get("metrics", {}),  # absent in pre-metrics manifests
        )

    def write(self, path: str | Path) -> None:
        """Atomic write: a reader never sees a half manifest."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(self.to_json() + "\n")
        os.replace(tmp, path)

    @classmethod
    def read(cls, path: str | Path) -> "CampaignManifest":
        return cls.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
@cache
def git_revision() -> str:
    """The working tree's commit, or ``unknown`` outside a checkout.

    Asked once per process: the running code cannot change under it, and
    every executed point stamps it into its store metadata.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_info() -> dict:
    """Where this campaign ran (manifest provenance)."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def timestamp() -> str:
    """ISO-8601 creation stamp (real time — manifest provenance)."""
    now = datetime.datetime.now(datetime.timezone.utc)  # noqa: REP104
    return now.isoformat(timespec="seconds")


def progress_line(campaign_id: str, done: int, total: int, counts: dict[str, int]) -> str:
    """The live one-line progress readout the engine emits."""
    return (
        f"campaign {campaign_id}: {done}/{total} "
        f"({counts.get('hit', 0)} hit, {counts.get('ran', 0)} ran, "
        f"{counts.get('failed', 0)} failed, {counts.get('timeout', 0)} timeout)"
    )
