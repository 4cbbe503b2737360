"""Live campaign dashboard: a read-only rendering of board + store.

``repro campaign status`` prints :func:`dashboard` whenever it has a
board (``--board``, or ``<store>/leases.json`` if present); ``watch -n 2``
repaints it.  The function is pure observation — it reads the lease board
and the result store exactly as any worker would and mutates neither,
so watching a campaign can never disturb it.  All inputs are injectable
(``now`` in particular) so the rendering is deterministic under test.

What it shows, per the operator's questions in order:

* **progress** — done / leased / pending counts off the board (or, with
  no board, the store's entry count);
* **in-flight** — every leased point with its worker and the seconds
  left on its lease (negative = expired, reclaimable);
* **per-worker throughput** — points completed and mean wall seconds
  per point, from the store entries' metadata;
* **lease health** — expired-lease count and total reclaim attempts;
* **ETA** — pending work over aggregate observed throughput (an explicit
  ``n/a`` until at least one worker has finished a point — a worker that
  holds leases but has completed nothing contributes no rate);
* **recent activity** — event count and age of the freshest runlog line,
  tolerant of torn tails (a log holding only a half-written line shows
  ``n/a``, it never raises);
* **report** — where the latest post-hoc analysis report is served
  (the coordinator's ``/v1/report`` for an HTTP board, the
  on-disk ``reports/report-latest.json`` otherwise).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..instrument.runlog import read_runlog

if TYPE_CHECKING:  # annotation-only: avoids the store -> core import cycle
    from .board import Board
    from .store import ResultStore

__all__ = ["dashboard", "dashboard_data", "report_link"]


def report_link(store: ResultStore | None, board: Board | None = None) -> str | None:
    """Where the freshest analysis report lives, if anywhere.

    An HTTP board means a coordinator is (or was) serving — link its
    ``/v1/report`` endpoint.  Otherwise link the saved canonical JSON
    beside the store, when an analysis has actually been published.
    """
    url = getattr(board, "url", None)
    if url:
        return url.rstrip("/") + "/v1/report"
    root = getattr(store, "root", None)
    if root is not None:
        saved = root / "reports" / "report-latest.json"
        if saved.is_file():
            return str(saved)
    return None


def dashboard_data(
    store: ResultStore | None,
    board: Board | None = None,
    now: float | None = None,
    runlog: str | None = None,
) -> dict:
    """The dashboard's numbers as one plain dict (rendering-free)."""
    if now is None:
        now = time.time()  # noqa: REP104 — dashboard wall time
    data: dict = {"now": now}

    per_worker: dict[str, dict] = {}
    n_entries = 0
    if store is not None:
        for entry in store.entries():
            n_entries += 1
            who = entry.meta.get("worker") or entry.meta.get("host") or "local"
            slot = per_worker.setdefault(who, {"points": 0, "wall": 0.0})
            slot["points"] += 1
            slot["wall"] += float(entry.meta.get("elapsed", 0.0))
    data["entries"] = n_entries
    data["workers"] = per_worker

    if board is not None:
        leases = board.leases()
        counts = {"pending": 0, "leased": 0, "done": 0}
        in_flight = []
        expired = 0
        reclaims = 0
        for lease in leases:
            counts[lease.state] = counts.get(lease.state, 0) + 1
            reclaims += lease.attempts
            if lease.state == "leased":
                left = lease.expires - now
                expired += left <= 0
                in_flight.append(
                    {"label": lease.label, "key": lease.key,
                     "worker": lease.worker, "seconds_left": left}
                )
                # A worker that is mid-lease but has completed nothing
                # still deserves a throughput row — with an n/a mean,
                # not a divide-by-zero.
                if lease.worker:
                    per_worker.setdefault(lease.worker, {"points": 0, "wall": 0.0})
        in_flight.sort(key=lambda x: x["seconds_left"])
        data["counts"] = counts
        data["in_flight"] = in_flight
        data["expired"] = expired
        data["reclaims"] = reclaims

        # ETA: pending points over the summed observed rate of the
        # workers that have completed anything yet.  Zero-point or
        # zero-wall workers contribute no rate (and cannot divide by
        # zero); with no rate at all the ETA is explicitly unknown.
        rate = sum(
            s["points"] / s["wall"]
            for s in per_worker.values()
            if s["points"] > 0 and s["wall"] > 0
        )
        remaining = counts["pending"] + counts["leased"]
        data["eta_seconds"] = remaining / rate if rate > 0 and remaining else None

    for slot in per_worker.values():
        slot["mean_wall"] = (
            slot["wall"] / slot["points"]
            if slot["points"] > 0 and slot["wall"] > 0
            else None
        )

    if runlog is not None:
        events = last = None
        try:
            events = 0
            for record in read_runlog(runlog):
                events += 1
                last = record
        except OSError:
            events = None  # unreadable log: activity unknown, not fatal
        data["activity"] = {
            "events": events,
            "last_event": last.get("event") if last else None,
            "last_age_s": (now - last["ts"]) if last and "ts" in last else None,
        }

    data["report"] = report_link(store, board)
    return data


def dashboard(
    store: ResultStore | None,
    board: Board | None = None,
    now: float | None = None,
    runlog: str | None = None,
) -> str:
    """Render the live campaign view as a fixed-width text panel."""
    d = dashboard_data(store, board, now=now, runlog=runlog)
    lines: list[str] = []

    if "counts" in d:
        c = d["counts"]
        total = sum(c.values())
        lines.append(
            f"campaign: {c['done']}/{total} done — "
            f"{c['leased']} in flight, {c['pending']} pending"
        )
        health = f"lease health: {d['expired']} expired, {d['reclaims']} reclaim(s)"
        remaining = c["pending"] + c["leased"]
        if d.get("eta_seconds") is not None:
            health += f" — ETA {d['eta_seconds']:.0f} s"
        elif remaining:
            health += " — ETA n/a"
        lines.append(health)
        if d["in_flight"]:
            lines.append("in flight:")
            for item in d["in_flight"]:
                state = (
                    f"{item['seconds_left']:.0f} s left"
                    if item["seconds_left"] > 0
                    else "EXPIRED (reclaimable)"
                )
                lines.append(
                    f"  {item['label']:<24} {item['worker'] or '?':<12} {state}"
                )
    else:
        lines.append(f"store: {d['entries']} cached result(s)")

    if d["workers"]:
        lines.append("throughput:")
        for who in sorted(d["workers"]):
            s = d["workers"][who]
            mean = (
                f"mean {s['mean_wall']:.2f} s/point"
                if s["mean_wall"] is not None
                else "mean n/a"
            )
            lines.append(f"  {who:<16} {s['points']:>4} point(s)  {mean}")

    activity = d.get("activity")
    if activity is not None:
        if activity["events"] and activity["last_age_s"] is not None:
            lines.append(
                f"activity: {activity['events']} event(s), last "
                f"'{activity['last_event']}' {activity['last_age_s']:.0f} s ago"
            )
        else:
            lines.append("activity: n/a")

    if d.get("report"):
        lines.append(f"report: {d['report']}")
    return "\n".join(lines)
