"""Worker-pull lease board: coordinating a campaign across hosts.

One JSON file — typically on a shared filesystem — is the whole
coordinator.  ``repro campaign serve`` publishes it; any number of
``repro campaign work`` processes pull from it.  A lease is one design
point; the points of one trajectory
(:func:`~repro.parallel.shared.trajectory_id`) are claimed, renewed and
completed together::

    {"schema": 2,
     "campaign": {"workload": ..., "config": {...}, "base_seed": ...,
                  "cost": "<fingerprint>", "sanitize": false},
     "leases": [{"key": "<sha256>", "label": "...", "point": {...},
                 "trajectory": "replicated/p8/cmpi",
                 "state": "pending" | "leased" | "done",
                 "worker": null, "expires": 0.0, "attempts": 0}]}

A lease without a ``trajectory`` is a group of its own.

Concurrency model (deliberately boring):

* every mutation is read → modify → write-temp → ``os.replace``, so a
  reader never sees a half board;
* mutations serialize through a sidecar lock file created with
  ``O_CREAT | O_EXCL`` (the one primitive NFS gets right); a lock older
  than ``stale_lock_after`` is presumed abandoned by a dead worker and
  broken;
* liveness is lease *expiry*, not worker heartbeat infrastructure: a
  claim carries an ``expires`` deadline, :meth:`LeaseBoard.heartbeat`
  extends it, and a lease whose deadline passed is claimable again
  (``attempts`` incremented) — a crashed worker costs one TTL plus its
  group's unfinished points, nothing more.

Duplicate execution after a reclaim is *safe* (records are
content-addressed and deterministic, so a resurrected worker's late
``put`` merges as a duplicate), merely wasted work.

Wall-clock reads here are real coordination time (lease deadlines, lock
staleness), hence the ``noqa: REP104`` markers; tests inject ``now``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..instrument.metrics import REGISTRY
from .board import STATES, Board

__all__ = ["Lease", "LeaseBoard", "LeaseBoardError", "STATES"]

#: Lease-board wire-format version (2: leases carry their trajectory).
BOARD_SCHEMA = 2


class LeaseBoardError(Exception):
    """The board is unreadable, locked beyond patience, or inconsistent."""


@dataclass
class Lease:
    """One design point's claim state on the board."""

    key: str
    label: str
    point: dict
    state: str = "pending"
    worker: str | None = None
    expires: float = 0.0
    attempts: int = 0
    #: the point's trajectory id; None makes the lease a group of its own
    trajectory: str | None = None

    def to_doc(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "point": self.point,
            "trajectory": self.trajectory,
            "state": self.state,
            "worker": self.worker,
            "expires": self.expires,
            "attempts": self.attempts,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Lease":
        return cls(**{k: doc[k] for k in ("key", "label", "point")},
                   state=doc.get("state", "pending"),
                   worker=doc.get("worker"),
                   expires=doc.get("expires", 0.0),
                   attempts=doc.get("attempts", 0),
                   trajectory=doc.get("trajectory"))


def _group(entry: dict) -> str:
    """The group a board entry is claimed, renewed and completed with."""
    return entry.get("trajectory") or entry["key"]


class LeaseBoard(Board):
    """The lease file plus its mutation discipline.

    Parameters
    ----------
    path:
        The board file (shared between serve and every worker).
    now:
        Clock returning seconds-since-epoch; tests inject a fake to
        drive expiry deterministically.
    stale_lock_after:
        Age in seconds past which a sidecar lock is presumed abandoned.
    """

    def __init__(self, path: str | Path, now=None, stale_lock_after: float = 30.0) -> None:
        self.path = Path(path)
        self._now = now if now is not None else time.time  # noqa: REP104
        self.stale_lock_after = stale_lock_after

    # -- file plumbing -------------------------------------------------
    @property
    def _lock_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".lock")

    def _acquire_lock(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout  # noqa: REP104 — real coordination time
        while True:
            try:
                fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - self._lock_path.stat().st_mtime  # noqa: REP104
                except FileNotFoundError:
                    continue  # holder released between open and stat; retry
                if age > self.stale_lock_after:
                    self._lock_path.unlink(missing_ok=True)  # break a dead worker's lock
                    continue
                if time.monotonic() > deadline:  # noqa: REP104
                    raise LeaseBoardError(
                        f"lease board {self.path} locked for > {timeout} s"
                    ) from None
                time.sleep(0.02)
            else:
                os.close(fd)
                return

    def _release_lock(self) -> None:
        self._lock_path.unlink(missing_ok=True)

    def _read(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except FileNotFoundError:
            raise LeaseBoardError(f"no lease board at {self.path}") from None
        except ValueError as exc:
            raise LeaseBoardError(f"unreadable lease board {self.path}: {exc}") from None

    def _write(self, doc: dict) -> None:
        # the coordinator package imports this module, so its wire
        # encoding (canonical and compact: C-encoded) is imported late
        from .coordinator.wire import dumps

        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(dumps(doc) + b"\n")
        os.replace(tmp, self.path)

    def _mutate(self, fn):
        """Locked read-modify-write; ``fn(doc)`` returns the call's result."""
        self._acquire_lock()
        try:
            doc = self._read()
            result = fn(doc)
            self._write(doc)
            return result
        finally:
            self._release_lock()

    # -- the protocol --------------------------------------------------
    def publish(self, campaign: dict, leases: list[Lease]) -> None:
        """Write a fresh board (atomic; replaces any previous board)."""
        self._write(
            {
                "schema": BOARD_SCHEMA,
                "campaign": campaign,
                "leases": [lease.to_doc() for lease in leases],
            }
        )

    def campaign(self) -> dict:
        """The published campaign description (what workers reconstruct)."""
        return self._read()["campaign"]

    def claim(self, worker: str, ttl: float = 300.0, group: int = 0):
        """Claim the next runnable lease for ``worker``, or ``None``.

        Runnable means ``pending``, or ``leased`` with an expired
        deadline (the previous worker is presumed dead; ``attempts`` is
        incremented so the reclaim is visible in the audit trail).

        ``group > 0`` claims the first runnable lease's whole group
        instead — every runnable lease of its trajectory, in board
        order, at most ``group`` of them — and returns them as a list
        (empty when nothing is runnable).  The single-lease call is the
        same pass with a group of one.
        """
        limit = max(group, 1)

        def fn(doc: dict) -> list[Lease]:
            # One clock read per mutation pass, taken *after* the lock is
            # held: every candidate's TTL-expiry decision in this claim
            # uses the same instant, and a long lock wait cannot make a
            # stale reading resurrect (or miss) an expiring lease.
            now = self._now()
            claimed: list[Lease] = []
            chosen = None
            for entry in doc["leases"]:
                expired = entry["state"] == "leased" and entry["expires"] <= now
                if not (entry["state"] == "pending" or expired):
                    continue
                if chosen is None:
                    chosen = _group(entry)
                elif _group(entry) != chosen:
                    continue
                if expired:
                    entry["attempts"] += 1
                    REGISTRY.counter("leases.reclaimed").increment()
                entry["state"] = "leased"
                entry["worker"] = worker
                entry["expires"] = now + ttl
                REGISTRY.counter("leases.claimed").increment(worker=worker)
                claimed.append(Lease.from_doc(entry))
                if len(claimed) == limit:
                    break
            return claimed

        claimed = self._mutate(fn)
        if group > 0:
            return claimed
        return claimed[0] if claimed else None

    def heartbeat(self, key: str, worker: str, ttl: float = 300.0) -> bool:
        """Extend the deadline of every lease of ``key``'s group that
        ``worker`` holds; False if ``key`` is no longer ours."""

        def fn(doc: dict) -> bool:
            now = self._now()  # one read per mutation, under the lock
            held = next((entry for entry in doc["leases"] if entry["key"] == key), None)
            if held is None or held["state"] != "leased" or held["worker"] != worker:
                return False
            group = _group(held)
            for entry in doc["leases"]:
                if (
                    entry["state"] == "leased"
                    and entry["worker"] == worker
                    and _group(entry) == group
                ):
                    entry["expires"] = now + ttl
            return True

        return self._mutate(fn)

    def complete(self, key, worker: str):
        """Mark a lease done; False if it was reclaimed from us meanwhile.

        ``key`` may be a list of keys (a group's), settled in one
        mutation; the answer is then one such bool per key.
        """
        keys = [key] if isinstance(key, str) else list(key)

        def fn(doc: dict) -> list[bool]:
            entries = {entry["key"]: entry for entry in doc["leases"]}
            settled = []
            for k in keys:
                entry = entries.get(k)
                if entry is None or (entry["state"] == "leased" and entry["worker"] != worker):
                    settled.append(False)  # unknown, or expired under us and reclaimed
                    continue
                entry["state"] = "done"
                entry["worker"] = worker
                settled.append(True)
            return settled

        settled = self._mutate(fn)
        return settled[0] if isinstance(key, str) else settled

    def release(self, key: str, worker: str) -> None:
        """Give a claimed lease back (worker failed but lived to say so)."""

        def fn(doc: dict) -> None:
            for entry in doc["leases"]:
                if (
                    entry["key"] == key
                    and entry["state"] == "leased"
                    and entry["worker"] == worker
                ):
                    entry["state"] = "pending"
                    entry["worker"] = None
                    entry["expires"] = 0.0

        self._mutate(fn)

    # -- read-only views -----------------------------------------------
    def leases(self) -> list[Lease]:
        return [Lease.from_doc(entry) for entry in self._read()["leases"]]

    def describe(self) -> str:
        return f"file board {self.path}"
