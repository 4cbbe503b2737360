"""The ``Board`` protocol: one lease-coordination surface, many backends.

A *board* is whatever coordinates a worker-pull campaign: it hands out
leases, keeps them alive, and records completion.  Two implementations
ship:

* :class:`~repro.campaign.leases.LeaseBoard` — one JSON file on a
  (possibly shared) filesystem, zero dependencies, the original and
  fallback backend;
* :class:`~repro.campaign.coordinator.HttpBoardClient` — a thin blocking
  client speaking the coordinator wire format
  (:mod:`repro.campaign.coordinator.wire`) to the asyncio HTTP
  coordinator, for campaigns whose workers share no filesystem.

Everything downstream — :mod:`repro.campaign.federation`,
:mod:`repro.campaign.dashboard`, the ``campaign serve/work/status`` CLI
— accepts any :class:`Board`; callers pick a backend with one URL
through :func:`board_from_url`::

    board_from_url("file:leases.json")       # file board, explicit
    board_from_url("leases.json")            # file board, bare path
    board_from_url("http://host:8765")       # HTTP coordinator client

The contract every backend must honour (the file board's semantics,
verbatim):

* :meth:`Board.claim` returns each runnable lease to exactly one caller
  — concurrent claims never double-assign a key; with ``group=n`` it
  hands over up to ``n`` runnable leases of the first runnable lease's
  trajectory group in one mutation;
* a claim is *not* idempotent: a second claim by the same worker gets
  the next lease (or group), so a claim whose answer was lost strands
  what it took until the deadline passes;
* a ``leased`` entry whose deadline passed is runnable again, with
  ``attempts`` incremented (expiry *is* the liveness story);
* :meth:`Board.heartbeat` extends every lease of the key's group the
  caller holds;
* :meth:`Board.complete` returns ``False`` when the lease was reclaimed
  from the caller meanwhile (late completion after a reclaim); given a
  list of keys it settles them in one mutation, one answer per key;
* :meth:`Board.release` silently no-ops unless the caller still holds
  the lease.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only: leases imports this module
    from .leases import Lease

__all__ = ["Board", "board_from_url"]

#: Lease/board states every backend shares.
STATES = ("pending", "leased", "done")


class Board(ABC):
    """Abstract lease board: the campaign-coordination protocol.

    Subclasses implement the seven primitives; ``counts``/``done`` are
    derived here so every backend agrees on what "finished" means.
    """

    # -- mutations ------------------------------------------------------
    @abstractmethod
    def publish(self, campaign: dict, leases: list["Lease"]) -> None:
        """Replace the board's contents with a fresh campaign."""

    @abstractmethod
    def claim(self, worker: str, ttl: float = 300.0, group: int = 0):
        """Claim the next runnable lease for ``worker``, or ``None``;
        ``group > 0``: a list of up to ``group`` leases of one group."""

    @abstractmethod
    def heartbeat(self, key: str, worker: str, ttl: float = 300.0) -> bool:
        """Extend the held leases of ``key``'s group; False if ``key``
        is no longer ours."""

    @abstractmethod
    def complete(self, key, worker: str):
        """Mark a lease done; False if it was reclaimed from us meanwhile
        (a list of keys: one such answer per key)."""

    @abstractmethod
    def release(self, key: str, worker: str) -> None:
        """Give a claimed lease back (worker failed but lived to say so)."""

    # -- read-only views ------------------------------------------------
    @abstractmethod
    def campaign(self) -> dict:
        """The published campaign description (what workers reconstruct)."""

    @abstractmethod
    def leases(self) -> list["Lease"]:
        """Every lease on the board, as :class:`~repro.campaign.leases.Lease`."""

    def counts(self) -> dict[str, int]:
        out = {state: 0 for state in STATES}
        for lease in self.leases():
            out[lease.state] = out.get(lease.state, 0) + 1
        return out

    def done(self) -> bool:
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def describe(self) -> str:
        """One-line human identity of the backend (for logs and errors)."""
        return type(self).__name__


def board_from_url(url: "str | Path | Board", *, now=None) -> "Board":
    """Resolve one ``--board`` argument to a live :class:`Board`.

    Accepted forms:

    * an existing :class:`Board` — returned unchanged (so every call
      site can normalize through this one function);
    * ``http://HOST:PORT`` / ``https://HOST:PORT`` — an
      :class:`~repro.campaign.coordinator.HttpBoardClient` against a
      running coordinator;
    * ``file:PATH`` — the file board at ``PATH``;
    * any other string or :class:`~pathlib.Path` — treated as a bare
      file-board path (the historical call form; pinned by tests so old
      callers keep working).

    ``now`` is the injectable clock for file boards; HTTP boards ignore
    it because expiry is decided by the coordinator's clock.
    """
    if isinstance(url, Board):
        return url
    text = str(url)
    if text.startswith(("http://", "https://")):
        from .coordinator.client import HttpBoardClient

        return HttpBoardClient(text)
    from .leases import LeaseBoard

    if text.startswith("file:"):
        text = text[len("file:"):]
        if not text:
            raise ValueError("empty path in 'file:' board URL")
    return LeaseBoard(text, now=now)
