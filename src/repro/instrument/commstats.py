"""Communication-rate statistics (the paper's Figure 7 metric) and the
per-rank communication event trace.

Figure 7 plots, per network and processor count, the *average and
variability of the communication speed per node* in MByte/s: how fast the
data actually moved when a node was transferring, with min/max whiskers
exposing the TCP flow-control instability.

:class:`CommTrace` is an opt-in, passive log of every send, receive post
and collective invocation with ``(src, dst, tag, nbytes, dtype)``, in a
global deterministic order.  Recording draws no random numbers and
charges no virtual time, so a traced run is bit-identical to an
untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.state import TransferRecord

__all__ = [
    "CommSpeedStats",
    "communication_speeds",
    "CommEvent",
    "CommTrace",
]

#: Transfers smaller than this are latency-dominated and excluded from the
#: rate statistics, mirroring how the paper measures data-transfer speed.
MIN_DATA_BYTES = 8 * 1024


@dataclass(frozen=True)
class CommSpeedStats:
    """Per-node communication speed summary in MByte/s."""

    mean: float
    minimum: float
    maximum: float
    n_transfers: int

    @property
    def spread(self) -> float:
        return self.maximum - self.minimum


def communication_speeds(
    transfers: list[TransferRecord], min_bytes: int = MIN_DATA_BYTES
) -> CommSpeedStats:
    """Summarize achieved per-transfer rates across all nodes.

    Only inter-node data transfers at least ``min_bytes`` long count; the
    mean weights every transfer equally (each is one observation of what a
    node achieved), matching the paper's per-node speed plot.
    """
    rates = np.array(
        [t.rate for t in transfers if t.nbytes >= min_bytes and t.end > t.start],
        dtype=np.float64,
    )
    if len(rates) == 0:
        return CommSpeedStats(mean=0.0, minimum=0.0, maximum=0.0, n_transfers=0)
    mb = rates / 1e6
    return CommSpeedStats(
        mean=float(mb.mean()),
        minimum=float(mb.min()),
        maximum=float(mb.max()),
        n_transfers=len(mb),
    )


# ---------------------------------------------------------------------------
# communication event trace


@dataclass(frozen=True)
class CommEvent:
    """One communication call as seen from the calling rank.

    ``kind`` is ``"send"``, ``"recv"`` or ``"collective"``.  For sends,
    ``peer`` is the destination; for receive posts, the source; for
    collectives it is ``-1`` and ``op`` names the operation.  ``nbytes``
    and ``dtype`` describe the payload for sends and the *expected*
    payload for receives (``-1`` / ``""`` when the receiver declares no
    expectation).  ``overhead`` is the per-message host overhead the
    calling rank charged for this operation (seconds of virtual time) —
    on dual-processor nodes with interrupt-driven networks it carries the
    SMP stack-contention multiplier (paper Sec. 4.4).
    """

    kind: str
    rank: int
    peer: int
    tag: int
    nbytes: int
    dtype: str
    op: str
    time: float
    seq: int
    rendezvous: bool = False
    overhead: float = 0.0

    @property
    def key(self) -> tuple[int, int, int]:
        """The matching key ``(src, dst, tag)`` of a send or receive."""
        if self.kind == "send":
            return (self.rank, self.peer, self.tag)
        return (self.peer, self.rank, self.tag)


class CommTrace:
    """Append-only log of communication events across all ranks."""

    def __init__(self) -> None:
        self.events: list[CommEvent] = []

    def _record(self, **kw) -> None:
        self.events.append(CommEvent(seq=len(self.events), **kw))

    def record_send(
        self,
        rank: int,
        dst: int,
        tag: int,
        nbytes: int,
        dtype: str,
        time: float,
        rendezvous: bool = False,
        overhead: float = 0.0,
    ) -> None:
        self._record(
            kind="send", rank=rank, peer=dst, tag=tag, nbytes=nbytes,
            dtype=dtype, op="", time=time, rendezvous=rendezvous,
            overhead=overhead,
        )

    def record_recv(
        self,
        rank: int,
        src: int,
        tag: int,
        time: float,
        nbytes: int = -1,
        dtype: str = "",
        overhead: float = 0.0,
    ) -> None:
        self._record(
            kind="recv", rank=rank, peer=src, tag=tag, nbytes=nbytes,
            dtype=dtype, op="", time=time, overhead=overhead,
        )

    def record_collective(self, rank: int, op: str, tag: int, time: float) -> None:
        self._record(
            kind="collective", rank=rank, peer=-1, tag=tag, nbytes=0,
            dtype="", op=op, time=time,
        )

    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> list[CommEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)
