"""Message and receive-post records for the simulated MPI layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..cluster.state import TransferPlan
from ..sim.engine import Future

__all__ = [
    "Message", "RecvPost", "PayloadSize", "payload_nbytes", "payload_dtype", "copy_payload",
]

Payload = "np.ndarray | bytes | PayloadSize"


class PayloadSize(NamedTuple):
    """A payload reduced to what the transport sees: its size and dtype label.

    What a recorded op stream carries instead of data; a replayed send of
    one moves the same bytes on the simulated wire as the array it stands
    for.
    """

    nbytes: int
    dtype: str


def payload_nbytes(payload) -> int:
    """Size in bytes of an ndarray, bytes or :class:`PayloadSize` payload."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, PayloadSize):
        return payload.nbytes
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def payload_dtype(payload) -> str:
    """Dtype label of a payload: the numpy dtype name, or ``"bytes"``."""
    if isinstance(payload, np.ndarray):
        return str(payload.dtype)
    if isinstance(payload, PayloadSize):
        return payload.dtype
    return "bytes"


def copy_payload(payload):
    """Snapshot the payload at send time (MPI buffer semantics)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, PayloadSize):
        return payload  # immutable
    return bytes(payload)


@dataclass(slots=True)
class Message:
    """An in-flight message."""

    src: int
    dst: int
    tag: int
    payload: object
    nbytes: int
    sender_ready: float  # sim time the payload left the sender's hands
    rendezvous: bool
    plan: TransferPlan | None = None
    #: resolved at transfer completion for rendezvous sends
    fut_sender: Future | None = None

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.src, self.dst, self.tag)


@dataclass(slots=True)
class RecvPost:
    """A posted receive waiting for its matching message.

    ``expect_nbytes``/``expect_dtype`` are the receiver's optional
    declaration of the payload it is prepared for; the runtime sanitizer
    (:mod:`repro.analysis.sanitizer`) asserts agreement at match time.
    """

    src: int
    dst: int
    tag: int
    post_time: float
    expect_nbytes: int | None = None
    expect_dtype: str | None = None
    fut: Future = field(default_factory=Future)  # resolves with the Message

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.src, self.dst, self.tag)
