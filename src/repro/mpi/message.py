"""Payload helpers for the simulated MPI layer.

The message itself is the sender's request
(:class:`~repro.mpi.endpoint.SendRequest`); these functions size, label
and snapshot what it carries.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = ["PayloadSize", "payload_nbytes", "payload_dtype", "copy_payload"]

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


@cache
def _dtype_name(dtype: np.dtype) -> str:
    # str(dtype) costs more than the lookup, and a run sends few dtypes
    return str(dtype)


def payload_dtype(payload) -> str:
    """Dtype label of a payload: the numpy dtype name, or ``"bytes"``."""
    if isinstance(payload, np.ndarray):
        return _dtype_name(payload.dtype)
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
