"""Simulated MPI: real payloads between SPMD generators, virtual time."""

from . import collectives
from .endpoint import EMPTY_PAYLOAD, RankEndpoint, RecvRequest, SendRequest
from .message import copy_payload, payload_nbytes
from .middleware import Middleware, MPIMiddleware
from .world import MPIWorld

__all__ = [
    "collectives",
    "copy_payload",
    "EMPTY_PAYLOAD",
    "Middleware",
    "MPIMiddleware",
    "MPIWorld",
    "payload_nbytes",
    "RankEndpoint",
    "RecvRequest",
    "SendRequest",
]
