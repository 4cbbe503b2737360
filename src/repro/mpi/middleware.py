"""Middleware abstraction: how the application invokes global operations.

The paper's second factor (Sec. 4.2): CHARMM ships two communication
styles — raw **MPI** (blocking point-to-point, MPI barriers, the standard
collective algorithms) and **CMPI**, a portability layer built on split
non-blocking calls whose synchronization is p-1 rounds of one-byte
neighbour exchanges.  Rank programs call through this interface so the
experiment runner can swap the middleware without touching the physics.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from . import collectives
from .endpoint import RankEndpoint

__all__ = ["Middleware", "MPIMiddleware"]


class Middleware(abc.ABC):
    """Interface: every method is a generator to be driven with yield-from.

    A proper ABC: subclasses must implement every operation, and the
    abstract declarations carry no dead ``yield`` bodies.  The analyzer's
    lint pass (:mod:`repro.analysis.lint`) knows these names as the
    generator-collective protocol: any call site must use ``yield from``
    or the operation silently never runs (rule REP101).
    """

    name = "abstract"

    @abc.abstractmethod
    def barrier(self, ep: RankEndpoint):
        """Generator: block until every rank has entered the barrier."""

    @abc.abstractmethod
    def allreduce(self, ep: RankEndpoint, array: np.ndarray, op: Callable = np.add):
        """Generator: combine ``array`` across ranks; returns the result."""

    @abc.abstractmethod
    def allgatherv(self, ep: RankEndpoint, block: np.ndarray):
        """Generator: gather per-rank blocks everywhere; returns the list."""

    @abc.abstractmethod
    def alltoallv(self, ep: RankEndpoint, send_blocks: list):
        """Generator: personalized exchange; returns the received blocks."""

    def exchange(self, ep: RankEndpoint, dest: int, payload, source: int, tag: int = 0):
        """Generator: paired neighbour exchange; returns the received payload.

        Send ``payload`` to ``dest`` while receiving from ``source`` on the
        same ``tag`` — the halo-exchange primitive of a spatial
        decomposition.  Deadlock-free under rendezvous semantics because
        the receive is posted before the send
        (:meth:`repro.mpi.endpoint.RankEndpoint.sendrecv`).  A subclass
        whose exchange costs more (CMPI's marshalling) overrides it.
        """
        result = yield from ep.sendrecv(dest, payload, source, tag=tag)
        return result


class MPIMiddleware(Middleware):
    """Raw MPI calls: standard algorithms, MPI barriers."""

    name = "mpi"

    def barrier(self, ep: RankEndpoint):
        yield from collectives.barrier(ep)

    def allreduce(self, ep: RankEndpoint, array: np.ndarray, op: Callable = np.add):
        result = yield from collectives.allreduce(ep, array, op)
        return result

    def allgatherv(self, ep: RankEndpoint, block: np.ndarray):
        result = yield from collectives.allgatherv(ep, block)
        return result

    def alltoallv(self, ep: RankEndpoint, send_blocks: list):
        result = yield from collectives.alltoallv(ep, send_blocks)
        return result
