"""CMPI — CHARMM's portable message-passing middleware, reconstructed.

Section 4.2 of the paper describes it precisely:

* heavy use of **non-blocking communication with split send/receive
  calls** as the only primitives;
* all remaining synchronization "implemented by repeated exchanges of
  empty messages (or one byte) among nearest neighbor-processes", and a
  single synchronization "is repeated p-1 times for p processors".

Global operations are therefore naive: every rank split-sends its full
contribution to every peer and combines locally, bracketed by the
neighbour-ring synchronization.  On per-packet-overhead networks (TCP/IP
on Ethernet) the p-1 tiny-message rounds and the O(p^2) full-size
messages destroy scalability — the Figure 8 pathology.

Each operation is one op batch (:class:`~repro.mpi.endpoint.OpBatch`):
its rounds — the per-call marshalling charge, the irecv, the isend —
followed by its waits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..instrument.timeline import Category
from ..mpi.endpoint import CHARGE, EMPTY_PAYLOAD, RECV, SEND, WAIT, RankEndpoint
from ..mpi.middleware import Middleware

__all__ = ["CMPIMiddleware"]


class CMPIMiddleware(Middleware):
    """The portable CHARMM middleware layer."""

    name = "cmpi"

    #: extra host time per split-phase call (argument marshalling in the
    #: portability layer); small but it multiplies the message count.
    #: A ``CHARGE`` op both books and sleeps it: booking without sleeping
    #: would attribute seconds that never existed on the clock, which the
    #: runtime sanitizer's timeline-accounting invariant (REP304) rejects.
    call_overhead: float = 4.0e-6

    # ------------------------------------------------------------------
    def _split_phase(self, ep: RankEndpoint, tag, payloads: list, expect_nbytes=None,
                     expect_dtype=None) -> list:
        """The ops of one split-phase exchange with every peer.

        Round k posts the receive from ``rank - k`` and the send of
        ``payloads[rank + k]`` to ``rank + k``; the receive waits follow in
        round order, then the send waits.
        """
        p = ep.size
        ops = []
        for k in range(1, p):
            peer = (ep.rank + k) % p
            ops += [
                (CHARGE, self.call_overhead),
                (RECV, (ep.rank - k) % p, tag, expect_nbytes, expect_dtype),
                (SEND, peer, tag, payloads[peer]),
            ]
        ops += [(WAIT, 2 * i) for i in range(p - 1)]
        ops += [(WAIT, 2 * i + 1) for i in range(p - 1)]
        return ops

    def sync(self, ep: RankEndpoint):
        """Neighbour-ring synchronization: p-1 one-byte exchange rounds."""
        p = ep.size
        if p == 1:
            return
        tag = ep.next_collective_tag("cmpi-sync")
        ops = []
        for k in range(1, p):
            ops += [
                (CHARGE, self.call_overhead),
                (RECV, (ep.rank - k) % p, tag + k, len(EMPTY_PAYLOAD), "bytes"),
                (SEND, (ep.rank + k) % p, tag + k, EMPTY_PAYLOAD),
                (WAIT, 2 * k - 2),
                (WAIT, 2 * k - 1),
            ]
        with ep.timeline.as_category(Category.SYNC):
            yield from ep.batch(ops)

    # ------------------------------------------------------------------
    def barrier(self, ep: RankEndpoint):
        yield from self.sync(ep)

    def allreduce(self, ep: RankEndpoint, array: np.ndarray, op: Callable = np.add):
        """Everyone split-sends the full vector to everyone, combines locally."""
        p = ep.size
        data = np.asarray(array).copy()
        if p == 1:
            return data
        tag = ep.next_collective_tag("allreduce")
        # every peer contributes a block shaped like ours (SPMD)
        received = yield from ep.batch(self._split_phase(
            ep, tag, [data] * p, expect_nbytes=int(data.nbytes), expect_dtype=str(data.dtype),
        ))
        for other in received:
            data = op(data, other)
        yield from self.sync(ep)
        return data

    def allgatherv(self, ep: RankEndpoint, block: np.ndarray):
        """Split-send own block to all peers, receive all blocks."""
        p = ep.size
        blocks: list[np.ndarray | None] = [None] * p
        blocks[ep.rank] = np.asarray(block).copy()
        if p == 1:
            return blocks
        tag = ep.next_collective_tag("allgatherv")
        received = yield from ep.batch(self._split_phase(ep, tag, [blocks[ep.rank]] * p))
        for k in range(1, p):
            blocks[(ep.rank - k) % p] = received[k - 1]
        yield from self.sync(ep)
        return blocks

    def exchange(self, ep: RankEndpoint, dest: int, payload, source: int, tag: int = 0):
        """Paired neighbour exchange through the portability layer.

        One marshalling charge per call — CMPI's split-phase primitives
        sit behind the same argument-packing shim as every other entry
        point — then the receive-first paired exchange.
        """
        received = yield from ep.batch([
            (CHARGE, self.call_overhead),
            (RECV, source, tag, None, None),
            (SEND, dest, tag, payload),
            (WAIT, 0),
            (WAIT, 1),
        ])
        return received[0]

    def alltoallv(self, ep: RankEndpoint, send_blocks: list):
        """Direct split sends/receives of the personalized blocks."""
        p = ep.size
        if len(send_blocks) != p:
            raise ValueError(f"need {p} send blocks, got {len(send_blocks)}")
        recv_blocks: list = [None] * p
        recv_blocks[ep.rank] = send_blocks[ep.rank]
        if p == 1:
            return recv_blocks
        tag = ep.next_collective_tag("alltoallv")
        received = yield from ep.batch(self._split_phase(ep, tag, send_blocks))
        for k in range(1, p):
            recv_blocks[(ep.rank - k) % p] = received[k - 1]
        yield from self.sync(ep)
        return recv_blocks
