"""The simulated MPI world: matching engine over the cluster model.

One :class:`MPIWorld` owns the cluster state and the unexpected-message /
posted-receive queues.  Matching follows MPI semantics: FIFO per
``(source, dest, tag)``; wildcard receives are not needed by CHARMM's
communication structure and are not implemented.

Timing protocol (decided lazily at match time):

* **eager** message (``nbytes <= eager_threshold``): the payload starts
  moving as soon as the sender finishes its per-message host work; the
  sender never blocks.
* **rendezvous** message: the payload starts moving only when both sides
  have arrived (``max(send issued, receive posted)``); the sender blocks
  until the transfer completes (CHARMM's standard blocking sends).

The wire timing itself — NIC serialization, congestion-dependent
efficiency, interrupt queueing — is delegated to
:meth:`repro.cluster.state.ClusterState.plan_transfer`.
"""

from __future__ import annotations

from ..cluster.machine import ClusterSpec
from ..cluster.state import ClusterState
from ..sim.engine import SimulationError, Simulator

__all__ = ["MPIWorld"]


class MPIWorld:
    """Matching engine + endpoints for one simulated MPI job.

    ``sanitize=True`` installs a :class:`repro.analysis.sanitizer.Sanitizer`
    that asserts size/dtype agreement on every matched message, validates
    every transfer window and, through each endpoint, the cross-rank
    collective order at every tag draw and the timeline accounting at
    every batch boundary; ``trace`` (a
    :class:`~repro.instrument.commstats.CommTrace`) records every
    send/recv/collective event; ``span_tracer``
    (a :class:`~repro.instrument.tracing.SpanTracer`) mirrors every
    timeline attribution of every rank as a virtual-clock span.  All
    three are passive: they never charge virtual time or draw random
    numbers, so sanitized/traced runs are bit-identical to plain ones.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ClusterSpec,
        *,
        sanitize: bool = False,
        trace=None,
        span_tracer=None,
    ) -> None:
        from .endpoint import RankEndpoint  # local import to avoid a cycle

        self.sim = sim
        self.spec = spec
        self.trace = trace
        self.sanitizer = None
        plan_validator = None
        if sanitize:
            from ..analysis.sanitizer import Sanitizer  # local import, avoids a cycle

            self.sanitizer = Sanitizer()
            plan_validator = self.sanitizer.check_plan
        self.state = ClusterState(spec, plan_validator=plan_validator)
        #: each rank's node, read once per message end
        self._nodes = [spec.node_of(r) for r in range(spec.n_ranks)]
        # FIFO queues per (source, dest, tag) of unmatched sends / posted
        # receives; a key leaves its dict when its queue empties
        self._msgs: dict[tuple[int, int, int], list] = {}
        self._recvs: dict[tuple[int, int, int], list] = {}
        self.endpoints = [RankEndpoint(self, r) for r in range(spec.n_ranks)]
        if span_tracer is not None:
            for ep in self.endpoints:
                span_tracer.attach_rank(ep.rank, ep.timeline)

    # ------------------------------------------------------------------
    def post_message(self, send) -> None:
        """Called with a :class:`~repro.mpi.endpoint.SendRequest` once its
        sender's per-message host work is done."""
        key = (send.src, send.dest, send.tag)
        recvs = self._recvs.get(key)
        if recvs is None:
            msgs = self._msgs.get(key)
            if msgs is None:
                self._msgs[key] = [send]
            else:
                msgs.append(send)
            return
        recv = recvs.pop(0)
        if not recvs:
            del self._recvs[key]
        self._match(send, recv)

    def post_recv(self, recv) -> None:
        """Called with a :class:`~repro.mpi.endpoint.RecvRequest` after its
        receiver's per-message host work."""
        key = (recv.source, recv.endpoint.rank, recv.tag)
        msgs = self._msgs.get(key)
        if msgs is None:
            recvs = self._recvs.get(key)
            if recvs is None:
                self._recvs[key] = [recv]
            else:
                recvs.append(recv)
            return
        send = msgs.pop(0)
        if not msgs:
            del self._msgs[key]
        self._match(send, recv)

    # ------------------------------------------------------------------
    def _match(self, send, recv) -> None:
        """Plan the transfer; schedule the receive's completion, and the
        send's when it is a rendezvous, for the instant it ends."""
        if self.sanitizer is not None:
            self.sanitizer.check_match(send, recv)
        recv.message = send
        ready = (
            send.issued_at
            if not send.rendezvous
            else max(send.issued_at, recv.posted_at)
        )
        nodes = self._nodes
        plan = self.state.plan_transfer(nodes[send.src], nodes[send.dest], send.nbytes, ready)
        send.plan = plan

        sim = self.sim
        delay = max(0.0, plan.end - sim.now)
        sim.schedule(delay, recv._complete)
        if send.rendezvous:
            sim.schedule(delay, send._complete)

    # ------------------------------------------------------------------
    def leftovers(self) -> tuple[dict, dict]:
        """Unmatched messages and posted receives, counted per
        ``(source, dest, tag)`` (empty once the run drained)."""
        return (
            {k: len(v) for k, v in self._msgs.items()},
            {k: len(v) for k, v in self._recvs.items()},
        )

    def assert_drained(self) -> None:
        """Raise :class:`SimulationError` if unmatched traffic remains."""
        msgs, recvs = self.leftovers()
        if msgs or recvs:
            raise SimulationError(f"unmatched traffic: messages={msgs} recvs={recvs}")
