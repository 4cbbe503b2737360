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
  have arrived (``max(sender_ready, recv post time)``); the sender blocks
  until the transfer completes (CHARMM's standard blocking sends).

The wire timing itself — NIC serialization, congestion-dependent
efficiency, interrupt queueing — is delegated to
:meth:`repro.cluster.state.ClusterState.plan_transfer`.
"""

from __future__ import annotations

from collections import deque

from ..cluster.machine import ClusterSpec
from ..cluster.state import ClusterState
from ..sim.engine import Simulator
from .message import Message, RecvPost

__all__ = ["MPIWorld"]


class MPIWorld:
    """Matching engine + endpoints for one simulated MPI job.

    ``sanitize=True`` installs a :class:`repro.analysis.sanitizer.Sanitizer`
    that asserts size/dtype agreement on every matched message and
    validates every transfer window; ``trace`` (a
    :class:`~repro.instrument.commstats.CommTrace`) records every
    send/recv/collective event for the schedule analyzer; ``span_tracer``
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
        self._msgs: dict[tuple[int, int, int], deque[Message]] = {}
        self._recvs: dict[tuple[int, int, int], deque[RecvPost]] = {}
        self.endpoints = [RankEndpoint(self, r) for r in range(spec.n_ranks)]
        if span_tracer is not None:
            for ep in self.endpoints:
                span_tracer.attach_rank(ep.rank, ep.timeline)

    @property
    def size(self) -> int:
        return self.spec.n_ranks

    # ------------------------------------------------------------------
    def post_message(self, msg: Message) -> None:
        """Called by a sender once its per-message host work is done."""
        queue = self._recvs.get(msg.key)
        if queue:
            self._match(msg, queue.popleft())
        else:
            self._msgs.setdefault(msg.key, deque()).append(msg)

    def post_recv(self, post: RecvPost) -> None:
        """Called by a receiver after its per-message host work."""
        queue = self._msgs.get(post.key)
        if queue:
            self._match(queue.popleft(), post)
        else:
            self._recvs.setdefault(post.key, deque()).append(post)

    # ------------------------------------------------------------------
    def _match(self, msg: Message, post: RecvPost) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_match(msg, post)
        ready = (
            msg.sender_ready
            if not msg.rendezvous
            else max(msg.sender_ready, post.post_time)
        )
        src_node = self.spec.node_of(msg.src)
        dst_node = self.spec.node_of(msg.dst)
        plan = self.state.plan_transfer(src_node, dst_node, msg.nbytes, ready)
        msg.plan = plan

        delay = max(0.0, plan.end - self.sim.now)
        self.sim.schedule(delay, post.fut.resolve, self.sim, msg)
        if msg.fut_sender is not None:
            self.sim.schedule(delay, msg.fut_sender.resolve, self.sim, plan)

    # ------------------------------------------------------------------
    def assert_drained(self) -> None:
        """Raise if unmatched messages or receives remain (test hook)."""
        leftover_msgs = {k: len(v) for k, v in self._msgs.items() if v}
        leftover_recvs = {k: len(v) for k, v in self._recvs.items() if v}
        if leftover_msgs or leftover_recvs:
            raise AssertionError(
                f"unmatched traffic: messages={leftover_msgs} recvs={leftover_recvs}"
            )
