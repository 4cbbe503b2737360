"""The per-rank MPI interface handed to rank programs, and its op executor.

Real payloads (numpy arrays) move between ranks, so the parallel physics
is bit-for-bit checkable against the serial engine — only *time* is
simulated.

Every point-to-point primitive is one **op batch** (:class:`OpBatch`): a
sequence of ops a rank hands over with a single ``yield``.  ``sendrecv``
is ``RECV, SEND, WAIT 0, WAIT 1``; a CMPI collective is its
charge/recv/send rounds followed by its waits.  The batch's executor
(:meth:`OpBatch._advance`, a bound method — never a per-event closure)
walks the ops, schedules exactly the events they imply — the
per-message host overheads, one wake-up per wait, the receive-side copy
— and resumes the rank generator once, with the received payloads, when
the last op completes.  A message has one object per end: the
sender's :class:`SendRequest` is the message in flight, the receiver's
:class:`RecvRequest` is the posted receive, and each is its own
completion.  Rank programs compose as before:
``yield from ep.sendrecv(...)`` / ``ep.send`` / ``ep.recv``, the
split-phase ``req = yield from ep.isend(...)`` / ``yield from
req.wait()``, and ``yield from ep.batch(ops)`` each yield one batch.

The same executor runs a *recorded* op stream (:func:`replay_program`):
the compute charges, collective-tag draws and batches one rank issued,
with payloads reduced to :class:`~repro.mpi.message.PayloadSize`
(:class:`OpStreamRecorder`; :mod:`repro.parallel.shared` decides when a
run records or replays).  Live and replayed runs therefore schedule the
same events in the same order and draw the same random numbers.

Time attribution (the paper's definitions, Sec. 3.2):

* per-message host overheads and the data-transfer interval -> **comm**
* waiting for a partner / for data to arrive -> **sync**
* :meth:`RankEndpoint.compute` -> **comp**
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, NamedTuple

from ..instrument.timeline import Category, Timeline
from ..sim.engine import SimulationError, Sleep
from .message import PayloadSize, copy_payload, payload_dtype, payload_nbytes

__all__ = [
    "RankEndpoint", "SendRequest", "RecvRequest", "OpBatch", "OpStream",
    "OpStreamRecorder", "replay_program", "EMPTY_PAYLOAD",
    "CHARGE", "RECV", "SEND", "WAIT",
]

#: The one-byte 'empty message' the paper's CMPI middleware exchanges.
EMPTY_PAYLOAD = b"\x00"

#: Tags below this value are free for rank programs; collectives allocate
#: from a per-operation sequence above it.
COLLECTIVE_TAG_BASE = 1 << 20

#: Op codes.  An op is a tuple whose first item is its code:
#:
#: * ``(CHARGE, seconds)`` — book ``seconds`` of host time as comm and
#:   sleep it (CMPI's per-call marshalling);
#: * ``(RECV, source, tag, expect_nbytes, expect_dtype)`` — an irecv: the
#:   per-message overhead, then the receive is posted;
#: * ``(SEND, dest, tag, payload)`` — an isend: the per-message overhead,
#:   then the message is posted;
#: * ``(WAIT, ref)`` — block on the ``ref``-th request this batch posted
#:   (counting RECV and SEND ops from 0), or on a request object.
CHARGE = 0
RECV = 1
SEND = 2
WAIT = 3
#: ``(POST, request)`` — post a request initiated outside any batch (the
#: split-phase spelling ``req = yield from ep.isend(...)``).
POST = 4

_WAIT_FIRST = (WAIT, 0)
_WAIT_SECOND = (WAIT, 1)

#: Op-stream entry kinds (see :class:`OpStreamRecorder`).
_COMPUTE = 0
_DRAW = 1
_BATCH = 2


class _Request:
    """One end of a message: the completion a ``WAIT`` op blocks on.

    ``yield from`` a request initiated outside a batch spends its host
    overhead and posts it.  The matching engine schedules
    :meth:`_complete` for the instant the transfer ends (a receive, a
    rendezvous send; an eager send is complete once posted and never
    blocks).  A wait already blocked on the request resumes through one
    zero-delay event; a wait that finds it complete, through one
    zero-delay event of its own.
    """

    __slots__ = ("endpoint", "tag", "overhead", "done", "_waiter")

    def __iter__(self):
        yield OpBatch(self.endpoint, ((POST, self),))
        return self

    def _complete(self) -> None:
        if self.done:
            raise SimulationError(f"{type(self).__name__} completed twice")
        self.done = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            self.endpoint._sim.schedule(0.0, waiter)


class SendRequest(_Request):
    """A split-phase send, and once posted the message in flight.

    :meth:`RankEndpoint.isend` books the per-message host cost and returns
    the handle; ``yield from`` it spends that time and posts the message;
    ``yield from req.wait()`` blocks until the send completes: at once
    for an eager message, when its transfer ends for a rendezvous one.
    """

    __slots__ = ("src", "dest", "payload", "nbytes", "rendezvous", "issued_at", "plan")

    def __init__(self, endpoint: "RankEndpoint", dest: int, tag: int, payload, nbytes: int,
                 overhead: float, rendezvous: bool) -> None:
        self.endpoint = endpoint
        self.src = endpoint.rank
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.overhead = overhead
        self.rendezvous = rendezvous
        self.done = False
        self._waiter = None
        #: sim time the payload left the sender's hands
        self.issued_at: float | None = None
        #: the transfer's timing, once the matching engine planned it
        self.plan = None

    def wait(self):
        """Block until the send completes (no-op for eager messages)."""
        yield OpBatch(self.endpoint, ((WAIT, self),))

    def _post(self) -> None:
        ep = self.endpoint
        now = ep._sim.now
        self.issued_at = now
        self.payload = copy_payload(self.payload)
        self.done = not self.rendezvous
        trace = ep.world.trace
        if trace is not None:
            trace.record_send(
                ep.rank, self.dest, self.tag, self.nbytes, payload_dtype(self.payload), now,
                self.rendezvous, overhead=self.overhead,
            )
        ep.world.post_message(self)


class RecvRequest(_Request):
    """A split-phase receive (see :class:`SendRequest`), and once posted
    the receive the matching engine pairs with a message."""

    __slots__ = ("source", "expect_nbytes", "expect_dtype", "posted_at", "message")

    def __init__(self, endpoint: "RankEndpoint", source: int, tag: int,
                 expect_nbytes: int | None, expect_dtype: str | None, overhead: float) -> None:
        self.endpoint = endpoint
        self.source = source
        self.tag = tag
        self.expect_nbytes = expect_nbytes
        self.expect_dtype = expect_dtype
        self.overhead = overhead
        self.done = False
        self._waiter = None
        self.posted_at: float | None = None
        #: the matched :class:`SendRequest`
        self.message: SendRequest | None = None

    def wait(self):
        """Block until the payload is delivered; returns it."""
        received = yield OpBatch(self.endpoint, ((WAIT, self),))
        return received[0]

    def _post(self) -> None:
        ep = self.endpoint
        now = ep._sim.now
        self.posted_at = now
        trace = ep.world.trace
        if trace is not None:
            trace.record_recv(
                ep.rank,
                self.source,
                self.tag,
                now,
                -1 if self.expect_nbytes is None else self.expect_nbytes,
                self.expect_dtype or "",
                overhead=self.overhead,
            )
        ep.world.post_recv(self)


class OpBatch:
    """One batch of point-to-point ops, and the executor that runs it.

    A rank yields the batch (``yield from ep.batch(ops)``); the simulator
    hands the rank over to :meth:`start`, and the rank resumes with the
    list of payloads its receive waits delivered, in wait order.  Tags
    are ``tag_base + tag``: 0 for live batches, the rank's current
    collective tag for recorded ones (whose tags are offsets).
    """

    __slots__ = ("ep", "ops", "tag_base", "_proc", "_i", "_stage", "_reqs", "_req",
                 "_received", "_t0")

    def __init__(self, ep: "RankEndpoint", ops, tag_base: int = 0) -> None:
        self.ep = ep
        self.ops = ops
        self.tag_base = tag_base

    def __iter__(self):
        received = yield self
        return received

    def start(self, proc) -> None:
        ep = self.ep
        if ep.recorder is not None:
            ep.recorder.batch(ep.timeline.attribution, self.ops, ep._tag_seq)
        self._proc = proc
        self._i = 0
        self._stage = 0
        self._reqs = []
        self._received = []
        self._advance()

    # -- the executor ---------------------------------------------------
    def _advance(self) -> None:
        """Run ops until one has to wait for an event — scheduled with this
        method as its callback — and resume the rank after the last op."""
        ops = self.ops
        i = self._i
        n = len(ops)
        while i < n:
            op = ops[i]
            code = op[0]
            if code == WAIT:
                if self._wait(op[1]):
                    self._i = i
                    return
            elif self._stage == 0:
                # CHARGE, SEND, RECV, POST: book the host time, sleep it
                self._stage = 1
                self._i = i
                ep = self.ep
                if code == CHARGE:
                    ep.timeline.add(Category.COMM, op[1])
                    ep._sim.schedule(op[1], self._advance)
                    return
                if code == SEND:
                    req = ep.isend(op[1], op[3], self.tag_base + op[2])
                elif code == RECV:
                    req = ep.irecv(op[1], self.tag_base + op[2], op[3], op[4])
                else:
                    req = op[1]
                self._req = req
                self._reqs.append(req)
                ep._sim.schedule(req.overhead, self._advance)
                return
            elif code != CHARGE:
                self._req._post()
            i += 1
            self._stage = 0
        sanitizer = self.ep._sanitizer
        if sanitizer is not None:
            sanitizer.check_clock(self.ep)  # REP304: booked == slept, here
        self._proc._step(self._received)

    def _wait(self, ref) -> bool:
        """One WAIT op at the current stage; True when it scheduled an event."""
        req = self._reqs[ref] if type(ref) is int else ref
        stage = self._stage
        if stage == 0:
            if type(req) is SendRequest and not req.rendezvous:
                return False  # eager: complete once posted
            ep = self.ep
            self._t0 = ep._sim.now
            self._stage = 1
            if req.done:
                ep._sim.schedule(0.0, self._advance)
            else:
                req._waiter = self._advance
            return True
        if type(req) is SendRequest:
            self._book_wait(req.plan.start)
            return False
        send = req.message
        if stage == 1:
            ep = self.ep
            self._book_wait(send.plan.start)
            # receive-side host processing of the payload (copies, checksums)
            copy_cost = ep._byte_cost * send.nbytes * ep._overhead_scale
            if copy_cost > 0:
                ep.timeline.add(Category.COMM, copy_cost)
                self._stage = 2
                ep._sim.schedule(copy_cost, self._advance)
                return True
        self._received.append(send.payload)
        return False

    def _book_wait(self, transfer_start: float) -> None:
        """Split a finished wait into sync (before the data moved) and comm."""
        t0 = self._t0
        t1 = self.ep._sim.now
        sync_wait = max(0.0, min(transfer_start, t1) - t0)
        tl = self.ep.timeline
        tl.add(Category.SYNC, sync_wait)
        tl.add(Category.COMM, max(0.0, (t1 - t0) - sync_wait))


class RankEndpoint:
    """One rank's window onto the simulated machine."""

    def __init__(self, world, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.timeline = Timeline()
        self._tag_seq = COLLECTIVE_TAG_BASE
        #: an :class:`OpStreamRecorder` while the run records its op stream
        self.recorder: OpStreamRecorder | None = None
        #: the world's :class:`~repro.analysis.sanitizer.Sanitizer`, checked
        #: at each collective tag draw and when each of this rank's batches
        #: completes (``None``: no audit)
        self._sanitizer = world.sanitizer
        # sim, network and node layout are fixed for the world's lifetime:
        # the executor reads them once, here
        spec = world.spec
        net = spec.network
        self.size: int = spec.n_ranks
        self._sim = world.sim
        self._net = net
        self._compute_scale = spec.compute_scale
        #: per-message host-overhead multiplier (SMP stack contention)
        self._overhead_scale = (
            net.smp_overhead_multiplier
            if spec.node.cpus_per_node == 2 and net.uses_interrupts
            else 1.0
        )
        self._send_overhead = net.send_overhead
        self._byte_cost = net.cpu_byte_cost  # NetworkParams.host_cost per byte
        self._recv_overhead = net.recv_overhead * self._overhead_scale
        self._eager_threshold = net.eager_threshold

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._sim.now

    def next_collective_tag(self, op: str = "collective") -> int:
        """Fresh tag for one collective operation named ``op``.

        Rank programs are SPMD, so every rank draws the same sequence and
        tags agree across the job.  A sanitized world checks that each tag
        names the same ``op`` on every rank (REP306); a world recording a
        :class:`~repro.instrument.commstats.CommTrace` logs the draw.
        """
        self._tag_seq += 16
        if self.recorder is not None:
            self.recorder.draw(self.timeline.attribution, op)
        if self._sanitizer is not None:
            self._sanitizer.check_collective(self.rank, self._tag_seq, op)
        if self.world.trace is not None:
            self.world.trace.record_collective(self.rank, op, self._tag_seq, self.now)
        return self._tag_seq

    # ------------------------------------------------------------------
    def compute(self, seconds: float):
        """Charge ``seconds`` of computation to the current phase."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        if self.recorder is not None:
            self.recorder.compute(self.timeline.attribution, seconds)
        scaled = seconds * self._compute_scale
        self.timeline.add(Category.COMP, scaled)
        yield Sleep(scaled)

    # ------------------------------------------------------------------
    def isend(self, dest: int, payload, tag: int = 0) -> SendRequest:
        """Initiate a split-phase send; returns its :class:`SendRequest`.

        The per-message host cost is booked here (initiating the send is
        CPU work, MPI_Isend semantics); ``yield from`` the handle spends
        it and posts the message.  Inside a batch the executor does both,
        so every message — live or replayed — is initiated by exactly one
        call of this method.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"bad destination rank {dest}")
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        nbytes = payload_nbytes(payload)
        overhead = (self._send_overhead + self._byte_cost * nbytes) * self._overhead_scale
        self.timeline.add(Category.COMM, overhead)
        return SendRequest(
            self, dest, tag, payload, nbytes, overhead, nbytes > self._eager_threshold
        )

    def irecv(
        self,
        source: int,
        tag: int = 0,
        expect_nbytes: int | None = None,
        expect_dtype: str | None = None,
    ) -> RecvRequest:
        """Initiate a split-phase receive; returns its :class:`RecvRequest`.

        ``expect_nbytes``/``expect_dtype`` optionally declare the payload
        the receiver is prepared for; the runtime sanitizer asserts
        agreement when the message is matched.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"bad source rank {source}")
        if source == self.rank:
            raise ValueError("self-receives are not supported")
        self.timeline.add(Category.COMM, self._recv_overhead)
        return RecvRequest(self, source, tag, expect_nbytes, expect_dtype, self._recv_overhead)

    def batch(self, ops) -> OpBatch:
        """``yield from ep.batch(ops)`` runs ``ops`` as one batch and
        returns the payloads its receive waits delivered, in wait order."""
        return OpBatch(self, ops)

    def send(self, dest: int, payload, tag: int = 0):
        """Blocking send (point-to-point blocking routine of raw MPI)."""
        yield OpBatch(self, ((SEND, dest, tag, payload), _WAIT_FIRST))

    def recv(
        self,
        source: int,
        tag: int = 0,
        expect_nbytes: int | None = None,
        expect_dtype: str | None = None,
    ):
        """Blocking receive; returns the payload."""
        received = yield OpBatch(
            self, ((RECV, source, tag, expect_nbytes, expect_dtype), _WAIT_FIRST)
        )
        return received[0]

    def sendrecv(
        self,
        dest: int,
        payload,
        source: int,
        tag: int = 0,
        expect_nbytes: int | None = None,
        expect_dtype: str | None = None,
    ):
        """Simultaneous exchange (deadlock-free: the receive is posted first)."""
        received = yield OpBatch(self, (
            (RECV, source, tag, expect_nbytes, expect_dtype),
            (SEND, dest, tag, payload),
            _WAIT_FIRST,
            _WAIT_SECOND,
        ))
        return received[0]


# ---------------------------------------------------------------------------
# op streams: one rank's run as data


class OpStream(NamedTuple):
    """One rank's recorded run: what :func:`replay_program` feeds back.

    ``entries`` are ``(kind, attribution, body)`` triples — a compute
    charge (its seconds are the next item of ``seconds``), a collective
    tag draw (body: the op name) or a batch (body: its ops, payloads
    reduced to :class:`~repro.mpi.message.PayloadSize` and tags to
    offsets from the rank's last draw) — each with the timeline's
    ``(phase, forced category)`` when it was issued.
    """

    entries: tuple
    seconds: array


class OpStreamRecorder:
    """Records one rank's op stream as the rank runs live.

    ``intern`` maps a value to its canonical equal object: a session
    shares one across its recordings, so a batch's ops (per collective
    and rank, tags as offsets) and the entries themselves exist once
    however many steps and trajectories issue them.  A batch that waits
    on or posts a request from outside itself cannot be replayed; the
    recording is then marked not :attr:`replayable`.
    """

    def __init__(self, intern: Callable[[Any], Any]) -> None:
        self._intern = intern
        self._entries: list[tuple] = []
        self._seconds = array("d")
        self.replayable = True

    def compute(self, attribution: tuple, seconds: float) -> None:
        self._entries.append(self._intern((_COMPUTE, attribution, None)))
        self._seconds.append(seconds)

    def draw(self, attribution: tuple, op: str) -> None:
        self._entries.append(self._intern((_DRAW, attribution, op)))

    def batch(self, attribution: tuple, ops, tag_base: int) -> None:
        intern = self._intern
        recorded = []
        for op in ops:
            code = op[0]
            if code == SEND:
                payload = op[3]
                size = intern(PayloadSize(payload_nbytes(payload), payload_dtype(payload)))
                op = (SEND, op[1], op[2] - tag_base, size)
            elif code == RECV:
                op = (RECV, op[1], op[2] - tag_base, op[3], op[4])
            elif code == POST or (code == WAIT and type(op[1]) is not int):
                self.replayable = False
                return
            recorded.append(intern(op))
        self._entries.append(intern((_BATCH, attribution, intern(tuple(recorded)))))

    def stream(self) -> OpStream:
        return OpStream(tuple(self._entries), self._seconds)


def replay_program(ep: RankEndpoint, stream: OpStream):
    """Generator: one rank's recorded op stream, run by the executor.

    No rank program, physics or payload: every entry re-enters its
    recorded timeline attribution and issues what the live rank issued —
    ``ep.compute`` of the recorded (unscaled) seconds, the tag draw, the
    batch — so the run schedules the events, plans the transfers and
    books the timelines its platform implies for that schedule.
    """
    tl = ep.timeline
    outside = tl.attribution
    seconds = iter(stream.seconds)
    for kind, attribution, body in stream.entries:
        tl.attribute_to(attribution)
        if kind == _BATCH:
            yield OpBatch(ep, body, ep._tag_seq)
        elif kind == _COMPUTE:
            yield from ep.compute(next(seconds))
        else:
            ep.next_collective_tag(body)
    tl.attribute_to(outside)
