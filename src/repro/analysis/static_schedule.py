"""Static communication-schedule verification (rules REP401-REP406).

Every rank program is instantiated per (rank, p) for every p up to a
bound, and each rank's schedule is recorded as the op stream
(:class:`~repro.mpi.endpoint.OpStream`) it issues.  The real op
executor then runs the streams
(:func:`~repro.mpi.endpoint.replay_program`) with every send
rendezvous, and what that run leaves proves, per p: no deadlock
(REP401), no unmatched send or receive (REP402/REP403), no two sends in
flight on one ``(src, dst, tag)`` channel and no size/dtype
disagreement where both ends are concrete (REP404/REP405, the
sanitizer's checks).  The streams' tag draws must agree across ranks
and conform to the strategy's declared
:class:`~repro.analysis.contract.ScheduleContract` (REP406).

Each schedule is a recording of the real code, made one of two ways:

* The replicated strategies (``pclassic``, ``ppme``) run one live step
  of the verifier's own peptide under a
  :class:`~repro.parallel.shared.TrajectorySession`, which records every
  rank's stream; their findings carry no source line.
* The spatial program and standalone sources (golden fixtures) are
  driven rank by rank against a :class:`_RecordingEndpoint`, which
  records each op batch their generators yield and hands them
  *stand-ins* for the payloads they would move: the spatial engine is
  a stub, and a fixture parameter other than ``ep`` and ``mw`` is an
  unknown that raises when the program branches on it.  Each entry
  and error carries the innermost middleware line of the driven frames,
  else the innermost line of the program.

The verifier is *conservative where it is symbolic*: completion that
depends on eager buffering is a deadlock; a size or dtype it cannot
know is a marker equal to every value; a branch on an unknown, and an
exception inside the recorded code, fail extraction (REP406) instead
of guessing.  Findings are grouped over the verified p-range into a
symbolic p-condition ("odd p in [3, 31]").

This module must not import :mod:`repro.parallel` or
:mod:`repro.workloads` at import time (the parallel package imports
:mod:`repro.analysis.contract`); the functions that record them import
them when they run.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import traceback
import types
from array import array
from functools import lru_cache
from pathlib import Path
from types import GeneratorType

import numpy as np

from ..cluster.machine import ClusterSpec
from ..cluster.network import score_gigabit_ethernet
from ..cmpi import middleware as cmpi_middleware
from ..cmpi.middleware import CMPIMiddleware
from ..instrument.timeline import Timeline
from ..mpi import collectives
from ..mpi import middleware as mpi_middleware
from ..mpi.endpoint import (
    BATCH_ENTRY, CHARGE, COLLECTIVE_TAG_BASE, COMPUTE_ENTRY, DRAW_ENTRY, POST, POST_ENTRY,
    RECV, SEND, WAIT, WAIT_ENTRY, OpStream, RankEndpoint, RecvRequest, SendRequest,
    replay_program,
)
from ..mpi.message import PayloadSize
from ..mpi.middleware import Middleware, MPIMiddleware
from ..mpi.world import MPIWorld
from ..sim.engine import SimulationError, Simulator
from .rules import RULES, Diagnostic
from .sanitizer import Sanitizer
from .symbolic import SYMBOLIC_DTYPE, SYMBOLIC_NBYTES, Block, SymSize, SymTag, summarize_p_set

__all__ = [
    "StaticExtractionError",
    "verify_rank_program_source",
    "verify_middleware_collectives",
    "extract_streams",
    "extract_strategy_collective_ops",
    "verify_contract_conformance",
    "verify_strategy",
    "verify_static",
    "STRATEGIES",
    "MIDDLEWARES",
    "SPATIAL_PROFILES",
]

#: Most entries one rank's recording may hold: a loop that keeps
#: communicating fails extraction instead of hanging the tool.
_MAX_ENTRIES_PER_RANK = 200_000


class StaticExtractionError(Exception):
    """The program's schedule cannot be extracted statically."""

    def __init__(self, msg: str, loc: tuple[str, int] | None = None) -> None:
        super().__init__(msg)
        self.loc = loc


class _Unknown:
    """A value the verifier does not know: what a payload holds, or a
    fixture's parameter.  Real code may pass one on, not branch on it."""

    def __init__(self, what: str) -> None:
        self.what = what

    def __bool__(self) -> bool:
        raise StaticExtractionError(
            f"the program branches on {self.what}, which is not statically known"
        )


UNKNOWN = _Unknown("a payload")


# ---------------------------------------------------------------------------
# the recording endpoint: real rank programs and middleware run against it

#: The real code below the rank programs; an entry or error inside it
#: carries its innermost line here.
_MIDDLEWARE_FILES = frozenset(
    module.__file__ for module in (collectives, mpi_middleware, cmpi_middleware)
)

#: What a send of a payload the verifier cannot size carries.
_SYMBOLIC_PAYLOAD = PayloadSize(SYMBOLIC_NBYTES, SYMBOLIC_DTYPE)

#: The block a receive wait at a source line delivers, per line.
_RECEIVED: dict[tuple[str, int], Block] = {}


def _innermost(frames, files) -> tuple[str, int] | None:
    """The innermost ``(code, line)`` of ``frames`` (outermost first)
    that runs code of ``files``, as a location."""
    loc = None
    for code, line in frames:
        if code.co_filename in files:
            loc = (code.co_filename, line)
    return loc


def _delegation_chain(gen):
    """``(code, line)`` of a suspended generator and of each generator it
    delegates to through ``yield from``, outermost first."""
    while isinstance(gen, GeneratorType):
        yield gen.gi_code, gen.gi_frame.f_lineno
        gen = gen.gi_yieldfrom


def _short(loc: tuple[str, int]) -> str:
    return f"{loc[0].rsplit('/', 1)[-1]}:{loc[1]}"


class _RecordingEndpoint:
    """A :class:`~repro.mpi.endpoint.RankEndpoint` that records an op stream.

    ``send``/``recv``/``sendrecv``/``batch`` are the real endpoint's, and
    ``isend``/``irecv`` return real requests; :meth:`drive` runs a real
    generator and records each op batch it yields as
    :class:`~repro.mpi.endpoint.OpStreamRecorder` would, save compute
    charges, keeping each entry's, post's and split-phase wait's line:
    the innermost middleware line of the driven frames, else the
    innermost line of ``program`` (a source path).

    Real code is handed *stand-ins* for symbolic payloads: an array
    ``[i, 1]`` for the ``i``-th payload this endpoint handed out, which
    real code can copy, size and add (a sum of k stand-ins has k in its
    second place).  :meth:`symbolic` maps them back.
    """

    send = RankEndpoint.send
    recv = RankEndpoint.recv
    sendrecv = RankEndpoint.sendrecv
    batch = RankEndpoint.batch

    def __init__(self, rank: int, size: int, program: str | None = None) -> None:
        self.rank = rank
        self.size = size
        self.program = program
        self.timeline = Timeline()
        self.entries: list[tuple] = []
        self.locs: list[tuple[str, int]] = []  # per entry
        self.post_locs: list[tuple[str, int]] = []  # per posted request
        self.wait_locs: dict[int, tuple[str, int]] = {}  # post index -> split-phase wait
        #: the middleware ops the rank program calls, in call order
        self.mw_ops: list[str] = []
        self._draws = 0
        self._split: dict = {}  # split-phase request -> (its index, its post index)
        self._payloads: list = []  # stand-in index -> Block or UNKNOWN
        self._at: tuple[str, int] | None = None  # where the batch being recorded is
        self._in_middleware = False  # whether middleware yielded it

    @property
    def loc(self) -> tuple[str, int]:
        return self._at or ("<program>", 0)

    def _locate(self, frames) -> tuple[str, int] | None:
        frames = list(frames)
        return _innermost(frames, _MIDDLEWARE_FILES) or _innermost(frames, (self.program,))

    def stream(self) -> OpStream:
        return OpStream(tuple(self.entries), array("d"))

    def _add(self, kind: int, body, loc: tuple[str, int]) -> None:
        self.entries.append((kind, self.timeline.attribution, body))
        self.locs.append(loc)
        if len(self.entries) > _MAX_ENTRIES_PER_RANK:
            raise StaticExtractionError(
                f"rank {self.rank} schedule exceeds {_MAX_ENTRIES_PER_RANK} entries"
            )

    # -- the boundary between symbolic and real values ------------------
    def stand_in(self, value):
        """What real code is handed for a symbolic value."""
        if isinstance(value, (list, tuple)):
            return type(value)(self.stand_in(v) for v in value)
        if value is not UNKNOWN and not isinstance(value, Block):
            return value
        self._payloads.append(value)
        return np.array([len(self._payloads) - 1, 1])

    def symbolic(self, value):
        """The symbolic value of what real code hands back: a stand-in
        (or a copy) is its payload, anything computed from one UNKNOWN."""
        if isinstance(value, (list, tuple)):
            return type(value)(self.symbolic(v) for v in value)
        if not isinstance(value, np.ndarray):
            return value
        if value.shape == (2,) and value[1] == 1:
            return self._payloads[value[0]]
        return UNKNOWN

    # -- the RankEndpoint surface ---------------------------------------
    def next_collective_tag(self, op="collective"):
        self._draws += 1
        stack = [(frame.f_code, line) for frame, line in traceback.walk_stack(sys._getframe(1))]
        self._add(DRAW_ENTRY, op, self._locate(reversed(stack)) or self.loc)
        return SymTag(base=self._draws)

    def compute(self, seconds):
        yield from ()

    def isend(self, dest, payload, tag=0) -> SendRequest:
        return SendRequest(self, self._peer(dest, "destination"), tag, payload, 0, 0.0, False)

    def irecv(self, source, tag=0, expect_nbytes=None, expect_dtype=None) -> RecvRequest:
        return RecvRequest(
            self, self._peer(source, "source"), tag, expect_nbytes, expect_dtype, 0.0
        )

    def _peer(self, peer, role: str) -> int:
        if not isinstance(peer, int) or isinstance(peer, bool):
            raise StaticExtractionError(f"{role} rank is not statically known")
        if not 0 <= peer < self.size:
            raise StaticExtractionError(f"bad {role} rank {peer} for p={self.size}")
        if peer == self.rank:
            raise StaticExtractionError(f"self-{role} is not supported")
        return peer

    # -- recording ------------------------------------------------------
    def drive(self, gen):
        """Run a real generator to its end, recording each op batch it
        yields; returns its result as a symbolic value.  An exception
        inside it is a :class:`StaticExtractionError` where it was raised."""
        received = None
        try:
            while True:
                batch = gen.send(received)
                frames = list(_delegation_chain(gen))
                self._in_middleware = _innermost(frames, _MIDDLEWARE_FILES) is not None
                self._at = self._locate(frames)
                received = self.record(batch.ops)
        except StopIteration as stop:
            return self.symbolic(stop.value)
        except Exception as exc:
            frames = [(frame.f_code, line) for frame, line in traceback.walk_tb(exc.__traceback__)]
            message = str(exc) if isinstance(exc, StaticExtractionError) else (
                f"{type(exc).__name__}: {exc}"
            )
            raise StaticExtractionError(message, self._locate(frames) or self.loc) from exc

    def record(self, ops) -> list:
        """Record one op batch as
        :meth:`~repro.mpi.endpoint.OpBatch._advance` would run it; returns
        the stand-ins its receive waits deliver, in wait order."""
        if len(ops) == 1 and ops[0][0] in (POST, WAIT) and type(ops[0][1]) is not int:
            return self._record_split(*ops[0])
        loc = self.loc
        posts, body, received = [], [], []  # posts: the code of each request op
        for op in ops:
            code = op[0]
            if code == SEND:
                op = self._send_op(self._peer(op[1], "destination"), op[2], op[3])
            elif code == RECV:
                op = self._recv_op(self._peer(op[1], "source"), *op[2:])
            elif code == WAIT and type(op[1]) is int:
                if posts[op[1]] == RECV:
                    received.append(self._received())
            elif code != CHARGE:
                raise StaticExtractionError(f"op is not statically known ({op!r})")
            if code == SEND or code == RECV:
                posts.append(code)
            body.append(op)
        self.post_locs += [loc] * len(posts)
        self._add(BATCH_ENTRY, tuple(body), loc)
        return received

    def _record_split(self, code: int, req) -> list:
        """A split-phase request the program holds: its post, or a wait on it."""
        loc = self.loc
        if code == POST:
            self._split[req] = (len(self._split), len(self.post_locs))
            self.post_locs.append(loc)
            if type(req) is SendRequest:
                op = self._send_op(req.dest, req.tag, req.payload)
            else:
                op = self._recv_op(req.source, req.tag, req.expect_nbytes, req.expect_dtype)
            self._add(POST_ENTRY, op, loc)
            return []
        if req not in self._split:
            raise StaticExtractionError("wait on a request that was never posted")
        split, post = self._split[req]
        self.wait_locs.setdefault(post, loc)
        self._add(WAIT_ENTRY, split, loc)
        return [] if type(req) is SendRequest else [self._received()]

    def _send_op(self, dest: int, tag, payload) -> tuple:
        payload = self.symbolic(payload)
        if isinstance(payload, bytes):
            size = PayloadSize(len(payload), "bytes")
        elif isinstance(payload, Block):
            nbytes = payload.size.value if payload.size.concrete else SYMBOLIC_NBYTES
            size = PayloadSize(nbytes, payload.dtype or SYMBOLIC_DTYPE)
        else:
            size = _SYMBOLIC_PAYLOAD
        return (SEND, dest, self._offset(tag), size)

    def _recv_op(self, source: int, tag, nbytes, dtype) -> tuple:
        # what middleware declares derives from its stand-ins, save the
        # one-byte synchronization message
        declared = not self._in_middleware or dtype == "bytes"
        return (
            RECV, source, self._offset(tag),
            nbytes if declared and isinstance(nbytes, int) else SYMBOLIC_NBYTES,
            dtype if declared and isinstance(dtype, str) else SYMBOLIC_DTYPE,
        )

    def _received(self):
        """The stand-in a receive wait delivers: a block named by its line."""
        loc = self.loc
        block = _RECEIVED.get(loc)
        if block is None:
            name = f"msg@{_short(loc)}"
            block = _RECEIVED[loc] = Block(name, SymSize(name=name), None)
        return self.stand_in(block)

    def _offset(self, tag) -> int:
        """A message tag as an offset from the rank's last draw's."""
        base = COLLECTIVE_TAG_BASE + 16 * self._draws
        if type(tag) is SymTag:
            return tag.absolute(COLLECTIVE_TAG_BASE) - base
        if isinstance(tag, int):
            return tag - base
        raise StaticExtractionError("message tag is not statically known")


# ---------------------------------------------------------------------------
# the proof: the real executor runs the extracted streams

#: The proof's network.  Every send, a zero-byte one included, is
#: rendezvous (``nbytes > -1``).  Nothing takes time but posting a
#: receive, so sends wait in the queues as long as the program lets
#: them — the schedule that shows two in flight on one channel (REP404).
#: Matching is FIFO per channel, so which posts match, and where a rank
#: stalls, does not depend on the timing.
_PROOF_NETWORK = dataclasses.replace(
    score_gigabit_ethernet(),
    latency=0.0, bandwidth=math.inf, send_overhead=0.0, recv_overhead=1.0,
    cpu_byte_cost=0.0, packet_overhead=0.0, eager_threshold=-1,
    variability=0.0, congestion_variability=0.0,
)

#: What a finding says of a request left unmatched, by (rule, blocked):
#: every rank finished, or the request's rank is blocked on a finished peer.
_UNMATCHED = {
    ("REP402", False): "rank {rank} sends to rank {peer} with tag {tag} but no rank ever "
                       "posts the matching receive",
    ("REP403", False): "rank {rank} expects a message from rank {peer} with tag {tag} but "
                       "no rank ever sends it",
    ("REP402", True): "rank {rank} waits for rank {peer} to receive its send with tag "
                      "{tag}, but the matching receive is never posted",
    ("REP403", True): "rank {rank} waits for a message from rank {peer} with tag {tag} "
                      "that is never sent",
}


class _Audit(Sanitizer):
    """The proof's sanitizer: non-strict, each finding kept as
    ``(rule, send, receive)``."""

    def __init__(self) -> None:
        super().__init__(strict=False)
        self.found: list[tuple] = []

    def check_match(self, msg, post) -> None:
        if post.expect_nbytes is SYMBOLIC_NBYTES and post.expect_dtype is SYMBOLIC_DTYPE:
            return  # the receiver declares nothing to disagree with
        seen = len(self.violations)
        super().check_match(msg, post)
        self.found += [(d.rule, msg, post) for d in self.violations[seen:]]

    def check_channel(self, msg) -> None:
        super().check_channel(msg)
        self.found.append(("REP404", msg, None))


class _ProofWorld(MPIWorld):
    """An :class:`~repro.mpi.world.MPIWorld` of p single-CPU nodes on the
    proof network that keeps each rank's requests in post order — the
    order of the posts in its stream."""

    def __init__(self, p: int) -> None:
        super().__init__(
            Simulator(), ClusterSpec(n_ranks=p, network=_PROOF_NETWORK, max_nodes=p)
        )
        # installed after the endpoints, so only the world's own checks
        # run: size and dtype at each match, the channel at each queued send
        self.sanitizer = _Audit()
        self.posted: list[list] = [[] for _ in range(p)]

    def post_message(self, send) -> None:
        self.posted[send.src].append(send)
        super().post_message(send)

    def post_recv(self, recv) -> None:
        self.posted[recv.endpoint.rank].append(recv)
        super().post_recv(recv)


def _tag_name(tag: int) -> str:
    """A runtime tag as findings name it: ``T<k>`` (and its offset) for
    one derived from the k-th collective tag draw, else the literal."""
    if tag < COLLECTIVE_TAG_BASE + 16:
        return str(tag)
    return str(SymTag(*divmod(tag - COLLECTIVE_TAG_BASE, 16)))


def _peer(req) -> int:
    return req.dest if type(req) is SendRequest else req.source


def _prove(ranks: list[_RecordingEndpoint]):
    """Run the ranks' streams on the proof network; returns the
    ``(rule, group_key, message, loc)`` findings of REP401-REP405."""
    world = _ProofWorld(len(ranks))
    procs = [
        world.sim.spawn(replay_program(wep, ep.stream()))
        for wep, ep in zip(world.endpoints, ranks)
    ]
    try:
        world.sim.run()
    except SimulationError:
        pass  # a deadlock: the ranks still running say where
    stalled = [rank for rank, proc in enumerate(procs) if not proc.done]
    if not (stalled or world.sanitizer.found or any(world.leftovers())):
        return []

    def loc(req, wait: bool = False) -> tuple[str, int]:
        """Where ``req`` is posted, or first waited on."""
        ep = ranks[req.endpoint.rank]
        k = world.posted[ep.rank].index(req)
        return ep.wait_locs.get(k, ep.post_locs[k]) if wait else ep.post_locs[k]

    def unmatched(rule: str, req, blocked: bool = False):
        text = _UNMATCHED[rule, blocked].format(
            rank=req.endpoint.rank, peer=_peer(req), tag=_tag_name(req.tag)
        )
        return (rule, (rule, loc(req)), text, loc(req))

    findings = []
    for rule, send, recv in world.sanitizer.found:
        tag = _tag_name(send.tag)
        if rule == "REP404":
            findings.append((rule, (rule, loc(send)), (
                f"rank {send.src} posts a second in-flight send to rank {send.dest} with "
                f"tag {tag} before the first is received (FIFO match order is ambiguous)"
            ), loc(send)))
            continue
        what, sent, declared = (
            ("size", f"{send.nbytes}B", f"{recv.expect_nbytes}B") if rule == "REP301"
            else ("dtype", f"dtype {send.payload.dtype}", recv.expect_dtype)
        )
        findings.append(("REP405", ("REP405", loc(recv), what), (
            f"rank {send.src} sends {sent} to rank {send.dest} (tag {tag}) but the "
            f"receiver declares {declared}"
        ), loc(recv)))
    if not stalled:  # every rank finished: posts no rank matched
        left = [req for posted in world.posted for req in posted if not req.done]
        for req in sorted(left, key=lambda req: type(req) is not SendRequest):
            findings.append(unmatched("REP402" if type(req) is SendRequest else "REP403", req))
        return findings

    # wait-for analysis of the requests the stalled ranks block on
    waits_on = {
        rank: next(req for req in world.posted[rank] if req._waiter is not None)
        for rank in stalled
    }
    cycles: set[frozenset] = set()
    for start in stalled:
        req = waits_on[start]
        if _peer(req) not in waits_on:
            # blocked on a rank that finished: the message can never
            # arrive — an unmatched send/recv, not a deadlock
            rule = "REP402" if type(req) is SendRequest else "REP403"
            findings.append(unmatched(rule, req, blocked=True))
            continue
        chain, node = [], start
        while node in waits_on and node not in chain:
            chain.append(node)
            node = _peer(waits_on[node])
        if node in chain:
            cycle = chain[chain.index(node):]
            locs = frozenset(loc(waits_on[r], wait=True) for r in cycle)
            if locs not in cycles:
                cycles.add(locs)
                desc = " -> ".join(
                    f"rank {r} (tag {_tag_name(waits_on[r].tag)})" for r in cycle
                )
                findings.append(("REP401", ("REP401", locs), (
                    f"rendezvous wait-for cycle across ranks {sorted(cycle)}: {desc}"
                ), loc(waits_on[cycle[0]], wait=True)))
    return findings


def _collective_divergence(ranks: list[_RecordingEndpoint]):
    """Cross-rank identity of the streams' collective tag draws."""
    draws = [
        [(body, loc) for (kind, _, body), loc in zip(ep.entries, ep.locs) if kind == DRAW_ENTRY]
        for ep in ranks
    ]
    seqs = [[op for op, _ in rank_draws] for rank_draws in draws]
    for r, seq in enumerate(seqs[1:], start=1):
        if seq != seqs[0]:
            n = min(len(seq), len(seqs[0]))
            at = next((i for i in range(n) if seq[i] != seqs[0][i]), n)
            # rank r's draw where it diverges, or rank 0's where rank r stopped
            loc = (draws[r] if at < len(seq) else draws[0])[at][1]
            return [(
                "REP406", ("REP406", "divergence", at),
                f"collective sequence diverges: rank 0 issues {seqs[0][at] if at < len(seqs[0]) else '<end>'} "
                f"at position {at}, rank {r} issues {seq[at] if at < len(seq) else '<end>'}",
                loc,
            )]  # one divergence report per p is enough
    return []


# ---------------------------------------------------------------------------
# instantiation drivers and p-condition grouping


def _rel(path: str) -> str:
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except Exception:
        return path


def _verify_instantiations(extract, bound: int) -> list[Diagnostic]:
    """Prove ``extract(p)``'s ranks for p = 1..bound; group findings
    symbolically."""
    groups: dict[tuple, dict] = {}

    def add(finding, p: int) -> None:
        rule, key, message, loc = finding
        g = groups.setdefault(key, {"rule": rule, "message": message, "loc": loc, "ps": set()})
        g["ps"].add(p)

    for p in range(1, bound + 1):
        try:
            ranks = extract(p)
        except StaticExtractionError as exc:
            loc = exc.loc or ("<program>", 0)
            add(("REP406", ("REP406", "extract", loc), f"cannot statically extract the schedule: {exc}", loc), p)
            continue
        for f in _prove(ranks):
            add(f, p)
        for f in _collective_divergence(ranks):
            add(f, p)

    out = []
    for g in groups.values():
        rule = g["rule"]
        path, line = g["loc"]
        out.append(Diagnostic(
            rule, g["message"], path=_rel(path), line=line or None,
            severity=RULES[rule].severity, p_condition=summarize_p_set(g["ps"], bound),
        ))
    out.sort(key=lambda d: (d.rule, d.path or "", d.line or 0))
    return out


# ---------------------------------------------------------------------------
# the recordings: live replicated steps, driven spatial and source programs


class _LoggedMiddleware(Middleware):
    """``inner``, appending the name of each op rank r calls to ``log[r]``."""

    def __init__(self, inner: Middleware, log: list[list[str]]) -> None:
        self.name = inner.name
        self._inner = inner
        self._log = log

    def _logged(self, op: str, ep, *args):
        self._log[ep.rank].append(op)
        return getattr(self._inner, op)(ep, *args)

    def barrier(self, ep):
        return self._logged("barrier", ep)

    def allreduce(self, ep, array, op=np.add):
        return self._logged("allreduce", ep, array, op)

    def allgatherv(self, ep, block):
        return self._logged("allgatherv", ep, block)

    def alltoallv(self, ep, send_blocks):
        return self._logged("alltoallv", ep, send_blocks)

    def exchange(self, ep, dest, payload, source, tag=0):
        return self._logged("exchange", ep, dest, payload, source, tag)


def _logged_middleware(middleware: str, log: list[list[str]]) -> _LoggedMiddleware:
    from ..parallel.run import make_middleware  # runtime-only: see module docstring

    return _LoggedMiddleware(make_middleware(middleware), log)


@lru_cache(maxsize=4)
def _peptide(pme_planes: int | None):
    """The replicated strategies' system: a 2-residue peptide in 12
    waters, with PME on a ``pme_planes`` x ``pme_planes`` x 16 mesh (the
    slab FFT splits x and y over the ranks), or shift electrostatics."""
    from ..md import CutoffScheme, MDSystem, default_forcefield
    from ..workloads.small import build_peptide_in_water  # runtime-only

    ff = default_forcefield()
    topology, positions, box = build_peptide_in_water(n_residues=2, n_waters=12, forcefield=ff)
    pme = {"electrostatics": "pme", "pme_grid": (pme_planes, pme_planes, 16)} if pme_planes else {}
    return MDSystem(topology, ff, box, CutoffScheme(r_cut=8.0, skin=1.5), **pme), positions


def _replicated_ranks(
    middleware: str, p: int, n_steps: int, pme_planes: int | None
) -> list[_RecordingEndpoint]:
    """One live run of the verifier's peptide, each rank's recorded
    stream less its compute charges; entries carry the rank program's
    file and no line."""
    from ..parallel import pmd  # runtime-only: see module docstring
    from ..parallel.run import RunOptions, run_parallel_md
    from ..parallel.shared import TrajectorySession

    system, positions = _peptide(pme_planes)
    ranks = [_RecordingEndpoint(rank, p) for rank in range(p)]
    mw = _logged_middleware(middleware, [ep.mw_ops for ep in ranks])
    session = TrajectorySession()
    loc = (pmd.__file__, 0)
    try:
        run_parallel_md(
            system, positions,
            ClusterSpec(n_ranks=p, network=score_gigabit_ethernet(), max_nodes=p),
            RunOptions(
                middleware=mw, config=pmd.MDRunConfig(n_steps=n_steps),
                shared_compute=session.cache(),
            ),
        )
    except Exception as exc:
        raise StaticExtractionError(f"{type(exc).__name__}: {exc}", loc) from exc
    [recorded] = session.trajectories.values()
    for ep, stream in zip(ranks, recorded.streams):
        ep.entries = [entry for entry in stream.entries if entry[0] != COMPUTE_ENTRY]
        ep.locs = [loc] * len(ep.entries)
        ep.post_locs = [loc] * sum(
            op[0] in (SEND, RECV) for kind, _, body in ep.entries if kind == BATCH_ENTRY
            for op in body
        )
    return ranks


class _SpatialStub:
    """The engine of a driven spatial rank program: stand-in payloads,
    no received data kept, no compute time."""

    def __init__(self, ep: _RecordingEndpoint) -> None:
        self.ep = ep

    def halo_payload(self, *where):
        return self.ep.stand_in(UNKNOWN)

    migrate_payload = halo_payload

    def __getattr__(self, name):
        return lambda *args: 0


def _spatial_ranks(middleware: str, p: int, n_steps: int, profile: str) -> list[_RecordingEndpoint]:
    """The real spatial rank program, driven per rank against the real
    decomposition of ``profile`` and a stub engine."""
    from ..parallel.pmd import MDRunConfig  # runtime-only: see module docstring
    from ..parallel.spatial.program import spatial_rank_program

    _name, lengths, r_cut = _spatial_profile(profile)
    decomp = _spatial_decomposition(lengths, r_cut, p)
    config = MDRunConfig(n_steps=n_steps)
    path = spatial_rank_program.__code__.co_filename
    ranks = [_RecordingEndpoint(rank, p, path) for rank in range(p)]
    mw = _logged_middleware(middleware, [ep.mw_ops for ep in ranks])
    for ep in ranks:
        ep.drive(spatial_rank_program(ep, mw, decomp, _SpatialStub(ep), config))
    return ranks


# ---------------------------------------------------------------------------
# public verification surface

#: The strategies the verifier knows how to instantiate, mirroring the
#: experiment design: classic-only ("pclassic"), classic+PME ("ppme"),
#: and the domain decomposition's halo-exchange schedule ("spatial").
STRATEGIES = ("pclassic", "ppme", "spatial")
MIDDLEWARES = ("mpi", "cmpi")

#: Canonical box profiles the spatial strategy is verified against:
#: ``(name, (lx, ly, lz), r_cut)``.  The paper's myoglobin cell and the
#: pure water box — an anisotropic box (grid dimensions of 1, so whole
#: dimensions carry no messages) and a cubic one whose cutoff exceeds a
#: region width at moderate p (multi-pulse halo depths).
SPATIAL_PROFILES = (
    ("myoglobin", (96.0, 43.2, 57.6), 10.0),
    ("water-box", (24.8, 24.8, 24.8), 8.0),
)


def _spatial_profile(name: str) -> tuple[str, tuple[float, float, float], float]:
    for profile in SPATIAL_PROFILES:
        if profile[0] == name:
            return profile
    known = ", ".join(p[0] for p in SPATIAL_PROFILES)
    raise ValueError(f"unknown spatial profile {name!r}; known: {known}")


def _spatial_decomposition(lengths, r_cut: float, p: int):
    """The real decomposition of one profile (runtime-only import)."""
    from ..md.box import PeriodicBox  # runtime-only: see module docstring
    from ..parallel.spatial.decomposition import SpatialDecomposition

    box = PeriodicBox(*lengths)
    return SpatialDecomposition.for_cluster(box, p, r_cut)


def _strategy_ranks(
    strategy: str, middleware: str, p: int, n_steps: int = 1, profile: str | None = None,
    bound: int | None = None,
) -> list[_RecordingEndpoint]:
    """The recorded ranks of one strategy instantiation.

    For the spatial strategy ``profile`` names the box profile (default:
    the first of :data:`SPATIAL_PROFILES`).  The PME mesh has
    ``max(16, bound)`` planes in x and y (``bound`` defaults to ``p``),
    so every p up to the bound splits it.
    """
    if strategy == "spatial":
        return _spatial_ranks(middleware, p, n_steps, profile or SPATIAL_PROFILES[0][0])
    if strategy not in ("pclassic", "ppme"):
        raise ValueError(f"unknown strategy {strategy!r}")
    planes = max(16, bound or p) if strategy == "ppme" else None
    return _replicated_ranks(middleware, p, n_steps, planes)


def verify_strategy(
    strategy: str, middleware: str = "mpi", bound: int = 32, n_steps: int = 1
) -> list[Diagnostic]:
    """Verify one strategy's full expanded schedule for all p up to ``bound``.

    The spatial strategy is instantiated once per canonical box profile
    (:data:`SPATIAL_PROFILES`) since its schedule depends on the box
    geometry, not just on p.
    """
    profiles = [name for name, *_ in SPATIAL_PROFILES] if strategy == "spatial" else [None]
    return [
        diag for profile in profiles for diag in _verify_instantiations(
            lambda p, profile=profile: _strategy_ranks(
                strategy, middleware, p, n_steps, profile, bound
            ),
            bound,
        )
    ]


_COLLECTIVE_ARGS = {
    "barrier": lambda p: [],
    "allreduce": lambda p: [Block("allreduce.in", SymSize(name="A"), "float64")],
    "allgatherv": lambda p: [Block("allgatherv.in", SymSize(name="B"), "float64")],
    "alltoallv": lambda p: [
        [Block(f"a2a[{i}]", SymSize(name=f"a2a[{i}]"), "float64") for i in range(p)]
    ],
    "bcast": lambda p: [Block("bcast.in", SymSize(name="C"), "float64")],
    "reduce": lambda p: [Block("reduce.in", SymSize(name="R"), "float64")],
    "sync": lambda p: [],
}


def verify_middleware_collectives(middleware: str = "mpi", bound: int = 32) -> list[Diagnostic]:
    """Verify every collective algorithm of one middleware in isolation:
    the real generators, each rank's driven against a recording endpoint."""
    if middleware == "mpi":
        names = ("barrier", "allreduce", "allgatherv", "alltoallv", "bcast", "reduce")
        owner = collectives
    elif middleware == "cmpi":
        names = ("sync", "barrier", "allreduce", "allgatherv", "alltoallv")
        owner = CMPIMiddleware()
    else:
        raise ValueError(f"unknown middleware {middleware!r}")

    diagnostics: list[Diagnostic] = []
    for name in names:
        def extract(p, _op=getattr(owner, name), _args=_COLLECTIVE_ARGS[name]):
            ranks = [_RecordingEndpoint(rank, p) for rank in range(p)]
            for ep in ranks:
                ep.drive(_op(ep, *ep.stand_in(_args(p))))
            return ranks

        diagnostics.extend(_verify_instantiations(extract, bound))
    return diagnostics


def extract_streams(
    strategy: str = "ppme", middleware: str = "mpi", p: int = 8, n_steps: int = 1,
    profile: str | None = None,
) -> list[OpStream]:
    """Each rank's recorded op stream of one instantiation, less compute
    charges.

    The replicated strategies' streams are a live run's; the spatial
    ones equal a live run's of the same profile, save that a payload
    size or dtype is a marker equal to every value.  ``profile``
    selects the spatial box profile.
    """
    return [ep.stream() for ep in _strategy_ranks(strategy, middleware, p, n_steps, profile)]


def extract_strategy_collective_ops(
    strategy: str, p: int, n_steps: int = 1, profile: str | None = None
) -> list[list[str]]:
    """The per-rank sequences of middleware ops the rank program calls
    (``profile`` as for :func:`extract_streams`)."""
    return [ep.mw_ops for ep in _strategy_ranks(strategy, "mpi", p, n_steps, profile)]


def verify_contract_conformance(
    strategy: str, ps: tuple[int, ...] = (1, 2, 3, 4, 5, 8), n_steps: int = 1
) -> list[Diagnostic]:
    """Check the recorded schedule against the declared contract (REP406).

    The spatial contract is the *declared*
    :meth:`~repro.parallel.spatial.decomposition.SpatialDecomposition.schedule_contract`
    of the real geometry, per (profile, p) since halo depths depend on
    both; every rank's middleware ops must match it.
    """
    if strategy == "spatial":
        from ..parallel.spatial import program as module  # runtime-only imports

        cases = [
            (f"'spatial' ({name}, p={p}", p, name,
             _spatial_decomposition(lengths, r_cut, p).schedule_contract(), {"barrier"})
            for name, lengths, r_cut in SPATIAL_PROFILES for p in ps
        ]
    else:
        from ..parallel import pmd as module

        flags = {"barrier"} | ({"pme"} if strategy == "ppme" else set())
        cases = [
            (f"{strategy!r} (p={p}", p, None, module.STEP_SCHEDULE_CONTRACT, flags) for p in ps
        ]
    path = _rel(module.__file__)
    diagnostics = []
    for label, p, profile, contract, flags in cases:
        expected = contract.expected_ops(flags) * n_steps
        for rank, seq in enumerate(extract_strategy_collective_ops(strategy, p, n_steps, profile)):
            if seq != expected:
                diagnostics.append(Diagnostic(
                    "REP406",
                    f"strategy {label}, rank {rank}) issues {seq} per run but "
                    f"contract {contract.name!r} promises {expected}",
                    path=path, severity=RULES["REP406"].severity, p_condition=f"p in {{{p}}}",
                ))
                break  # SPMD: one rank's divergence describes the run
    return diagnostics


def verify_static(bound: int = 32, strategies=STRATEGIES, middlewares=MIDDLEWARES) -> list[Diagnostic]:
    """The full static gate: collectives, strategies, contracts."""
    diagnostics: list[Diagnostic] = []
    for mw in middlewares:
        diagnostics.extend(verify_middleware_collectives(mw, bound))
    for strategy in strategies:
        conformance_ps = tuple(p for p in (1, 2, 3, 4, 5, 8) if p <= bound)
        diagnostics.extend(verify_contract_conformance(strategy, conformance_ps))
        for mw in middlewares:
            diagnostics.extend(verify_strategy(strategy, mw, bound))
    return diagnostics


def verify_rank_program_source(
    source: str, path: str = "<fixture>", bound: int = 16, entry: str | None = None
) -> list[Diagnostic]:
    """Verify a standalone rank-program source (golden fixtures, REPLs).

    The source runs as a module compiled under ``path``.  The verified
    program is ``entry`` when given, else a function named
    ``rank_program``, else the first top-level function whose first
    parameter is ``ep``.  It communicates through the :class:`RankEndpoint` surface of its ``ep``
    argument and, through a ``mw`` parameter, the real MPI middleware;
    any other parameter without a default is an unknown it may pass on
    but not branch on.
    """
    module = types.ModuleType(f"<fixture:{path}>")
    sys.modules[module.__name__] = module  # where dataclasses resolve string annotations
    try:
        exec(compile(source, path, "exec", dont_inherit=True), vars(module))
    finally:
        del sys.modules[module.__name__]
    functions = [
        v for v in vars(module).values()
        if inspect.isfunction(v) and v.__module__ == module.__name__
    ]
    first = next((f for f in functions if f.__code__.co_varnames[:1] == ("ep",)), None)
    program = (
        getattr(module, entry, None) if entry is not None
        else getattr(module, "rank_program", first)
    )
    if not inspect.isfunction(program):
        raise ValueError(f"no rank program found in {path}")
    params = list(inspect.signature(program).parameters.values())[1:]

    def run(ep):
        """The program as a generator; a plain function runs inside it."""
        yield from program(ep, **{
            param.name: MPIMiddleware() if param.name == "mw"
            else _Unknown(f"parameter {param.name!r}")
            for param in params if param.default is param.empty
        }) or ()

    def extract(p: int) -> list[_RecordingEndpoint]:
        ranks = [_RecordingEndpoint(rank, p, path) for rank in range(p)]
        for ep in ranks:
            ep.drive(run(ep))
        return ranks

    return _verify_instantiations(extract, bound)
