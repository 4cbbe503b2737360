"""Static communication-schedule verification (rules REP401-REP406).

Every rank program is instantiated per (rank, p) for every p up to a
bound without running it, and each rank's schedule is extracted as the
op stream (:class:`~repro.mpi.endpoint.OpStream`) a live run records.
The real op executor then runs the streams
(:func:`~repro.mpi.endpoint.replay_program`) with every send
rendezvous, and what that run leaves proves, per p: no deadlock
(REP401), no unmatched send or receive (REP402/REP403), no two sends in
flight on one ``(src, dst, tag)`` channel and no size/dtype
disagreement where both ends are concrete (REP404/REP405, the
sanitizer's checks).  The streams' tag draws must agree across ranks
and conform to the strategy's declared
:class:`~repro.analysis.contract.ScheduleContract` (REP406).

Rank programs are interpreted; everything below them is executed.  An
abstract interpreter walks the rank programs' ASTs: control flow —
``ep.rank``, ``ep.size``, loops over ranks and FFT planes — evaluates
for real, while the data they move stays symbolic
(:mod:`repro.analysis.symbolic`).  The classes the rank programs build
— the PME engine, the distributed FFT, its slab decompositions, the
classic phase — are interpreted from source too, constructors
included; no class is modelled, and whatever the analyzed modules
import from elsewhere (numpy, the cost model, the charge mesh) is an
unknown value.  When interpreted code reaches
``mw.<op>(ep, ...)`` or ``yield from ep.<primitive>(...)``, the real
middleware, collective and endpoint generators run against a
:class:`_RecordingEndpoint`, which records the op batches they yield
and is the one boundary between symbolic and real values.

The verifier is *conservative where it is symbolic*: completion that
depends on eager buffering is a deadlock; a size or dtype it cannot
know is a marker equal to every value; a branch it cannot decide may
be skipped only when neither arm communicates, otherwise extraction
fails (REP406) instead of guessing, as does an exception inside real
code.  Findings are grouped over the verified p-range into a symbolic
p-condition ("odd p in [3, 31]").  :func:`extract_streams` equals the
streams a live run of the same trajectory records, less their compute
charges and attributions: the cross-check against reality.

This module must not import :mod:`repro.parallel` at import time (the
parallel package imports :mod:`repro.analysis.contract`); the rank
programs are parsed from source by path instead.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import operator
import sys
import traceback
from array import array
from dataclasses import dataclass, field
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
    BATCH_ENTRY, CHARGE, COLLECTIVE_TAG_BASE, DRAW_ENTRY, POST, POST_ENTRY, RECV, SEND, WAIT,
    WAIT_ENTRY, OpBatch, OpStream, RankEndpoint, RecvRequest, SendRequest, replay_program,
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

#: Interpreter work budget per (rank, p) instantiation — a runaway loop
#: in an analyzed program fails extraction instead of hanging the tool.
_MAX_STEPS = 2_000_000
_MAX_ENTRIES_PER_RANK = 200_000
_MAX_CALL_DEPTH = 64


class StaticExtractionError(Exception):
    """The program's schedule cannot be extracted statically."""

    def __init__(self, msg: str, loc: tuple[str, int] | None = None) -> None:
        super().__init__(msg)
        self.loc = loc


# ---------------------------------------------------------------------------
# the abstract value domain


class _Unknown:
    """The opaque top value: absorbs arithmetic, attributes and calls."""

    def __repr__(self) -> str:
        return "<unknown>"


UNKNOWN = _Unknown()


def _is_concrete(v) -> bool:
    return isinstance(v, (int, float, bool, str, bytes)) or v is None


class _Opaque:
    """A structured opaque value: known attributes, unknown everything else."""

    def __init__(self, attrs: dict | None = None) -> None:
        self.attrs = dict(attrs or {})

    def getattr(self, name: str):
        return self.attrs.get(name, UNKNOWN)


class _AnyFunc:
    """A callable about which nothing is known; returns UNKNOWN."""

    def __call__(self, *a, **k):
        return UNKNOWN


_ANY_FUNC = _AnyFunc()


class _Identity:
    """np.asarray / np.ascontiguousarray: structure-preserving pass-through."""

    def __call__(self, *a, **k):
        return a[0] if a else UNKNOWN


class _NP:
    """The numpy module as the interpreter sees it."""

    _PASSTHROUGH = {"asarray", "ascontiguousarray"}

    def getattr(self, name: str):
        if name in self._PASSTHROUGH:
            return _Identity()
        if name == "fft":
            return self
        return _ANY_FUNC


_NP_SENTINEL = _NP()


# ---------------------------------------------------------------------------
# the recording endpoint: real middleware code runs against it

#: The real code the verifier executes below the rank programs; an
#: entry or error raised inside it carries its innermost line here.
_MIDDLEWARE_FILES = frozenset(
    module.__file__ for module in (collectives, mpi_middleware, cmpi_middleware)
)

#: The attribution of every static entry: the proof books no time, so
#: it records no phase.
_ATTRIBUTION = Timeline().attribution

#: What a send of a payload the verifier cannot size carries.
_SYMBOLIC_PAYLOAD = PayloadSize(SYMBOLIC_NBYTES, SYMBOLIC_DTYPE)

#: The block a receive wait at a source line delivers, per line.
_RECEIVED: dict[tuple[str, int], Block] = {}


def _middleware_loc(frames) -> tuple[str, int] | None:
    """The innermost ``(code, line)`` of ``frames`` (outermost first)
    that runs middleware code, as a location."""
    loc = None
    for code, line in frames:
        if code.co_filename in _MIDDLEWARE_FILES:
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
    charges, keeping each entry's, post's and split-phase wait's line.

    Real code is handed *stand-ins* for symbolic payloads: an array
    ``[i, 1]`` for the ``i``-th payload this endpoint handed out, which
    real code can copy, size and add (a sum of k stand-ins has k in its
    second place).  :meth:`symbolic` maps them back.
    """

    send = RankEndpoint.send
    recv = RankEndpoint.recv
    sendrecv = RankEndpoint.sendrecv
    batch = RankEndpoint.batch

    #: what an interpreted rank program reaches through ``ep``
    SURFACE = frozenset({
        "rank", "size", "timeline", "next_collective_tag", "compute",
        "isend", "irecv", "send", "recv", "sendrecv", "batch",
    })

    def __init__(self, rank: int, size: int, interp: "Interp | None" = None) -> None:
        self.rank = rank
        self.size = size
        self.interp = interp
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
        self._at: tuple[str, int] | None = None  # middleware line of the batch

    @property
    def loc(self) -> tuple[str, int]:
        if self._at is not None:
            return self._at
        return self.interp.loc if self.interp is not None else ("<middleware>", 0)

    def stream(self) -> OpStream:
        return OpStream(tuple(self.entries), array("d"))

    def _add(self, kind: int, body, loc: tuple[str, int]) -> None:
        self.entries.append((kind, _ATTRIBUTION, body))
        self.locs.append(loc)
        if len(self.entries) > _MAX_ENTRIES_PER_RANK:
            raise StaticExtractionError(
                f"rank {self.rank} schedule exceeds {_MAX_ENTRIES_PER_RANK} entries", loc
            )

    # -- the boundary between symbolic and real values ------------------
    def stand_in(self, value):
        """What real code is handed for an interpreted value."""
        if isinstance(value, (list, tuple)):
            return type(value)(self.stand_in(v) for v in value)
        if value is not UNKNOWN and not isinstance(value, Block):
            return value
        self._payloads.append(value)
        return np.array([len(self._payloads) - 1, 1])

    def symbolic(self, value):
        """The interpreted value of what real code hands back: a stand-in
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
        caller = sys._getframe(1)
        loc = _middleware_loc([(caller.f_code, caller.f_lineno)]) or self.loc
        self._add(DRAW_ENTRY, op if isinstance(op, str) else "collective", loc)
        return SymTag(base=self._draws)

    def compute(self, seconds=None):
        return None

    def isend(self, dest, payload, tag=0) -> SendRequest:
        return SendRequest(self, self._peer(dest, "destination"), tag, payload, 0, 0.0, False)

    def irecv(self, source, tag=0, expect_nbytes=None, expect_dtype=None) -> RecvRequest:
        return RecvRequest(
            self, self._peer(source, "source"), tag, expect_nbytes, expect_dtype, 0.0
        )

    def _peer(self, peer, role: str) -> int:
        if not isinstance(peer, int) or isinstance(peer, bool):
            raise StaticExtractionError(
                f"{role} rank is not statically known ({self.symbolic(peer)!r})", self.loc
            )
        if not 0 <= peer < self.size:
            raise StaticExtractionError(f"bad {role} rank {peer} for p={self.size}", self.loc)
        if peer == self.rank:
            raise StaticExtractionError(f"self-{role} is not supported", self.loc)
        return peer

    # -- recording ------------------------------------------------------
    def drive(self, gen):
        """Run a real generator to its end, recording each op batch it
        yields; returns its result as an interpreted value.  An exception
        inside it is a :class:`StaticExtractionError` at its innermost
        middleware line."""
        received = None
        try:
            while True:
                batch = gen.send(received)
                self._at = _middleware_loc(_delegation_chain(gen))
                received = self.record(batch.ops)
        except StopIteration as stop:
            return self.symbolic(stop.value)
        except StaticExtractionError:
            raise
        except Exception as exc:
            loc = _middleware_loc(
                (frame.f_code, line) for frame, line in traceback.walk_tb(exc.__traceback__)
            )
            raise StaticExtractionError(f"{type(exc).__name__}: {exc}", loc or self.loc) from exc
        finally:
            self._at = None

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
                raise StaticExtractionError(f"op is not statically known ({op!r})", loc)
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
            raise StaticExtractionError("wait on a request that was never posted", loc)
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
        declared = self._at is None or dtype == "bytes"
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
        raise StaticExtractionError(
            f"message tag is not statically known ({self.symbolic(tag)!r})", self.loc
        )


# ---------------------------------------------------------------------------
# module registry: parse the rank-program modules from source by path


@dataclass
class ClassValue:
    name: str
    methods: dict  # name -> FuncValue, inherited ones included
    consts: dict
    properties: frozenset
    module: "ModuleCtx"
    fields: tuple | None  # a dataclass's annotated fields in order, else None
    bases: tuple = ()  # the bases' AST nodes


@dataclass
class FuncValue:
    name: str
    node: ast.FunctionDef
    module: "ModuleCtx"


@dataclass
class ModuleCtx:
    name: str  # dotted, e.g. "repro.parallel.pmd"
    path: str
    tree: ast.Module
    globals: dict = field(default_factory=dict)


_ANALYZED_MODULES = (
    "repro.parallel.decomposition",
    "repro.parallel.pfft",
    "repro.parallel.ppme",
    "repro.parallel.pclassic",
    "repro.parallel.pmd",
    "repro.parallel.spatial.program",
)


def _fold_const(node: ast.expr):
    """Best-effort compile-time value of a module-level expression."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        v = _fold_const(node.operand)
        if _is_concrete(v) and not isinstance(v, (str, bytes)):
            return _UNARY[type(node.op)](v)
    if isinstance(node, ast.BinOp):
        left, right = _fold_const(node.left), _fold_const(node.right)
        if _is_concrete(left) and _is_concrete(right):
            try:
                return _BINOPS[type(node.op)](left, right)
            except Exception:  # an unsupported operator too
                return UNKNOWN
    if isinstance(node, (ast.Tuple, ast.List)):
        items = [_fold_const(e) for e in node.elts]
        if all(i is not UNKNOWN for i in items):
            return tuple(items) if isinstance(node, ast.Tuple) else items
    return UNKNOWN


#: the operators the interpreter applies to concrete values
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.BitXor: operator.xor, ast.BitAnd: operator.and_, ast.BitOr: operator.or_,
    ast.LShift: operator.lshift, ast.RShift: operator.rshift,
}
#: the operators of ``t op= v``, in place (a list ``+=`` extends it)
_INPLACE = {op: getattr(operator, "i" + fn.__name__.rstrip("_")) for op, fn in _BINOPS.items()}
_COMPARISONS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
}


class Registry:
    """The parsed rank-program modules, loaded once per process."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleCtx] = {}
        root = Path(__file__).resolve().parents[1]  # src/repro
        for dotted in _ANALYZED_MODULES:
            path = root / Path(*dotted.split(".")[1:]).with_suffix(".py")
            self.modules[dotted] = self._module_ctx(path.read_text(), dotted, str(path))
        self._resolve_imports()
        self._inherit([c for ctx in self.modules.values() for c in ctx.globals.values()])

    def _module_ctx(self, source: str, name: str, path: str) -> ModuleCtx:
        ctx = ModuleCtx(name=name, path=path, tree=ast.parse(source, filename=path))
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef):
                ctx.globals[node.name] = FuncValue(node.name, node, ctx)
            elif isinstance(node, ast.ClassDef):
                ctx.globals[node.name] = self._class_value(node, ctx)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Name):
                    value = _fold_const(node.value)
                    if value is not UNKNOWN:
                        ctx.globals[tgt.id] = value
        return ctx

    @staticmethod
    def _class_value(node: ast.ClassDef, ctx: ModuleCtx) -> ClassValue:
        methods, consts, props, fields = {}, {}, set(), []
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                methods[item.name] = FuncValue(item.name, item, ctx)
                for dec in item.decorator_list:
                    if isinstance(dec, ast.Name) and dec.id == "property":
                        props.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                tgt = item.targets[0] if isinstance(item, ast.Assign) else item.target
                value = item.value
                if isinstance(item, ast.AnnAssign) and isinstance(tgt, ast.Name):
                    fields.append(tgt.id)
                if isinstance(tgt, ast.Name) and value is not None:
                    folded = _fold_const(value)
                    if folded is not UNKNOWN:
                        consts[tgt.id] = folded
        is_dataclass = any(
            "dataclass" in (getattr(dec, "id", None), getattr(dec, "attr", None))
            for dec in (getattr(d, "func", d) for d in node.decorator_list)
        )
        return ClassValue(
            node.name, methods, consts, frozenset(props), ctx,
            tuple(fields) if is_dataclass else None, tuple(node.bases),
        )

    @staticmethod
    def _inherit(values) -> None:
        """Merge the analyzed bases of each class among ``values`` into
        it, in Python's method resolution order (computed on empty
        stand-in classes), the subclass winning; a dataclass binds its
        bases' fields first and replaces their ``__init__``."""
        classes = list({id(c): c for c in values if isinstance(c, ClassValue)}.values())
        stand_ins: dict[int, type] = {}

        def stand_in(c: ClassValue) -> type:
            if id(c) not in stand_ins:
                bases = [c.module.globals.get(getattr(b, "id", None)) for b in c.bases]
                bases = tuple(stand_in(b) for b in bases if isinstance(b, ClassValue))
                stand_ins[id(c)] = type(c.name, bases, {"cls": c})
            return stand_ins[id(c)]

        mros = [[k.cls for k in reversed(stand_in(c).__mro__[:-1])] for c in classes]
        own = {id(c): (c.methods, c.consts, c.properties, c.fields) for c in classes}
        for c, mro in zip(classes, mros):
            members, props, fields = {}, set(), None
            for methods, consts, properties, own_fields in (own[id(k)] for k in mro):
                if own_fields is not None:  # a dataclass: its generated __init__ wins
                    known = fields or ()
                    fields = known + tuple(f for f in own_fields if f not in known)
                    members.pop("__init__", None)
                members.update(methods)
                members.update(consts)
                props = (props - methods.keys() - consts.keys()) | properties
            c.methods = {n: v for n, v in members.items() if isinstance(v, FuncValue)}
            c.consts = {n: v for n, v in members.items() if not isinstance(v, FuncValue)}
            c.properties, c.fields = frozenset(props), fields

    def _resolve_imports(self) -> None:
        for ctx in self.modules.values():
            for node in ctx.tree.body:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "numpy":
                            ctx.globals[alias.asname or alias.name] = _NP_SENTINEL
                elif isinstance(node, ast.ImportFrom):
                    target = self._absolute(ctx.name, node.module, node.level)
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if target == "numpy" or (target or "").startswith("numpy."):
                            ctx.globals[bound] = _NP_SENTINEL if alias.name == "numpy" else _ANY_FUNC
                        elif target in self.modules and alias.name in self.modules[target].globals:
                            ctx.globals[bound] = self.modules[target].globals[alias.name]

    @staticmethod
    def _absolute(current: str, module: str | None, level: int) -> str | None:
        if level == 0:
            return module
        parts = current.split(".")
        base = parts[: len(parts) - level]
        if module:
            base = base + module.split(".")
        return ".".join(base) if base else None

    def module_source_ctx(self, source: str, path: str) -> ModuleCtx:
        """A standalone module context for fixture sources (no imports)."""
        ctx = self._module_ctx(source, f"<fixture:{path}>", path)
        self._inherit(ctx.globals.values())
        return ctx


_REGISTRY: Registry | None = None


def _registry() -> Registry:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = Registry()
    return _REGISTRY


# ---------------------------------------------------------------------------
# interpreted instances (objects of analyzed classes)


class Instance:
    """An object of an analyzed (AST) class: attrs + interpreted methods."""

    def __init__(self, cls: ClassValue) -> None:
        self.cls = cls
        self.attrs: dict = {}


class _BoundMethod:
    def __init__(self, instance: Instance, func: FuncValue) -> None:
        self.instance = instance
        self.func = func


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


#: attribute/function names whose calls constitute communication; a branch
#: containing none of these (nor a tag draw) is schedule-irrelevant and may
#: be skipped when its condition is not statically decidable.
_COMM_NAMES = frozenset({
    "isend", "irecv", "send", "recv", "sendrecv", "batch", "next_collective_tag",
    "barrier", "allreduce", "allgatherv", "alltoallv", "bcast", "reduce",
    "sync", "wait", "reciprocal", "forward", "inverse", "exchange",
})


def _has_comm_effects(node: ast.AST) -> bool:
    return any(
        getattr(sub.func, "attr", getattr(sub.func, "id", None)) in _COMM_NAMES
        for sub in ast.walk(node) if isinstance(sub, ast.Call)
    )


class _Frame:
    def __init__(self, module: ModuleCtx, locals_: dict) -> None:
        self.module = module
        self.locals = locals_


#: the generators (and what ``yield from`` makes one of) real code hands
#: an interpreted rank program
_REAL_GENERATORS = (GeneratorType, OpBatch, SendRequest, RecvRequest)


class Interp:
    """The abstract interpreter of one rank of one p, and its endpoint."""

    def __init__(self, registry: Registry, rank: int, size: int) -> None:
        self.registry = registry
        self.steps = 0
        self.depth = 0
        self.loc: tuple[str, int] = ("<unknown>", 0)
        self.ep = _RecordingEndpoint(rank, size, self)

    # -- entry ----------------------------------------------------------
    def call(self, fv, args: list, kwargs: dict, self_obj=None):
        if isinstance(fv, _BoundMethod):
            func, module, self_obj = fv.func.node, fv.func.module, fv.instance
        elif isinstance(fv, FuncValue):
            func, module = fv.node, fv.module
        else:
            raise StaticExtractionError(f"cannot interpret call target {fv!r}", self.loc)
        self.depth += 1
        if self.depth > _MAX_CALL_DEPTH:
            raise StaticExtractionError("call depth exceeded", self.loc)
        try:
            frame = _Frame(module, self._bind(func, args, kwargs, self_obj, module))
            try:
                self._exec_body(func.body, frame)
            except _Return as r:
                return r.value
            return None
        finally:
            self.depth -= 1

    def _bind(self, func: ast.FunctionDef, args, kwargs, self_obj, module) -> dict:
        a = func.args
        names = [arg.arg for arg in a.args]
        local = dict(zip(names, ([] if self_obj is None else [self_obj]) + list(args)))
        # defaults for trailing positional params
        for name, dflt in zip(names[len(names) - len(a.defaults):], a.defaults):
            if name not in local:
                local[name] = self._eval(dflt, _Frame(module, {}))
        for arg, dflt in zip(a.kwonlyargs, a.kw_defaults):
            local[arg.arg] = UNKNOWN if dflt is None else self._eval(dflt, _Frame(module, {}))
        local.update(kwargs)
        for name in names:
            local.setdefault(name, UNKNOWN)
        return local

    # -- statements -----------------------------------------------------
    def _tick(self, node: ast.AST, frame: _Frame) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise StaticExtractionError("interpreter work budget exceeded", self.loc)
        line = getattr(node, "lineno", None)
        if line:
            self.loc = (frame.module.path, line)

    def _exec_body(self, stmts, frame: _Frame) -> None:
        for stmt in stmts:
            self._exec(stmt, frame)

    def _exec(self, node: ast.stmt, frame: _Frame) -> None:
        self._tick(node, frame)
        if isinstance(node, ast.Expr):
            self._eval(node.value, frame)
        elif isinstance(node, ast.Assign):
            value = self._eval(node.value, frame)
            for tgt in node.targets:
                self._assign(tgt, value, frame)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._eval(node.value, frame), frame)
        elif isinstance(node, ast.AugAssign):
            # the target's container is evaluated twice: to load and to store
            current = self._eval(node.target, frame)
            value = self._binop(node.op, current, self._eval(node.value, frame), _INPLACE)
            self._assign(node.target, value, frame)
        elif isinstance(node, ast.If):
            self._exec_if(node, frame)
        elif isinstance(node, ast.For):
            self._exec_for(node, frame)
        elif isinstance(node, ast.With):
            for item in node.items:
                ctx = self._eval(item.context_expr, frame)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, ctx, frame)
            self._exec_body(node.body, frame)
        elif isinstance(node, ast.Return):
            raise _Return(self._eval(node.value, frame) if node.value else None)
        elif isinstance(node, ast.Break):
            raise _Break()
        elif isinstance(node, ast.Continue):
            raise _Continue()
        elif isinstance(node, ast.Raise):
            raise StaticExtractionError(
                f"program raises on a statically-reached path: {ast.unparse(node)}", self.loc
            )
        elif isinstance(node, (ast.Assert, ast.Pass, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal, ast.FunctionDef, ast.ClassDef)):
            pass
        else:
            raise StaticExtractionError(
                f"unsupported statement {type(node).__name__}", self.loc
            )

    def _exec_if(self, node: ast.If, frame: _Frame) -> None:
        cond = self._truth(self._eval(node.test, frame))
        if cond is True:
            self._exec_body(node.body, frame)
        elif cond is False:
            self._exec_body(node.orelse, frame)
        else:
            # undecidable condition: only schedule-irrelevant arms may be
            # skipped — guessing a communicating branch would be unsound
            if any(_has_comm_effects(s) for s in node.body):
                raise StaticExtractionError(
                    "communication guarded by a condition that is not statically "
                    f"decidable: {ast.unparse(node.test)}", self.loc,
                )
            self._exec_body(node.orelse, frame)

    def _exec_for(self, node: ast.For, frame: _Frame) -> None:
        it = self._eval(node.iter, frame)
        if isinstance(it, (list, tuple, range)):
            for item in it:
                self._assign(node.target, item, frame)
                try:
                    self._exec_body(node.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
            else:
                self._exec_body(node.orelse, frame)
            return
        if any(_has_comm_effects(s) for s in node.body):
            raise StaticExtractionError(
                f"communication inside a loop over a value that is not statically "
                f"iterable: {ast.unparse(node.iter)}", self.loc,
            )

    # -- assignment -----------------------------------------------------
    def _assign(self, target: ast.expr, value, frame: _Frame) -> None:
        if isinstance(target, ast.Name):
            frame.locals[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if isinstance(value, (tuple, list)) and len(value) == len(elts):
                for t, v in zip(elts, value):
                    self._assign(t, v, frame)
            else:
                for t in elts:
                    self._assign(t, UNKNOWN, frame)
        elif isinstance(target, ast.Subscript):
            obj = self._eval(target.value, frame)
            idx = self._eval(target.slice, frame)
            if isinstance(obj, list) and isinstance(idx, int) and not isinstance(idx, bool):
                if -len(obj) <= idx < len(obj):
                    obj[idx] = value
            elif isinstance(obj, dict) and _is_concrete(idx):
                obj[idx] = value
        elif isinstance(target, ast.Attribute):
            obj = self._eval(target.value, frame)
            if isinstance(obj, (Instance, _Opaque)):
                obj.attrs[target.attr] = value
        # stores into opaque objects are dropped (conservative)

    # -- expressions ----------------------------------------------------
    def _truth(self, v) -> bool | None:
        """Concrete truthiness, or None when not statically decidable."""
        if v is UNKNOWN:
            return None
        if isinstance(v, (Block, SymTag, SymSize, Instance, _Opaque)):
            return True
        try:
            return bool(v)
        except Exception:
            return None

    def _eval(self, node: ast.expr, frame: _Frame):
        self._tick(node, frame)
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self._load_name(node.id, frame)
        if isinstance(node, ast.Attribute):
            return self._getattr(self._eval(node.value, frame), node.attr)
        if isinstance(node, ast.Call):
            return self._call(node, frame)
        if isinstance(node, ast.BinOp):
            return self._binop(node.op, self._eval(node.left, frame), self._eval(node.right, frame))
        if isinstance(node, ast.UnaryOp):
            v = self._eval(node.operand, frame)
            if isinstance(node.op, ast.Not):
                t = self._truth(v)
                return UNKNOWN if t is None else (not t)
            if _is_concrete(v) and not isinstance(v, (str, bytes)) and type(node.op) in _UNARY:
                try:
                    return _UNARY[type(node.op)](v)
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            return self._boolop(node, frame)
        if isinstance(node, ast.Compare):
            return self._compare(node, frame)
        if isinstance(node, ast.IfExp):
            t = self._truth(self._eval(node.test, frame))
            if t is True:
                return self._eval(node.body, frame)
            if t is False:
                return self._eval(node.orelse, frame)
            return UNKNOWN
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(e, frame) for e in node.elts)
        if isinstance(node, ast.List):
            return [self._eval(e, frame) for e in node.elts]
        if isinstance(node, ast.Set):
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            return self._subscript(node, frame)
        if isinstance(node, ast.Slice):
            return slice(
                self._eval(node.lower, frame) if node.lower else None,
                self._eval(node.upper, frame) if node.upper else None,
                self._eval(node.step, frame) if node.step else None,
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node, frame)
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            return UNKNOWN
        if isinstance(node, ast.YieldFrom):
            value = self._eval(node.value, frame)
            if isinstance(value, _REAL_GENERATORS):
                return self.ep.drive(iter(value))
            return value
        if isinstance(node, ast.Starred):
            return self._eval(node.value, frame)
        raise StaticExtractionError(f"unsupported expression {type(node).__name__}", self.loc)

    def _load_name(self, name: str, frame: _Frame):
        if name in frame.locals:
            return frame.locals[name]
        if name in frame.module.globals:
            return frame.module.globals[name]
        return _BUILTINS.get(name, UNKNOWN)

    def _getattr(self, obj, name: str):
        if obj is UNKNOWN:
            return UNKNOWN
        if isinstance(obj, _RecordingEndpoint):
            return getattr(obj, name) if name in obj.SURFACE else UNKNOWN
        if isinstance(obj, (Middleware, Timeline, SendRequest, RecvRequest)):
            return getattr(obj, name, UNKNOWN)
        if isinstance(obj, (_Opaque, _NP)):
            return obj.getattr(name)
        if isinstance(obj, Instance):
            if name in obj.attrs:
                return obj.attrs[name]
            cls = obj.cls
            if name in cls.consts:
                return cls.consts[name]
            if name in cls.methods:
                if name in cls.properties:
                    return self.call(_BoundMethod(obj, cls.methods[name]), [], {})
                return _BoundMethod(obj, cls.methods[name])
            return UNKNOWN
        if isinstance(obj, Block):
            if name == "copy":
                return obj.copy
            return UNKNOWN
        if isinstance(obj, ClassValue):
            return obj.consts.get(name, UNKNOWN)
        if isinstance(obj, (list, tuple)) and name in ("append", "extend", "pop", "index", "count"):
            return getattr(obj, name, UNKNOWN)
        if isinstance(obj, dict) and name in ("items", "keys", "values", "get", "pop"):
            return getattr(obj, name, UNKNOWN)
        return UNKNOWN

    def _subscript(self, node: ast.Subscript, frame: _Frame):
        obj = self._eval(node.value, frame)
        idx = self._eval(node.slice, frame)
        if isinstance(obj, (list, tuple, str, bytes, dict)):
            try:
                return obj[idx]
            except Exception:
                return UNKNOWN
        return UNKNOWN

    def _comprehension(self, node, frame: _Frame):
        if len(node.generators) != 1:
            return UNKNOWN
        gen = node.generators[0]
        it = self._eval(gen.iter, frame)
        if not isinstance(it, (list, tuple, range)):
            return UNKNOWN
        out = []
        for item in it:
            self._assign(gen.target, item, frame)
            keep = True
            for cond in gen.ifs:
                if self._truth(self._eval(cond, frame)) is not True:
                    keep = False
                    break
            if keep:
                out.append(self._eval(node.elt, frame))
        return out

    def _binop(self, op: ast.operator, left, right, table=_BINOPS):
        try:
            if (_is_concrete(left) or isinstance(left, (list, tuple))) and (
                _is_concrete(right) or isinstance(right, (list, tuple))
            ):
                return table[type(op)](left, right)
        except Exception:
            return UNKNOWN
        return UNKNOWN

    def _boolop(self, node: ast.BoolOp, frame: _Frame):
        is_and = isinstance(node.op, ast.And)
        result = None
        for sub in node.values:
            v = self._eval(sub, frame)
            t = self._truth(v)
            if t is None:
                return UNKNOWN
            if is_and and not t:
                return v
            if not is_and and t:
                return v
            result = v
        return result

    def _compare(self, node: ast.Compare, frame: _Frame):
        left = self._eval(node.left, frame)
        for op, comp in zip(node.ops, node.comparators):
            right = self._eval(comp, frame)
            one = self._compare_one(op, left, right)
            if one is UNKNOWN:
                return UNKNOWN
            if not one:
                return False
            left = right
        return True

    @staticmethod
    def _definitely_not_none(v) -> bool:
        return isinstance(v, (Block, SymTag, SymSize, Instance, _Opaque, _RecordingEndpoint,
                              Middleware, int, float, str, bytes, list, tuple, dict))

    def _compare_one(self, op: ast.cmpop, left, right):
        if isinstance(op, (ast.Is, ast.IsNot)):
            if right is None:
                if left is None:
                    eq = True
                elif self._definitely_not_none(left):
                    eq = False
                else:
                    return UNKNOWN
                return (eq if isinstance(op, ast.Is) else not eq)
            return UNKNOWN
        if _is_concrete(left) and _is_concrete(right) and type(op) in _COMPARISONS:
            try:
                return _COMPARISONS[type(op)](left, right)
            except Exception:
                return UNKNOWN
        if isinstance(op, (ast.Eq, ast.NotEq)) and isinstance(left, (SymTag, Block, SymSize)):
            eq = left == right
            return eq if isinstance(op, ast.Eq) else not eq
        if isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, (list, tuple, dict)):
            try:
                found = left in right
                return found if isinstance(op, ast.In) else not found
            except Exception:
                return UNKNOWN
        return UNKNOWN

    # -- calls ----------------------------------------------------------
    def _call(self, node: ast.Call, frame: _Frame):
        func = self._eval(node.func, frame)
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                star = self._eval(a.value, frame)
                if isinstance(star, (list, tuple)):
                    args.extend(star)
                else:
                    args.append(UNKNOWN)
            else:
                args.append(self._eval(a, frame))
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs of unknown content
                self._eval(kw.value, frame)
                continue
            kwargs[kw.arg] = self._eval(kw.value, frame)

        if func is UNKNOWN or isinstance(func, (_AnyFunc, _NP)):
            return UNKNOWN
        if isinstance(func, _Identity):
            return func(*args)
        if isinstance(func, (FuncValue, _BoundMethod)):
            return self.call(func, args, kwargs)
        if isinstance(func, ClassValue):
            return self._construct(func, args, kwargs)
        # real code (the endpoint, requests, middleware) may not fail;
        # a builtin or any other callable that does yields UNKNOWN
        owner = getattr(func, "__self__", None)
        real = owner is self.ep or isinstance(owner, (Middleware, SendRequest, RecvRequest))
        if isinstance(owner, Middleware):
            self.ep.mw_ops.append(func.__name__)
            args = self.ep.stand_in(args)
            kwargs = {k: self.ep.stand_in(v) for k, v in kwargs.items()}
        if callable(func):
            try:
                return func(*args, **kwargs)
            except (StaticExtractionError, _Return, _Break, _Continue):
                raise
            except Exception as exc:
                if real:
                    raise StaticExtractionError(f"{type(exc).__name__}: {exc}", self.loc) from exc
                return UNKNOWN
        return UNKNOWN

    def _construct(self, cls: ClassValue, args, kwargs) -> Instance:
        """An object of an analyzed class, its constructor interpreted: the
        class's ``__init__``, else a dataclass's field binding (positional
        arguments in field order, then keywords) and ``__post_init__``."""
        obj = Instance(cls)
        if "__init__" in cls.methods:
            self.call(_BoundMethod(obj, cls.methods["__init__"]), args, kwargs)
        elif cls.fields is not None:
            obj.attrs.update(zip(cls.fields, args), **kwargs)
            if "__post_init__" in cls.methods:
                self.call(_BoundMethod(obj, cls.methods["__post_init__"]), [], {})
        return obj


# ---------------------------------------------------------------------------
# builtins


def _b_len(x=UNKNOWN):
    if isinstance(x, (list, tuple, dict, str, bytes)):
        return len(x)
    return UNKNOWN


def _b_range(*a):
    if all(isinstance(x, int) and not isinstance(x, bool) for x in a) and 1 <= len(a) <= 3:
        return range(*a)
    raise StaticExtractionError(f"range() over non-concrete bounds {a!r}")


_BUILTINS = {
    "len": _b_len,
    "bool": lambda x=False: bool(x) if _is_concrete(x) else UNKNOWN,
    "range": _b_range,
    "zip": lambda *a: list(zip(*a)) if all(isinstance(x, (list, tuple, range)) for x in a) else UNKNOWN,
    "list": lambda x=(): list(x) if isinstance(x, (list, tuple, range)) else ([] if x == () else UNKNOWN),
    "tuple": lambda x=(): tuple(x) if isinstance(x, (list, tuple, range)) else UNKNOWN,
    "dict": lambda *a, **k: dict(k) if not a else UNKNOWN,
    "min": lambda *a, **k: min(*a) if a and all(_is_concrete(x) and x is not None for x in a) else UNKNOWN,
    "max": lambda *a, **k: max(*a) if a and all(_is_concrete(x) and x is not None for x in a) else UNKNOWN,
    "abs": lambda x=0: abs(x) if _is_concrete(x) and x is not None and not isinstance(x, (str, bytes)) else UNKNOWN,
    "sorted": lambda x=(), **k: sorted(x) if isinstance(x, (list, tuple, range)) else UNKNOWN,
    "print": lambda *a, **k: None,
    "divmod": lambda a=0, b=1: divmod(a, b) if _is_concrete(a) and _is_concrete(b) else UNKNOWN,
}


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


def _interpret_ranks(reg: Registry, p: int, entry: FuncValue, kwargs) -> list[_RecordingEndpoint]:
    """Interpret ``entry(ep, **kwargs())`` once per rank of a p-rank run."""
    ranks = []
    for rank in range(p):
        interp = Interp(reg, rank, p)
        interp.call(entry, [interp.ep], kwargs())
        ranks.append(interp.ep)
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
    strategy: str, middleware: str, p: int, n_steps: int = 1, profile: str | None = None
) -> list[_RecordingEndpoint]:
    """The recorded ranks of one strategy instantiation.

    For the spatial strategy ``profile`` names the box profile (default:
    the first of :data:`SPATIAL_PROFILES`).  Its rank program's control
    flow depends only on the decomposition's ``grid`` and ``pulses``,
    so those concrete values of the *real* geometry are all the
    interpreter needs; the engine stays opaque.
    """
    from ..parallel.run import make_middleware  # runtime-only: see module docstring

    reg = _registry()
    config = {"n_steps": n_steps, "barrier_per_step": True, "dt": 0.0005}
    if strategy == "spatial":
        _name, lengths, r_cut = _spatial_profile(profile or SPATIAL_PROFILES[0][0])
        decomp = _spatial_decomposition(lengths, r_cut, p)
        entry = reg.modules["repro.parallel.spatial.program"].globals["spatial_rank_program"]
        return _interpret_ranks(reg, p, entry, lambda: {
            "mw": make_middleware(middleware),
            "decomp": _Opaque({"grid": tuple(decomp.grid), "pulses": tuple(decomp.pulses)}),
            "engine": UNKNOWN,
            "config": _Opaque(config),
        })
    if strategy not in ("pclassic", "ppme"):
        raise ValueError(f"unknown strategy {strategy!r}")
    entry = reg.modules["repro.parallel.pmd"].globals["rank_program"]
    return _interpret_ranks(reg, p, entry, lambda: {
        "mw": make_middleware(middleware),
        "system": _Opaque({"uses_pme": strategy == "ppme"}),
        "decomp": UNKNOWN,
        "cost": UNKNOWN,
        "config": _Opaque(config),
        "positions0": Block("positions0", SymSize(name="coords"), "float64"),
        "velocities0": UNKNOWN,
        "shared": None,
    })


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
            lambda p, profile=profile: _strategy_ranks(strategy, middleware, p, n_steps, profile),
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
    """Each rank's statically extracted op stream of one instantiation.

    It equals the stream :class:`~repro.mpi.endpoint.OpStreamRecorder`
    records from a live run of the same trajectory, less that stream's
    compute charges and timeline attributions: a size or dtype the
    verifier does not know is a marker equal to every value.
    ``profile`` selects the spatial box profile.
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
    """Check the extracted schedule against the declared contract (REP406).

    The spatial contract is the *declared*
    :meth:`~repro.parallel.spatial.decomposition.SpatialDecomposition.schedule_contract`
    of the real geometry, per (profile, p) since halo depths depend on
    both; every rank's extracted middleware ops must match it.
    """
    if strategy == "spatial":
        module = "repro.parallel.spatial.program"
        cases = [
            (f"'spatial' ({name}, p={p}", p, name,
             _spatial_decomposition(lengths, r_cut, p).schedule_contract(), {"barrier"})
            for name, lengths, r_cut in SPATIAL_PROFILES for p in ps
        ]
    else:
        from ..parallel.pmd import STEP_SCHEDULE_CONTRACT  # runtime-only import

        module = "repro.parallel.pmd"
        flags = {"barrier"} | ({"pme"} if strategy == "ppme" else set())
        cases = [(f"{strategy!r} (p={p}", p, None, STEP_SCHEDULE_CONTRACT, flags) for p in ps]
    path = _rel(_registry().modules[module].path)
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

    The module may define helper functions and constants; the verified
    program is ``entry`` when given, else a function named
    ``rank_program``, else the first top-level function whose first
    parameter is ``ep``.  The program communicates through the
    :class:`RankEndpoint` surface of its ``ep`` argument and, if it has
    an ``mw`` parameter, through the real MPI middleware.
    """
    reg = _registry()
    ctx = reg.module_source_ctx(source, path)
    first = next((
        v for v in ctx.globals.values()
        if isinstance(v, FuncValue) and v.node.args.args and v.node.args.args[0].arg == "ep"
    ), None)
    fv = ctx.globals.get(entry) if entry is not None else ctx.globals.get("rank_program", first)
    if not isinstance(fv, FuncValue):
        raise ValueError(f"no rank program found in {path}")
    takes_mw = any(arg.arg == "mw" for arg in fv.node.args.args)
    return _verify_instantiations(
        lambda p: _interpret_ranks(
            reg, p, fv, lambda: {"mw": MPIMiddleware()} if takes_mw else {}
        ),
        bound,
    )
