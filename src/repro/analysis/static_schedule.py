"""Static communication-schedule verification (rules REP401-REP406).

The schedule of every rank program is extracted per (rank, p)
instantiation for every p up to a bound, with no simulator running.  A
progress engine then matches the per-rank send/recv/collective micro-op
streams against each other to prove, for every verified p,

* deadlock-freedom under rendezvous semantics (REP401),
* every send is received and every receive is sent (REP402/REP403),
* no two in-flight messages share ``(src, dst, tag)`` (REP404),
* declared payload sizes/dtypes agree where both ends are concrete
  (REP405),
* the collective sequence is identical across ranks and conforms to the
  strategy's declared :class:`~repro.analysis.contract.ScheduleContract`
  (REP406).

Rank programs are interpreted; everything below them is executed.  The
rank programs (:mod:`repro.parallel.pmd`, ``ppme``, ``pfft``,
``pclassic``, :mod:`repro.parallel.spatial.program` and the golden
fixtures) do numpy work on data the verifier does not have, so an
abstract interpreter walks their ASTs: control flow — ``ep.rank``,
``ep.size``, loops over ranks and FFT planes, rank-dependent branches —
evaluates for real, while the data the program moves stays symbolic
(:mod:`repro.analysis.symbolic`).  When interpreted code reaches
``mw.<op>(ep, ...)`` or ``yield from ep.<primitive>(...)``, the real
middleware, collective and endpoint generators run against a
:class:`_RecordingEndpoint`, which turns each op batch they yield into
micro-ops: the ops :meth:`~repro.mpi.endpoint.OpBatch._advance` would
execute.  Real code is handed stand-in arrays for symbolic payloads and
the recording endpoint maps them back, so the boundary between symbolic
and real values lives in that one class.

Soundness model: the verifier is *conservative where it is symbolic*.
All sends are treated as rendezvous (a program whose completion depends
on eager buffering is unsafe per the MPI standard and is reported as a
deadlock); size/dtype agreement is only checked where both sides are
concrete; a branch whose condition cannot be decided statically is
skippable only when neither arm communicates — otherwise extraction
fails loudly (REP406) instead of guessing, as does an exception inside
real code.  Findings are grouped over the verified p-range into a
symbolic p-condition ("odd p in [3, 31]").

This module must not import :mod:`repro.parallel` at import time (the
parallel package imports :mod:`repro.analysis.contract`); the rank
programs are parsed from source by path instead.
"""

from __future__ import annotations

import ast
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import GeneratorType

import numpy as np

from ..cmpi import middleware as cmpi_middleware
from ..cmpi.middleware import CMPIMiddleware
from ..instrument.timeline import Timeline
from ..mpi import collectives
from ..mpi import middleware as mpi_middleware
from ..mpi.endpoint import (
    CHARGE, COLLECTIVE_TAG_BASE, POST, RECV, SEND, WAIT,
    OpBatch, RankEndpoint, RecvRequest, SendRequest,
)
from ..mpi.middleware import Middleware, MPIMiddleware
from .rules import RULES, Diagnostic
from .symbolic import Block, SymSize, SymTag, summarize_p_set

__all__ = [
    "StaticExtractionError",
    "verify_rank_program_source",
    "verify_middleware_collectives",
    "extract_strategy_collective_ops",
    "verify_contract_conformance",
    "verify_strategy",
    "verify_static",
    "static_step_events",
    "crosscheck_against_trace",
    "STRATEGIES",
    "MIDDLEWARES",
    "SPATIAL_PROFILES",
]

#: Interpreter work budget per (rank, p) instantiation — a runaway loop
#: in an analyzed program fails extraction instead of hanging the tool.
_MAX_STEPS = 2_000_000
_MAX_OPS_PER_RANK = 200_000
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

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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

    def setattr(self, name: str, value) -> None:
        self.attrs[name] = value


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
# micro-ops: the extracted schedule


@dataclass
class MicroOp:
    """One schedule event of one rank, in program order."""

    kind: str  # post_send | wait_send | post_recv | wait_recv | collective | mw
    loc: tuple[str, int]
    peer: int | None = None
    tag: object = None  # SymTag | int (display form)
    abs_tag: int | None = None  # runtime matching key
    size: SymSize | None = None
    dtype: str | None = None
    op: str | None = None  # collective / middleware op name
    invocation: int | None = None  # 1-based next_collective_tag draw index
    ref: int | None = None  # send/recv id a wait refers to


# ---------------------------------------------------------------------------
# the recording endpoint: real middleware code runs against it

#: The real code the verifier executes below the rank programs; a
#: micro-op or error raised inside it carries its innermost line here.
_MIDDLEWARE_FILES = frozenset(
    module.__file__ for module in (collectives, mpi_middleware, cmpi_middleware)
)


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
    """A :class:`~repro.mpi.endpoint.RankEndpoint` that records micro-ops.

    ``send``/``recv``/``sendrecv``/``batch`` are the real endpoint's, and
    ``isend``/``irecv`` return real requests; :meth:`drive` runs a real
    generator and records each op batch it yields instead of executing
    it.  Real code is handed *stand-ins* for symbolic payloads: an array
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
        self.ops: list[MicroOp] = []
        self._draws = 0
        self._sends = 0
        self._recvs = 0
        self._posted: dict = {}  # request -> its send or receive id
        self._payloads: list = []  # stand-in index -> Block or UNKNOWN
        self._at: tuple[str, int] | None = None  # middleware line of the batch

    @property
    def loc(self) -> tuple[str, int]:
        if self._at is not None:
            return self._at
        return self.interp.loc if self.interp is not None else ("<middleware>", 0)

    def emit(self, kind: str, loc: tuple[str, int] | None = None, **kw) -> None:
        self.ops.append(MicroOp(kind=kind, loc=loc or self.loc, **kw))
        if len(self.ops) > _MAX_OPS_PER_RANK:
            raise StaticExtractionError(
                f"rank {self.rank} schedule exceeds {_MAX_OPS_PER_RANK} events", self.loc
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
        self.emit(
            "collective", _middleware_loc([(caller.f_code, caller.f_lineno)]),
            op=op if isinstance(op, str) else "collective", invocation=self._draws,
        )
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
        """The micro-ops of one op batch, op by op as
        :meth:`~repro.mpi.endpoint.OpBatch._advance` runs them; returns
        the stand-ins its receive waits deliver, in wait order."""
        reqs: list = []
        received = []
        for op in ops:
            code = op[0]
            if code == WAIT:
                req = reqs[op[1]] if type(op[1]) is int else op[1]
                ref = self._posted.get(req)
                if ref is None:
                    raise StaticExtractionError("wait on a request that was never posted", self.loc)
                if type(req) is SendRequest:
                    self.emit("wait_send", ref=ref)
                    continue
                self.emit("wait_recv", ref=ref)
                name = f"msg@{_short(self.loc)}"
                received.append(self.stand_in(Block(name, SymSize(name=name), None)))
            elif code != CHARGE:
                if code == SEND:
                    req = self.isend(op[1], op[3], op[2])
                elif code == RECV:
                    req = self.irecv(*op[1:])
                elif code == POST:
                    req = op[1]
                else:
                    raise StaticExtractionError(f"op is not statically known ({op!r})", self.loc)
                self._post(req)
                reqs.append(req)
        return received

    def _post(self, req) -> None:
        if type(req) is SendRequest:
            self._sends += 1
            ref, kind, peer = self._sends, "post_send", req.dest
            size, dtype = self._payload_info(req.payload)
        else:
            self._recvs += 1
            ref, kind, peer = self._recvs, "post_recv", req.source
            # what middleware declares derives from its stand-ins, save
            # the one-byte synchronization message
            declared = self._at is None or req.expect_dtype == "bytes"
            nbytes, dtype = req.expect_nbytes, req.expect_dtype
            size = SymSize(value=nbytes) if declared and isinstance(nbytes, int) else SymSize()
            dtype = dtype if declared and isinstance(dtype, str) else None
        self._posted[req] = ref
        self.emit(
            kind, peer=peer, tag=req.tag, abs_tag=self._abs_tag(req.tag),
            size=size, dtype=dtype, ref=ref,
        )

    def _payload_info(self, payload) -> tuple[SymSize, str | None]:
        payload = self.symbolic(payload)
        if isinstance(payload, bytes):
            return SymSize(value=len(payload)), "bytes"
        if isinstance(payload, Block):
            return payload.size, payload.dtype
        return SymSize(name=f"?@{_short(self.loc)}"), None

    def _abs_tag(self, tag) -> int:
        if isinstance(tag, SymTag):
            return tag.absolute(COLLECTIVE_TAG_BASE)
        if isinstance(tag, int):
            return tag
        raise StaticExtractionError(
            f"message tag is not statically known ({self.symbolic(tag)!r})", self.loc
        )


class _AbstractMW(Middleware):
    """Contract-extraction middleware: records op names, expands nothing."""

    def barrier(self, ep):
        return self._op(ep, "barrier", None)

    def allreduce(self, ep, array, op=np.add):
        return self._op(ep, "allreduce", UNKNOWN)

    def allgatherv(self, ep, block):
        return self._op(ep, "allgatherv", [UNKNOWN] * ep.size)

    def alltoallv(self, ep, send_blocks):
        return self._op(ep, "alltoallv", [UNKNOWN] * ep.size)

    def exchange(self, ep, dest, payload, source, tag=0):
        return self._op(ep, "exchange", UNKNOWN)

    @staticmethod
    def _op(ep: _RecordingEndpoint, name: str, result):
        ep.emit("mw", op=name)
        yield from ()
        return result


# ---------------------------------------------------------------------------
# module registry: parse the rank-program modules from source by path


@dataclass
class ClassValue:
    name: str
    methods: dict  # name -> ast.FunctionDef
    consts: dict
    properties: frozenset
    module: "ModuleCtx"


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
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _fold_const(node.operand)
        if _is_concrete(v) and not isinstance(v, (str, bytes)):
            return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        left, right = _fold_const(node.left), _fold_const(node.right)
        if _is_concrete(left) and _is_concrete(right):
            try:
                return _apply_binop(node.op, left, right)
            except Exception:
                return UNKNOWN
    if isinstance(node, (ast.Tuple, ast.List)):
        items = [_fold_const(e) for e in node.elts]
        if all(i is not UNKNOWN for i in items):
            return tuple(items) if isinstance(node, ast.Tuple) else items
    return UNKNOWN


def _apply_binop(op: ast.operator, a, b):
    if isinstance(op, ast.Add):
        return a + b
    if isinstance(op, ast.Sub):
        return a - b
    if isinstance(op, ast.Mult):
        return a * b
    if isinstance(op, ast.Div):
        return a / b
    if isinstance(op, ast.FloorDiv):
        return a // b
    if isinstance(op, ast.Mod):
        return a % b
    raise TypeError(f"unsupported operator {op!r}")


class Registry:
    """The parsed rank-program modules, loaded once per process."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleCtx] = {}
        root = Path(__file__).resolve().parents[1]  # src/repro
        for dotted in _ANALYZED_MODULES:
            path = root / Path(*dotted.split(".")[1:]).with_suffix(".py")
            self.modules[dotted] = self._module_ctx(path.read_text(), dotted, str(path))
        self._resolve_imports()

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
        methods, consts, props = {}, {}, set()
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                methods[item.name] = item
                for dec in item.decorator_list:
                    if isinstance(dec, ast.Name) and dec.id == "property":
                        props.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                tgt = item.targets[0] if isinstance(item, ast.Assign) else item.target
                value = item.value
                if isinstance(tgt, ast.Name) and value is not None:
                    folded = _fold_const(value)
                    if folded is not UNKNOWN:
                        consts[tgt.id] = folded
        return ClassValue(node.name, methods, consts, frozenset(props), ctx)

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
        return self._module_ctx(source, f"<fixture:{path}>", path)


_REGISTRY: Registry | None = None


def _registry() -> Registry:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = Registry()
    return _REGISTRY


# ---------------------------------------------------------------------------
# model objects: python stand-ins for the rank programs' numeric machinery


class _CostModel:
    """Every cost-model query yields an unknown (but effect-free) number."""

    def getattr(self, name: str):
        return _ANY_FUNC


class _MeshModel:
    """ChargeMesh: spread produces the rank's slab payload symbolically."""

    def getattr(self, name: str):
        if name == "spread":
            return lambda *a, **k: Block("pme.q_slab", SymSize(name="pme_slab"), "float64")
        if name == "last_workload":
            return _Opaque({"scattered_points": UNKNOWN})
        return _ANY_FUNC


class _SlabsModel:
    """SlabDecomposition: split() yields p per-destination blocks."""

    def __init__(self, p: int, label: str) -> None:
        self.p = p
        self.label = label

    def getattr(self, name: str):
        if name == "split":
            return lambda *a, **k: [
                Block(f"{self.label}.split[{i}]", SymSize(name=f"{self.label}[{i}]"), None)
                for i in range(self.p)
            ]
        if name == "plane_range":
            return lambda *a, **k: (UNKNOWN, UNKNOWN)
        return _ANY_FUNC


class _ClassicModel:
    """ParallelClassic: pure compute, no communication (its contract)."""

    def getattr(self, name: str):
        if name == "compute":
            return lambda *a, **k: _Opaque(
                {
                    "forces": Block("classic.forces", SymSize(name="forces"), "float64"),
                    "energies": UNKNOWN,
                    "n_pairs": UNKNOWN,
                    "n_terms": UNKNOWN,
                }
            )
        return _ANY_FUNC


# ---------------------------------------------------------------------------
# interpreted instances (objects of analyzed classes)


class Instance:
    """An object of an analyzed (AST) class: attrs + interpreted methods."""

    def __init__(self, cls: ClassValue, attrs: dict | None = None) -> None:
        self.cls = cls
        self.attrs = dict(attrs or {})


class _BoundMethod:
    def __init__(self, instance: Instance, func: ast.FunctionDef) -> None:
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
_COMM_NAMES = frozenset(
    {
        "isend", "irecv", "send", "recv", "sendrecv", "batch", "next_collective_tag",
        "barrier", "allreduce", "allgatherv", "alltoallv", "bcast", "reduce",
        "sync", "wait", "reciprocal", "forward", "inverse", "exchange",
    }
)


def _has_comm_effects(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            name = fn.attr if isinstance(fn, ast.Attribute) else (
                fn.id if isinstance(fn, ast.Name) else None
            )
            if name in _COMM_NAMES:
                return True
    return False


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
            func, module, self_obj = fv.func, fv.instance.cls.module, fv.instance
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
        local: dict = {}
        pos = list(args)
        if self_obj is not None:
            pos = [self_obj] + pos
        for i, name in enumerate(names):
            if i < len(pos):
                local[name] = pos[i]
        # defaults for trailing positional params
        defaults = a.defaults
        for i, dflt in enumerate(defaults):
            name = names[len(names) - len(defaults) + i]
            if name not in local:
                local[name] = self._eval(dflt, _Frame(module, {}))
        for arg, dflt in zip(a.kwonlyargs, a.kw_defaults):
            if dflt is not None:
                local[arg.arg] = self._eval(dflt, _Frame(module, {}))
            else:
                local[arg.arg] = UNKNOWN
        for k, v in kwargs.items():
            local[k] = v
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
            if _is_concrete(v) and not isinstance(v, (str, bytes)):
                try:
                    if isinstance(node.op, ast.USub):
                        return -v
                    if isinstance(node.op, ast.UAdd):
                        return +v
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
        if isinstance(obj, (_Opaque, _NP, _CostModel, _MeshModel, _SlabsModel, _ClassicModel)):
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

    def _binop(self, op: ast.operator, left, right):
        try:
            if (_is_concrete(left) or isinstance(left, (list, tuple))) and (
                _is_concrete(right) or isinstance(right, (list, tuple))
            ):
                return _apply_binop(op, left, right)
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
        result = True
        for op, comp in zip(node.ops, node.comparators):
            right = self._eval(comp, frame)
            one = self._compare_one(op, left, right)
            if one is UNKNOWN:
                return UNKNOWN
            if not one:
                return False
            left = right
        return result

    @staticmethod
    def _definitely_not_none(v) -> bool:
        return isinstance(v, (Block, SymTag, SymSize, Instance, _Opaque, _RecordingEndpoint,
                              Middleware, int, float, str, bytes, list, tuple, dict,
                              _MeshModel, _SlabsModel, _ClassicModel, _CostModel))

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
        if _is_concrete(left) and _is_concrete(right):
            try:
                if isinstance(op, ast.Eq):
                    return left == right
                if isinstance(op, ast.NotEq):
                    return left != right
                if isinstance(op, ast.Lt):
                    return left < right
                if isinstance(op, ast.LtE):
                    return left <= right
                if isinstance(op, ast.Gt):
                    return left > right
                if isinstance(op, ast.GtE):
                    return left >= right
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
        # a model or builtin that does yields UNKNOWN
        owner = getattr(func, "__self__", None)
        real = owner is self.ep or isinstance(owner, (Middleware, SendRequest, RecvRequest))
        if isinstance(owner, Middleware):
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

    def _construct(self, cls: ClassValue, args, kwargs):
        factory = _CLASS_MODELS.get(cls.name)
        if factory is not None:
            return factory(self, args, kwargs)
        # generic: attributes from keyword arguments; __init__ is NOT
        # interpreted (the analyzed constructors are numeric setup)
        return Instance(cls, dict(kwargs))


# ---------------------------------------------------------------------------
# builtins and class models


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
    "sum": lambda *a, **k: UNKNOWN,
    "sorted": lambda x=(), **k: sorted(x) if isinstance(x, (list, tuple, range)) else UNKNOWN,
    "isinstance": lambda *a, **k: UNKNOWN,
    "print": lambda *a, **k: None,
    "divmod": lambda a=0, b=1: divmod(a, b) if _is_concrete(a) and _is_concrete(b) else UNKNOWN,
    "ValueError": _ANY_FUNC,
    "TypeError": _ANY_FUNC,
    "RuntimeError": _ANY_FUNC,
    "AssertionError": _ANY_FUNC,
}


def _make_parallel_pme(interp: Interp, args, kwargs) -> Instance:
    """ParallelPME with numeric members replaced by symbolic models.

    The *methods* (``reciprocal``, ``_stencil_for``) are interpreted from
    the real AST — only the constructor's numpy setup is modelled.
    """
    reg = interp.registry
    ppme_cls = reg.modules["repro.parallel.ppme"].globals["ParallelPME"]
    fft_cls = reg.modules["repro.parallel.pfft"].globals["DistributedFFT"]
    rank = kwargs.get("rank", 0)
    p = kwargs.get("n_ranks", 1)
    if not isinstance(rank, int):
        rank = 0
    if not isinstance(p, int):
        p = 1
    fft = Instance(
        fft_cls,
        {
            "grid_shape": UNKNOWN,
            "n_ranks": p,
            "rank": rank,
            "cost": _CostModel(),
            "x_slabs": _SlabsModel(p, "fft.x"),
            "y_slabs": _SlabsModel(p, "fft.y"),
        },
    )
    return Instance(
        ppme_cls,
        {
            "pme": _Opaque({"grid_shape": UNKNOWN, "total_points": UNKNOWN, "alpha": UNKNOWN}),
            "box": UNKNOWN,
            "rank": rank,
            "n_ranks": p,
            "cost": _CostModel(),
            "charges": UNKNOWN,
            "shared": None,
            "fft": fft,
            "mesh": _MeshModel(),
            "my_exclusions": UNKNOWN,
            "self_energy_share": UNKNOWN,
            "psi_slab": UNKNOWN,
        },
    )


_CLASS_MODELS = {
    "ParallelClassic": lambda interp, args, kwargs: _ClassicModel(),
    "ParallelPME": _make_parallel_pme,
    "NeighborList": lambda interp, args, kwargs: UNKNOWN,
}


# ---------------------------------------------------------------------------
# progress engine: match the per-rank micro-op streams


def _rel(path: str) -> str:
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except Exception:
        return path


def _simulate(ops_by_rank: list[list[MicroOp]]):
    """Match sends to receives under conservative rendezvous semantics.

    Returns ``(rule, group_key, message, loc)`` findings.  All sends are
    rendezvous: a wait_send only completes once the matching receive is
    posted, so any program whose completion depends on eager buffering
    is reported as deadlocked (MPI calls such programs unsafe).
    """
    p = len(ops_by_rank)
    findings: list[tuple[str, tuple, str, tuple[str, int]]] = []
    sends: dict[tuple, list[dict]] = {}
    recvs: dict[tuple, list[dict]] = {}
    send_by_ref: list[dict[int, dict]] = [{} for _ in range(p)]
    recv_by_ref: list[dict[int, dict]] = [{} for _ in range(p)]
    pc = [0] * p

    def check_agreement(send: dict, recv: dict) -> None:
        sop, rop = send["op"], recv["op"]
        ssz, rsz = sop.size, rop.size
        if ssz is not None and rsz is not None and ssz.concrete and rsz.concrete:
            if ssz.value != rsz.value:
                findings.append((
                    "REP405", ("REP405", rop.loc, "size"),
                    f"rank {send['rank']} sends {ssz} to rank {recv['rank']} "
                    f"(tag {sop.tag}) but the receiver declares {rsz}",
                    rop.loc,
                ))
        if sop.dtype is not None and rop.dtype is not None and sop.dtype != rop.dtype:
            findings.append((
                "REP405", ("REP405", rop.loc, "dtype"),
                f"rank {send['rank']} sends dtype {sop.dtype} to rank {recv['rank']} "
                f"(tag {sop.tag}) but the receiver declares {rop.dtype}",
                rop.loc,
            ))

    def match(send: dict, recv: dict) -> None:
        send["matched"] = True
        recv["matched"] = True
        check_agreement(send, recv)

    progressed = True
    while progressed:
        progressed = False
        for r in range(p):
            ops = ops_by_rank[r]
            while pc[r] < len(ops):
                op = ops[pc[r]]
                if op.kind in ("collective", "mw"):
                    pc[r] += 1
                elif op.kind == "post_send":
                    key = (r, op.peer, op.abs_tag)
                    entry = {"rank": r, "op": op, "matched": False}
                    queue = sends.setdefault(key, [])
                    if any(not e["matched"] for e in queue):
                        findings.append((
                            "REP404", ("REP404", op.loc),
                            f"rank {r} posts a second in-flight send to rank "
                            f"{op.peer} with tag {op.tag} before the first is "
                            "received (FIFO match order is ambiguous)",
                            op.loc,
                        ))
                    pending = next(
                        (e for e in recvs.get(key, []) if not e["matched"]), None
                    )
                    queue.append(entry)
                    send_by_ref[r][op.ref] = entry
                    if pending is not None:
                        match(entry, pending)
                    pc[r] += 1
                elif op.kind == "post_recv":
                    key = (op.peer, r, op.abs_tag)
                    entry = {"rank": r, "op": op, "matched": False}
                    pending = next(
                        (e for e in sends.get(key, []) if not e["matched"]), None
                    )
                    recvs.setdefault(key, []).append(entry)
                    recv_by_ref[r][op.ref] = entry
                    if pending is not None:
                        match(pending, entry)
                    pc[r] += 1
                elif op.kind == "wait_send":
                    if not send_by_ref[r][op.ref]["matched"]:
                        break
                    pc[r] += 1
                elif op.kind == "wait_recv":
                    if not recv_by_ref[r][op.ref]["matched"]:
                        break
                    pc[r] += 1
                else:  # pragma: no cover - emitter and engine share the kinds
                    raise AssertionError(f"unknown micro-op kind {op.kind}")
                progressed = True

    stalled = [r for r in range(p) if pc[r] < len(ops_by_rank[r])]
    if stalled:
        findings.extend(_explain_stall(ops_by_rank, pc, stalled, send_by_ref, recv_by_ref))
        return findings

    # clean finish: fire-and-forget posts that never matched
    for queue in sends.values():
        for e in queue:
            if not e["matched"]:
                op = e["op"]
                findings.append((
                    "REP402", ("REP402", op.loc),
                    f"rank {e['rank']} sends to rank {op.peer} with tag {op.tag} "
                    "but no rank ever posts the matching receive",
                    op.loc,
                ))
    for queue in recvs.values():
        for e in queue:
            if not e["matched"]:
                op = e["op"]
                findings.append((
                    "REP403", ("REP403", op.loc),
                    f"rank {e['rank']} expects a message from rank {op.peer} with "
                    f"tag {op.tag} but no rank ever sends it",
                    op.loc,
                ))
    return findings


def _explain_stall(ops_by_rank, pc, stalled, send_by_ref, recv_by_ref):
    """Wait-for analysis of a stalled schedule: cycles and dead peers."""
    p = len(ops_by_rank)
    findings = []
    waits_on: dict[int, tuple[int, MicroOp]] = {}
    for r in stalled:
        op = ops_by_rank[r][pc[r]]
        entry = (send_by_ref if op.kind == "wait_send" else recv_by_ref)[r][op.ref]
        waits_on[r] = (entry["op"].peer, op)

    reported_cycles: set[frozenset] = set()
    for start in stalled:
        # directly blocked on a rank that already finished: the message
        # can never arrive — an unmatched send/recv, not a deadlock
        peer, op = waits_on[start]
        blocked_entry = ops_by_rank[start][pc[start]]
        post = (send_by_ref if blocked_entry.kind == "wait_send" else recv_by_ref)[start][
            blocked_entry.ref
        ]["op"]
        if peer not in waits_on:
            if blocked_entry.kind == "wait_recv":
                findings.append((
                    "REP403", ("REP403", post.loc),
                    f"rank {start} waits for a message from rank {post.peer} with "
                    f"tag {post.tag} that is never sent",
                    post.loc,
                ))
            else:
                findings.append((
                    "REP402", ("REP402", post.loc),
                    f"rank {start} waits for rank {post.peer} to receive its send "
                    f"with tag {post.tag}, but the matching receive is never posted",
                    post.loc,
                ))
            continue
        # follow the (functional) wait-for chain looking for a cycle
        chain = []
        seen_at: dict[int, int] = {}
        node = start
        while node in waits_on and node not in seen_at:
            seen_at[node] = len(chain)
            chain.append(node)
            node = waits_on[node][0]
        if node in seen_at:
            cycle = chain[seen_at[node]:]
            locs = frozenset(waits_on[r][1].loc for r in cycle)
            if locs not in reported_cycles:
                reported_cycles.add(locs)
                desc = " -> ".join(
                    f"rank {r} (tag "
                    f"{(send_by_ref if waits_on[r][1].kind == 'wait_send' else recv_by_ref)[r][waits_on[r][1].ref]['op'].tag})"
                    for r in cycle
                )
                loc = waits_on[cycle[0]][1].loc
                findings.append((
                    "REP401", ("REP401", locs),
                    f"rendezvous wait-for cycle across ranks "
                    f"{sorted(cycle)}: {desc}",
                    loc,
                ))
    return findings


def _collective_divergence(ops_by_rank: list[list[MicroOp]]):
    """Cross-rank identity of the collective/middleware op sequence."""
    colls = [[op for op in ops if op.kind in ("collective", "mw")] for ops in ops_by_rank]
    seqs = [[op.op for op in ops] for ops in colls]
    for r, seq in enumerate(seqs[1:], start=1):
        if seq != seqs[0]:
            n = min(len(seq), len(seqs[0]))
            at = next((i for i in range(n) if seq[i] != seqs[0][i]), n)
            # rank r's op where it diverges, or rank 0's where rank r stopped
            loc = (colls[r] if at < len(seq) else colls[0])[at].loc
            return [(
                "REP406", ("REP406", "divergence", at),
                f"collective sequence diverges: rank 0 issues {seqs[0][at] if at < len(seqs[0]) else '<end>'} "
                f"at position {at}, rank {r} issues {seq[at] if at < len(seq) else '<end>'}",
                loc,
            )]  # one divergence report per p is enough
    return []


# ---------------------------------------------------------------------------
# instantiation drivers and p-condition grouping


def _verify_instantiations(make_ops, bound: int) -> list[Diagnostic]:
    """Run ``make_ops(p)`` for p = 1..bound; group findings symbolically."""
    groups: dict[tuple, dict] = {}

    def add(finding, p: int) -> None:
        rule, key, message, loc = finding
        g = groups.setdefault(key, {"rule": rule, "message": message, "loc": loc, "ps": set()})
        g["ps"].add(p)

    for p in range(1, bound + 1):
        try:
            ops = make_ops(p)
        except StaticExtractionError as exc:
            loc = exc.loc or ("<program>", 0)
            add(("REP406", ("REP406", "extract", loc), f"cannot statically extract the schedule: {exc}", loc), p)
            continue
        for f in _simulate(ops):
            add(f, p)
        for f in _collective_divergence(ops):
            add(f, p)

    out = []
    for g in groups.values():
        rule = g["rule"]
        path, line = g["loc"]
        out.append(
            Diagnostic(
                rule=rule,
                message=g["message"],
                path=_rel(path),
                line=line or None,
                severity=RULES[rule].severity,
                p_condition=summarize_p_set(g["ps"], bound),
            )
        )
    out.sort(key=lambda d: (d.rule, d.path or "", d.line or 0))
    return out


def _interpret_ranks(reg: Registry, p: int, entry: FuncValue, kwargs) -> list[list[MicroOp]]:
    """Interpret ``entry(ep, **kwargs())`` once per rank of a p-rank run."""
    ops = []
    for rank in range(p):
        interp = Interp(reg, rank, p)
        interp.call(entry, [interp.ep], kwargs())
        ops.append(interp.ep.ops)
    return ops


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


def _middleware(name: str) -> Middleware:
    """The real middleware of one design level, or the abstract one."""
    from ..parallel.run import make_middleware  # runtime-only: see module docstring

    return _AbstractMW() if name == "abstract" else make_middleware(name)


def _run_spatial_rank_program(
    reg: Registry, middleware: str, p: int, n_steps: int, lengths, r_cut: float
):
    """Extract the per-rank micro-op streams of one spatial instantiation.

    The rank program's control flow depends only on the decomposition's
    ``grid`` and ``pulses`` tuples, so those two concrete values (from
    the *real* :class:`~repro.parallel.spatial.decomposition.SpatialDecomposition`
    geometry) are all the interpreter needs — the engine stays fully
    opaque and every physics call evaluates to UNKNOWN.
    """
    decomp = _spatial_decomposition(lengths, r_cut, p)
    entry = reg.modules["repro.parallel.spatial.program"].globals["spatial_rank_program"]
    return _interpret_ranks(reg, p, entry, lambda: {
        "mw": _middleware(middleware),
        "decomp": _Opaque({"grid": tuple(decomp.grid), "pulses": tuple(decomp.pulses)}),
        "engine": UNKNOWN,
        "config": _Opaque({"n_steps": n_steps, "barrier_per_step": True, "dt": 0.0005}),
    })


def _run_rank_program(reg: Registry, strategy: str, middleware: str, p: int, n_steps: int):
    """Extract the per-rank micro-op streams of one pmd instantiation."""
    if strategy not in ("pclassic", "ppme"):
        raise ValueError(f"unknown strategy {strategy!r}")
    entry = reg.modules["repro.parallel.pmd"].globals["rank_program"]
    return _interpret_ranks(reg, p, entry, lambda: {
        "mw": _middleware(middleware),
        "system": _Opaque({"uses_pme": strategy == "ppme"}),
        "decomp": UNKNOWN,
        "cost": _CostModel(),
        "config": _Opaque({"n_steps": n_steps, "barrier_per_step": True, "dt": 0.0005}),
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
    reg = _registry()
    if strategy == "spatial":
        diagnostics: list[Diagnostic] = []
        for _name, lengths, r_cut in SPATIAL_PROFILES:
            diagnostics.extend(
                _verify_instantiations(
                    lambda p, _l=lengths, _r=r_cut: _run_spatial_rank_program(
                        reg, middleware, p, n_steps, _l, _r
                    ),
                    bound,
                )
            )
        return diagnostics
    return _verify_instantiations(
        lambda p: _run_rank_program(reg, strategy, middleware, p, n_steps), bound
    )


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
        def make_ops(p, _op=getattr(owner, name), _args=_COLLECTIVE_ARGS[name]):
            ops = []
            for rank in range(p):
                ep = _RecordingEndpoint(rank, p)
                ep.drive(_op(ep, *ep.stand_in(_args(p))))
                ops.append(ep.ops)
            return ops

        diagnostics.extend(_verify_instantiations(make_ops, bound))
    return diagnostics


def extract_strategy_collective_ops(
    strategy: str, p: int, n_steps: int = 1, profile: str | None = None
) -> list[list[str]]:
    """The per-rank middleware-op sequences under the abstract middleware.

    For the spatial strategy ``profile`` names the box profile (default:
    the first entry of :data:`SPATIAL_PROFILES`).
    """
    reg = _registry()
    if strategy == "spatial":
        _name, lengths, r_cut = _spatial_profile(profile or SPATIAL_PROFILES[0][0])
        ops = _run_spatial_rank_program(reg, "abstract", p, n_steps, lengths, r_cut)
    else:
        ops = _run_rank_program(reg, strategy, "abstract", p, n_steps)
    return [[op.op for op in rank_ops if op.kind == "mw"] for rank_ops in ops]


def verify_contract_conformance(
    strategy: str, ps: tuple[int, ...] = (1, 2, 3, 4, 5, 8), n_steps: int = 1
) -> list[Diagnostic]:
    """Check the extracted schedule against the declared contract (REP406).

    The spatial contract is the *declared*
    :meth:`~repro.parallel.spatial.decomposition.SpatialDecomposition.schedule_contract`
    of the real geometry, per (profile, p) since halo depths depend on
    both; every rank's abstractly extracted middleware ops must match it.
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
                diagnostics.append(
                    Diagnostic(
                        rule="REP406",
                        message=(
                            f"strategy {label}, rank {rank}) issues {seq} per run but "
                            f"contract {contract.name!r} promises {expected}"
                        ),
                        path=path,
                        severity=RULES["REP406"].severity,
                        p_condition=f"p in {{{p}}}",
                    )
                )
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
    fv = None
    if entry is not None:
        fv = ctx.globals.get(entry)
    elif "rank_program" in ctx.globals:
        fv = ctx.globals["rank_program"]
    else:
        for value in ctx.globals.values():
            if isinstance(value, FuncValue) and value.node.args.args:
                if value.node.args.args[0].arg == "ep":
                    fv = value
                    break
    if not isinstance(fv, FuncValue):
        raise ValueError(f"no rank program found in {path}")
    takes_mw = any(arg.arg == "mw" for arg in fv.node.args.args)
    return _verify_instantiations(
        lambda p: _interpret_ranks(
            reg, p, fv, lambda: {"mw": MPIMiddleware()} if takes_mw else {}
        ),
        bound,
    )


# ---------------------------------------------------------------------------
# static-vs-executed cross-check


def static_step_events(
    strategy: str = "ppme", middleware: str = "mpi", p: int = 8, n_steps: int = 1,
    profile: str | None = None,
) -> list[list[tuple]]:
    """Per-rank trace-comparable events: (kind, peer, tag, op, nbytes, dtype).

    ``nbytes``/``dtype`` are ``None`` where the static schedule is
    symbolic; the cross-check skips those fields.  Collectives use
    peer -1 and carry the op name, mirroring
    :class:`~repro.instrument.commstats.CommEvent`.  ``profile`` selects
    the box profile for the spatial strategy.
    """
    reg = _registry()
    if strategy == "spatial":
        _name, lengths, r_cut = _spatial_profile(profile or SPATIAL_PROFILES[0][0])
        ops = _run_spatial_rank_program(reg, middleware, p, n_steps, lengths, r_cut)
    else:
        ops = _run_rank_program(reg, strategy, middleware, p, n_steps)
    out: list[list[tuple]] = []
    for rank_ops in ops:
        events = []
        for op in rank_ops:
            if op.kind == "collective":
                events.append(("collective", -1, COLLECTIVE_TAG_BASE + 16 * op.invocation, op.op, None, None))
            elif op.kind == "post_send":
                nbytes = op.size.value if op.size is not None and op.size.concrete else None
                events.append(("send", op.peer, op.abs_tag, "", nbytes, op.dtype))
            elif op.kind == "post_recv":
                nbytes = op.size.value if op.size is not None and op.size.concrete else None
                events.append(("recv", op.peer, op.abs_tag, "", nbytes, op.dtype))
        out.append(events)
    return out


def crosscheck_against_trace(
    trace, strategy: str = "ppme", middleware: str = "mpi", p: int = 8, n_steps: int = 1,
    profile: str | None = None,
) -> list[str]:
    """Compare an executed CommTrace against the static schedule.

    Returns human-readable problem strings (empty = event-for-event
    match).  Kind, peer, tag and collective-op name are compared
    strictly; payload bytes and dtype only where the static side is
    concrete.  ``profile`` selects the spatial box profile.
    """
    static = static_step_events(strategy, middleware, p, n_steps, profile=profile)
    problems: list[str] = []
    for rank in range(p):
        executed = [e for e in trace.events if e.rank == rank]
        expected = static[rank]
        if len(executed) != len(expected):
            problems.append(
                f"rank {rank}: static schedule has {len(expected)} events, "
                f"executed trace has {len(executed)}"
            )
        for i, (ev, ex) in enumerate(zip(executed, expected)):
            kind, peer, tag, op, nbytes, dtype = ex
            got = (ev.kind, ev.peer, ev.tag, ev.op if kind == "collective" else "")
            want = (kind, peer, tag, op)
            if got != want:
                problems.append(f"rank {rank} event {i}: static {want} != executed {got}")
                break
            if nbytes is not None and ev.nbytes not in (-1, nbytes):
                problems.append(
                    f"rank {rank} event {i}: static {nbytes} bytes != executed {ev.nbytes}"
                )
            if dtype is not None and ev.dtype not in ("", dtype):
                problems.append(
                    f"rank {rank} event {i}: static dtype {dtype} != executed {ev.dtype}"
                )
    return problems
