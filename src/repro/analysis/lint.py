"""AST lint for the coroutine-collective protocol and its determinism.

The whole communication layer is built from generator coroutines driven
with ``yield from`` (see :mod:`repro.sim.engine`): an endpoint or
middleware method that is *called* but not *yielded from* creates a
generator object and throws it away — the communication silently never
happens and the run produces wrong timings instead of a crash.  This
module walks source files with :mod:`ast` and flags that class of bug
plus the reproducibility hazards around it.

Rules (see :mod:`repro.analysis.rules` for the registry):

* **REP101** — a protocol generator (``ep.compute``/``ep.send``/
  ``mw.allreduce``/``collectives.barrier``/``req.wait``/...) called
  without ``yield from``;
* **REP105** — a protocol generator assigned to a local name that the
  enclosing scope never consumes (no ``yield from``, no driver hand-off,
  no read at all).  Assignment alone is deferred judgement, not
  consumption: ``g = ep.compute(1.0)`` is fine when ``sim.spawn(g)`` or
  ``yield from g`` follows, and flagged when nothing ever reads ``g``;
* **REP102** — a data-moving collective (``allreduce``, ``allgatherv``,
  ``alltoallv``, ``bcast``, ``recv``) yielded from as a bare statement,
  discarding the result every caller depends on;
* **REP103** — unseeded randomness (``np.random.default_rng()`` with no
  seed, the legacy ``np.random.*`` global generator, or the stdlib
  ``random`` module) — breaks the reproducibility of the Figure-7
  variability statistics;
* **REP104** — wall-clock calls (``time.time()``/``perf_counter``/
  ``datetime.now``) inside virtual-time code.

The same walk guards the bit-identical-results invariant against the
ways Python leaks host state into a simulation (the determinism rules):

* **REP503** — bare iteration over an unordered set expression
  (``for x in set(..) | set(..)``): set order is hash-order, which
  varies with ``PYTHONHASHSEED`` for strings and with pointer values for
  objects.  Wrapping the set in ``sorted(...)`` fixes the order;
* **REP504** — float accumulation (``sum``/``math.fsum``/``np.sum``/
  ``functools.reduce``) whose iteration order is an unordered set:
  float addition is not associative, so hash order leaks into energies;
* **REP505** — process- or host-dependent values (``os.getpid``,
  ``uuid.uuid4``, ``socket.gethostname``, ``id()``, ``hash()``) inside
  the packages that run under virtual time
  (:data:`VIRTUAL_TIME_PACKAGES`); the tooling layers may know their host.

Protocol calls are recognised by the repo's naming conventions
(receivers named ``ep``/``endpoint``, ``mw``/``middleware``, the
``collectives`` module, ``*req`` request handles, and ``self`` inside
``*Middleware``/``*Endpoint`` classes).  The analyzer has one
suppression mechanism, this module's: an intentional exception carries
a trailing ``# repro: noqa[REPxxx]`` (or ``# noqa: REPxxx``) comment
with its reason on that line (:func:`inline_suppressions`), and whole
files (golden bad-program fixtures) opt out with a
``# repro-analyze: skip-file`` marker in their first lines.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

from .rules import ERROR, Diagnostic

__all__ = [
    "lint_source", "lint_paths", "inline_suppressions", "SKIP_MARKER",
    "VIRTUAL_TIME_PACKAGES", "is_virtual_time_path",
]

#: Files whose first lines contain this marker are skipped by
#: :func:`lint_paths` (used for the golden bad-program test fixtures).
SKIP_MARKER = "repro-analyze: skip-file"

#: ``# repro: noqa[REP503]`` / ``# repro: noqa[REP503, REP504]`` /
#: ``# repro: noqa`` (bare = suppress everything on the line)
_REPRO_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9, ]+)\])?", re.IGNORECASE
)
#: the widespread flake8 spelling, honoured for compatibility
_LEGACY_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE
)


def inline_suppressions(line: str) -> set[str] | None:
    """Rule codes suppressed on this line, or None when no noqa comment.

    An empty set means "suppress every rule on this line".
    """
    m = _REPRO_NOQA_RE.search(line) or _LEGACY_NOQA_RE.search(line)
    if m is None:
        return None
    codes = m.group("codes")
    if not codes:
        return set()
    return {c.strip().upper() for c in codes.split(",") if c.strip()}


#: Sub-packages of ``repro`` whose code runs under the simulated clock.
#: Host-identity reads there (REP505) poison virtual timings.
VIRTUAL_TIME_PACKAGES = frozenset(
    {"sim", "mpi", "cmpi", "parallel", "md", "pme", "cluster"}
)

# ---------------------------------------------------------------------------
# protocol tables (the repo's coroutine-collective conventions)

_ENDPOINT_RECEIVERS = {"ep", "endpoint"}
_ENDPOINT_METHODS = {"compute", "send", "recv", "sendrecv", "isend", "irecv", "batch"}

_MIDDLEWARE_RECEIVERS = {"mw", "middleware"}
_MIDDLEWARE_METHODS = {"barrier", "allreduce", "allgatherv", "alltoallv", "sync"}

_COLLECTIVE_MODULE = "collectives"
_COLLECTIVE_FUNCS = {"barrier", "allreduce", "allgatherv", "alltoallv", "bcast", "reduce"}

#: Collectives whose entire purpose is the returned data: discarding the
#: result of a ``yield from`` of one of these is REP102.  Point-to-point
#: ``recv`` is excluded: receive-and-ignore is a legitimate
#: synchronization idiom (one-byte control messages).
_VALUE_RETURNING = {"allreduce", "allgatherv", "alltoallv", "bcast"}

#: Functions a bare (non-yielded) generator may legitimately be passed
#: to: simulator drivers and explicit generator consumers.
_DRIVER_FUNCS = {"spawn", "drive", "drive_all", "run_generator", "list", "next", "iter"}

_LEGACY_NP_RANDOM = {
    "rand", "randn", "random", "randint", "seed", "choice", "shuffle",
    "normal", "uniform", "permutation", "random_sample", "standard_normal",
    "exponential", "poisson", "binomial",
}
_STDLIB_RANDOM = {
    "random", "randint", "uniform", "choice", "choices", "shuffle",
    "gauss", "randrange", "sample", "seed", "betavariate", "expovariate",
}
_WALLCLOCK_TIME = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

#: dotted call -> what it leaks (REP505, virtual-time packages only)
_HOST_DEPENDENT = {
    "os.getpid": "the process id",
    "os.getppid": "the parent process id",
    "os.urandom": "kernel entropy",
    "uuid.uuid1": "host MAC address and wall clock",
    "uuid.uuid4": "kernel entropy",
    "platform.node": "the hostname",
    "socket.gethostname": "the hostname",
    "socket.gethostbyname": "host DNS state",
}

#: REP504's order-sensitive float accumulators
_ACCUMULATORS = {"sum", "fsum", "math.fsum", "np.sum", "numpy.sum"}
_REDUCERS = {"reduce", "functools.reduce"}


def is_virtual_time_path(path: str | Path) -> bool:
    """Does this file live in a package that runs under the virtual clock?"""
    parts = Path(path).parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in VIRTUAL_TIME_PACKAGES:
            return True
    return False


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for non-trivial receivers."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(func: ast.expr) -> str | None:
    """The simple name a call is made under (``spawn`` in ``sim.spawn(..)``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """Is this expression an unordered set by construction?

    Recognized: set literals, set comprehensions, ``set(..)`` /
    ``frozenset(..)`` calls, and binary combinations (``| & - ^``) of
    recognized set expressions.  ``dict.keys()`` is *not* flagged
    (insertion order is guaranteed).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _ordered_wrapper(node: ast.expr) -> bool:
    """``sorted(...)`` / ``list(sorted(...))`` impose a canonical order."""
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in ("sorted", "min", "max", "len"):
            return True
        if name == "list" and node.args and _ordered_wrapper(node.args[0]):
            return True
    return False


class _Visitor(ast.NodeVisitor):
    """Parent- and class-aware walker collecting diagnostics."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.virtual_time = is_virtual_time_path(path)
        self.diags: list[Diagnostic] = []
        # iter expressions already judged by the accumulation rule
        # (REP504), so the set-iteration rule does not double-report
        self._claimed: set[int] = set()
        self._parents: list[ast.AST] = []
        self._classes: list[str] = []
        # dataflow scopes: pending protocol generators stored in locals,
        # and every name the scope (or a scope nested in it) reads
        self._scopes: list[dict] = [{"pending": {}, "loaded": set()}]

    # -- traversal ------------------------------------------------------
    def visit(self, node: ast.AST) -> None:
        self._parents.append(node)
        try:
            super().visit(node)
        finally:
            self._parents.pop()

    def finish(self) -> None:
        """Flush the module scope after the walk (REP105 at top level)."""
        while self._scopes:
            self._flush_scope()

    def _flush_scope(self) -> None:
        scope = self._scopes.pop()
        for name, (node, label) in scope["pending"].items():
            if name not in scope["loaded"]:
                self._emit(
                    "REP105",
                    node,
                    f"'{name} = {label}(...)' stores a generator nothing ever "
                    f"consumes; 'yield from {name}' (or hand it to sim.spawn)",
                )

    def _visit_scope(self, node: ast.AST) -> None:
        self._scopes.append({"pending": {}, "loaded": set()})
        try:
            self.generic_visit(node)
        finally:
            self._flush_scope()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            # a read anywhere in the live scope chain consumes the name
            # (covers yield-from, driver calls and closure captures alike)
            for scope in self._scopes:
                scope["loaded"].add(node.id)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = [b for base in node.bases if (b := _dotted(base)) is not None]
        label = node.name + "|" + "|".join(bases)
        self._classes.append(label)
        try:
            self.generic_visit(node)
        finally:
            self._classes.pop()

    def _in_class(self, fragment: str) -> bool:
        return any(fragment in label for label in self._classes)

    # -- REP503: bare iteration over an unordered set -------------------
    def _check_iter(self, iter_node: ast.expr, where: ast.AST) -> None:
        if id(iter_node) not in self._claimed and _is_set_expr(iter_node):
            self._emit(
                "REP503",
                where,
                "iteration over an unordered set: Python set order is "
                "hash-order (varies with PYTHONHASHSEED); wrap the set in "
                "sorted(...) for a canonical order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    # a set comprehension over a set still builds a set: order never
    # escapes, so SetComp keeps the default traversal
    def _visit_ordered_comprehension(self, node: ast.expr) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_GeneratorExp = visit_DictComp = _visit_ordered_comprehension

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.diags.append(
            Diagnostic(
                rule=rule,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", None),
                severity=ERROR,
            )
        )

    # -- protocol-generator classification ------------------------------
    def _protocol_call(self, node: ast.Call) -> str | None:
        """Name of the protocol generator this call creates, or None."""
        func = node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            recv = _dotted(func.value)
            leaf = recv.rsplit(".", 1)[-1].lower() if recv else ""
            if method in _ENDPOINT_METHODS and leaf in _ENDPOINT_RECEIVERS:
                return f"{recv}.{method}"
            if method in _MIDDLEWARE_METHODS and leaf in _MIDDLEWARE_RECEIVERS:
                return f"{recv}.{method}"
            if method in _COLLECTIVE_FUNCS and leaf == _COLLECTIVE_MODULE:
                return f"{recv}.{method}"
            if method == "wait" and leaf.endswith("req"):
                return f"{recv}.wait"
            if recv == "self":
                if method in _MIDDLEWARE_METHODS and self._in_class("Middleware"):
                    return f"self.{method}"
                if method in _ENDPOINT_METHODS and self._in_class("Endpoint"):
                    return f"self.{method}"
            return None
        if isinstance(func, ast.Name) and func.id in _COLLECTIVE_FUNCS:
            # bare collective name: only when the first argument is an
            # endpoint by convention (collectives.py internal calls)
            if node.args and isinstance(node.args[0], ast.Name):
                if node.args[0].id.lower() in _ENDPOINT_RECEIVERS:
                    return func.id
        return None

    @staticmethod
    def _assign_target(parent: ast.AST | None, call: ast.Call) -> str | None:
        """Local name this call's generator is stored under, or None."""
        if (
            isinstance(parent, ast.Assign)
            and parent.value is call
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
        ):
            return parent.targets[0].id
        if (
            isinstance(parent, ast.AnnAssign)
            and parent.value is call
            and isinstance(parent.target, ast.Name)
        ):
            return parent.target.id
        if isinstance(parent, ast.NamedExpr) and isinstance(parent.target, ast.Name):
            return parent.target.id
        return None

    def _is_driven(self) -> bool:
        """Is the current call handed to a generator driver (sim.spawn)?"""
        # parents[-1] is the Call itself
        for ancestor in reversed(self._parents[:-1]):
            if isinstance(ancestor, ast.Call):
                name = _call_name(ancestor.func)
                return name in _DRIVER_FUNCS
            if isinstance(ancestor, (ast.keyword, ast.Starred)):
                continue
            break
        return False

    # -- the checks -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        parent = self._parents[-2] if len(self._parents) >= 2 else None

        label = self._protocol_call(node)
        if label is not None:
            if isinstance(parent, ast.YieldFrom):
                grandparent = self._parents[-3] if len(self._parents) >= 3 else None
                method = label.rsplit(".", 1)[-1]
                if isinstance(grandparent, ast.Expr) and method in _VALUE_RETURNING:
                    self._emit(
                        "REP102",
                        node,
                        f"result of collective '{label}' is discarded; every rank "
                        "depends on the combined value — assign it",
                    )
            elif (target := self._assign_target(parent, node)) is not None:
                # assignment defers judgement to scope-level dataflow:
                # flagged at scope exit only if the name is never read
                self._scopes[-1]["pending"][target] = (node, label)
            elif not self._is_driven():
                self._emit(
                    "REP101",
                    node,
                    f"'{label}(...)' creates a generator that is never driven; "
                    "call it with 'yield from' (or hand it to sim.spawn)",
                )

        name = _dotted(node.func)
        if name is not None:
            self._check_randomness(node, name)
            self._check_wallclock(node, name)
            if self.virtual_time:
                self._check_host_dependent(node, name)
            self._check_accumulation(node, name)
        self.generic_visit(node)

    def _check_randomness(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        # np.random.* / numpy.random.*
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            leaf = parts[2]
            if leaf == "default_rng":
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant) and node.args[0].value is None
                )
                if unseeded and not node.keywords:
                    self._emit(
                        "REP103",
                        node,
                        "np.random.default_rng() without a seed: run-to-run "
                        "variability becomes unreproducible",
                    )
            elif leaf in _LEGACY_NP_RANDOM:
                self._emit(
                    "REP103",
                    node,
                    f"legacy global generator np.random.{leaf}(): use a seeded "
                    "np.random.default_rng(seed) instead",
                )
        # stdlib random module
        elif len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RANDOM:
            self._emit(
                "REP103",
                node,
                f"stdlib random.{parts[1]}() is unseeded process-global state; "
                "use np.random.default_rng(seed)",
            )

    def _check_wallclock(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "time" and parts[1] in _WALLCLOCK_TIME:
            self._emit(
                "REP104",
                node,
                f"time.{parts[1]}() reads the host wall clock inside virtual-time "
                "code; use the simulator clock (ep.now / sim.now)",
            )
        elif (
            parts[-1] in _WALLCLOCK_DATETIME
            and len(parts) >= 2
            and parts[-2] in ("datetime", "date")
        ):
            self._emit(
                "REP104",
                node,
                f"{name}() reads the host wall clock inside virtual-time code; "
                "use the simulator clock (ep.now / sim.now)",
            )

    def _check_host_dependent(self, node: ast.Call, name: str) -> None:
        if name in _HOST_DEPENDENT:
            self._emit(
                "REP505",
                node,
                f"{name}() leaks {_HOST_DEPENDENT[name]} into virtual-time "
                "code; derive identity from (rank, seed) instead",
            )
        elif name in ("id", "hash"):
            self._emit(
                "REP505",
                node,
                f"builtin {name}() depends on the process memory "
                "layout / PYTHONHASHSEED; key on an explicit stable field "
                "instead",
            )

    def _check_accumulation(self, node: ast.Call, name: str) -> None:
        if name in _REDUCERS:
            arg_index = 1  # reduce(f, iterable)
        elif name in _ACCUMULATORS:
            arg_index = 0
        else:
            return
        if len(node.args) <= arg_index:
            return
        arg = node.args[arg_index]
        # sum(x for x in some_set) — look through the generator
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            iters = [gen.iter for gen in arg.generators]
        else:
            iters = [arg]
        for it in iters:
            self._claimed.add(id(it))
            if not _ordered_wrapper(it) and _is_set_expr(it):
                self._emit(
                    "REP504",
                    node,
                    f"{name.rsplit('.', 1)[-1]}() accumulates floats in set "
                    "hash-order; float addition is not associative — iterate "
                    "sorted(...)",
                )
                return


# ---------------------------------------------------------------------------
def lint_source(
    source: str, path: str = "<string>", *, respect_skip: bool = True
) -> list[Diagnostic]:
    """Lint one source text; returns the surviving diagnostics."""
    head = source.splitlines()[:5]
    if respect_skip and any(SKIP_MARKER in line for line in head):
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="REP100",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno,
                severity=ERROR,
            )
        ]
    visitor = _Visitor(path)
    visitor.visit(tree)
    visitor.finish()

    lines = source.splitlines()
    out = []
    for diag in visitor.diags:
        if diag.line is not None and 1 <= diag.line <= len(lines):
            codes = inline_suppressions(lines[diag.line - 1])
            if codes is not None and (not codes or diag.rule in codes):
                continue
        out.append(diag)
    return out


def lint_paths(paths: list[str | Path]) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d for d in dirnames if not d.startswith(".") and d != "__pycache__"
                )
                files.extend(
                    Path(dirpath) / f for f in sorted(filenames) if f.endswith(".py")
                )
        elif p.suffix == ".py":
            files.append(p)
    diags: list[Diagnostic] = []
    for f in files:
        diags.extend(lint_source(f.read_text(), str(f)))
    return diags
