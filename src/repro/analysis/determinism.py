"""Determinism lint (REP5xx): protect the bit-identical-results invariant.

The whole experimental apparatus rests on one promise: the same inputs
produce the same virtual timings and the same trajectories, bit for bit,
on every host and in every process (DESIGN.md's reproducibility pillar;
it is what lets the Figure-7 variability statistics measure the *model*
rather than the harness).  This module walks source files with
:mod:`ast` and flags constructs that silently break that promise:

* **REP501** — unseeded random sources: ``np.random.default_rng()``
  without a seed, the legacy ``np.random.*`` global generator, the
  stdlib ``random`` module;
* **REP502** — wall-clock reads (``time.time``/``perf_counter``/
  ``datetime.now``) inside the virtual-time packages;
* **REP503** — bare iteration over an unordered set expression
  (``for x in set(..) | set(..)``): Python set order is hash-order,
  which varies with ``PYTHONHASHSEED`` for strings and with pointer
  values for objects.  Wrapping the set in ``sorted(...)`` fixes the
  order and silences the rule;
* **REP504** — float accumulation (``sum``/``math.fsum``/``np.sum``/
  ``functools.reduce``) whose iteration order is an unordered set:
  float addition is not associative, so hash order leaks into energies;
* **REP505** — process- or host-dependent values (``os.getpid``,
  ``os.urandom``, ``uuid.uuid1``/``uuid4``, ``platform.node``,
  ``socket.gethostname``, ``id()``, ``hash()``) inside the virtual-time
  packages.

REP502/REP505 are scoped to the packages that run under virtual time
(:data:`VIRTUAL_TIME_PACKAGES`); the tooling layers (cli, report,
instrument dashboards) may legitimately read the host clock or pid.
REP501/REP503/REP504 apply everywhere — unordered float math is wrong
in a report script too.

Suppressions: a trailing ``# repro: noqa[REP5xx]`` (or the legacy
``# noqa: REP5xx``) on the offending line; grandfathered findings live
in ``.repro-analysis-baseline.json`` (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

from .lint import SKIP_MARKER
from .rules import ERROR, Diagnostic

__all__ = [
    "VIRTUAL_TIME_PACKAGES",
    "is_virtual_time_path",
    "lint_determinism_source",
    "lint_determinism_paths",
]

#: Sub-packages of ``repro`` whose code runs under the simulated clock.
#: Wall-clock and host-identity reads there poison virtual timings.
VIRTUAL_TIME_PACKAGES = frozenset(
    {"sim", "mpi", "cmpi", "parallel", "md", "pme", "cluster"}
)

_WALLCLOCK_TIME = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

_LEGACY_NP_RANDOM = {
    "rand", "randn", "random", "randint", "seed", "choice", "shuffle",
    "normal", "uniform", "permutation", "random_sample", "standard_normal",
    "exponential", "poisson", "binomial",
}
_STDLIB_RANDOM = {
    "random", "randint", "uniform", "choice", "choices", "shuffle",
    "gauss", "randrange", "sample", "seed", "betavariate", "expovariate",
}

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

_ACCUMULATORS = {"sum", "fsum"}  # bare / math.fsum / np.sum
_REDUCE_NAMES = {"reduce"}  # functools.reduce

def is_virtual_time_path(path: str | Path) -> bool:
    """Does this file live in a package that runs under the virtual clock?"""
    parts = Path(path).parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in VIRTUAL_TIME_PACKAGES:
            return True
    return False


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """Is this expression an unordered set by construction?

    Recognized: set literals, set comprehensions, ``set(..)`` /
    ``frozenset(..)`` calls, ``dict.keys()`` is *not* flagged (insertion
    order is guaranteed), and binary combinations (``|  & - ^``) of
    recognized set expressions.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in ("set", "frozenset"):
            return True
        return False
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
    def __init__(self, path: str, virtual_time: bool) -> None:
        self.path = path
        self.virtual_time = virtual_time
        self.diags: list[Diagnostic] = []
        # iter expressions already judged by the accumulation rule
        # (REP504), so the set-iteration rule does not double-report
        self._claimed: set[int] = set()

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

    # -- REP503: bare iteration over an unordered set -------------------
    def _check_iter(self, iter_node: ast.expr, where: ast.AST) -> None:
        if id(iter_node) in self._claimed:
            return
        if _is_set_expr(iter_node):
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

    def _visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            self._check_iter(gen.iter, gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    # set comprehensions over sets still build a set: order never escapes
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    # -- calls: REP501 / REP502 / REP504 / REP505 -----------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_randomness(node)
        if self.virtual_time:
            self._check_wallclock(node)
            self._check_host_dependent(node)
        self._check_accumulation(node)
        self.generic_visit(node)

    def _check_randomness(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            leaf = parts[2]
            if leaf == "default_rng":
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded and not node.keywords:
                    self._emit(
                        "REP501",
                        node,
                        "np.random.default_rng() without a seed: results vary "
                        "run to run",
                    )
            elif leaf in _LEGACY_NP_RANDOM:
                self._emit(
                    "REP501",
                    node,
                    f"legacy global generator np.random.{leaf}(): use a "
                    "seeded np.random.default_rng(seed)",
                )
        elif len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RANDOM:
            self._emit(
                "REP501",
                node,
                f"stdlib random.{parts[1]}() draws from unseeded "
                "process-global state; use np.random.default_rng(seed)",
            )

    def _check_wallclock(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "time" and parts[1] in _WALLCLOCK_TIME:
            self._emit(
                "REP502",
                node,
                f"time.{parts[1]}() reads the host wall clock inside a "
                "virtual-time package; use the simulator clock (ep.now / sim.now)",
            )
        elif (
            parts[-1] in _WALLCLOCK_DATETIME
            and len(parts) >= 2
            and parts[-2] in ("datetime", "date")
        ):
            self._emit(
                "REP502",
                node,
                f"{name}() reads the host wall clock inside a virtual-time "
                "package; use the simulator clock (ep.now / sim.now)",
            )

    def _check_host_dependent(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name in _HOST_DEPENDENT:
            self._emit(
                "REP505",
                node,
                f"{name}() leaks {_HOST_DEPENDENT[name]} into virtual-time "
                "code; derive identity from (rank, seed) instead",
            )
            return
        if isinstance(node.func, ast.Name) and node.func.id in ("id", "hash"):
            self._emit(
                "REP505",
                node,
                f"builtin {node.func.id}() depends on the process memory "
                "layout / PYTHONHASHSEED; key on an explicit stable field "
                "instead",
            )

    def _check_accumulation(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        leaf = name.rsplit(".", 1)[-1]
        is_reduce = leaf in _REDUCE_NAMES and name in ("reduce", "functools.reduce")
        is_sum = leaf in _ACCUMULATORS and name in (
            "sum", "math.fsum", "np.sum", "numpy.sum", "fsum",
        )
        if not (is_sum or is_reduce):
            return
        # reduce(f, iterable): the iterable is the second argument
        arg_index = 1 if is_reduce else 0
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
            if _ordered_wrapper(it):
                continue
            if _is_set_expr(it):
                self._emit(
                    "REP504",
                    node,
                    f"{leaf}() accumulates floats in set hash-order; float "
                    "addition is not associative — iterate sorted(...)",
                )
                return


# ---------------------------------------------------------------------------
def _suppressed(line: str, rule: str) -> bool:
    """Inline suppression: ``# repro: noqa[REP503]`` or ``# noqa: REP503``."""
    from .baseline import inline_suppressions

    codes = inline_suppressions(line)
    return codes is not None and (not codes or rule in codes)


def lint_determinism_source(
    source: str, path: str = "<string>", *, respect_skip: bool = True
) -> list[Diagnostic]:
    """Determinism-lint one source text; returns surviving diagnostics."""
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
    visitor = _Visitor(path, virtual_time=is_virtual_time_path(path))
    visitor.visit(tree)

    lines = source.splitlines()
    out = []
    for diag in visitor.diags:
        if diag.line is not None and 1 <= diag.line <= len(lines):
            if _suppressed(lines[diag.line - 1], diag.rule):
                continue
        out.append(diag)
    return out


def lint_determinism_paths(paths: list[str | Path]) -> list[Diagnostic]:
    """Determinism-lint every ``.py`` file under the given files/directories."""
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
        diags.extend(lint_determinism_source(f.read_text(), str(f)))
    return diags
