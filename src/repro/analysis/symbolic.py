"""Symbolic values for the static schedule verifier.

The static verifier (:mod:`repro.analysis.static_schedule`) records
rank programs per ``(rank, p)`` up to a bound.  Where it drives a
program against a recording endpoint rather than running it live (the
spatial step, standalone sources, the collectives in isolation), the
*data* the program moves stays symbolic — payload sizes and dtypes are
opaque atoms, and message tags are ``(collective invocation, offset)``
pairs rather than the runtime's absolute integers.  The endpoint hands
real code stand-in arrays for these values and maps the arrays back.
This module holds those symbolic values plus the machinery that turns
a set of failing processor counts back into a human-readable
*p-condition* ("odd p in [3, 31]", :func:`summarize_p_set`) for
diagnostics.

Two value kinds:

* :class:`SymTag` — a message tag: the index of the
  ``next_collective_tag`` draw it derives from plus a concrete integer
  offset.  SPMD programs draw the same tag sequence on every rank, so
  two tags are equal iff base and offset agree.  Fixture programs that
  use literal integer tags get ``base=None``.
* :class:`Block` — an abstract payload: a symbolic size expression, a
  dtype and a *location name* that is identical across ranks for the
  same program point, so SPMD-symmetric payloads stay symbolically
  comparable.

The extracted schedule is an op stream (:class:`~repro.mpi.endpoint.OpStream`),
so a payload size or dtype the verifier cannot know is spelled there by
a marker, :data:`SYMBOLIC_NBYTES` or :data:`SYMBOLIC_DTYPE`: an ``int``
or ``str`` equal to every value.  The sanitizer's size and dtype checks
therefore pass wherever one end is symbolic, and a static stream equals
a live recording of the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SymTag", "SymSize", "Block", "summarize_p_set",
    "SYMBOLIC_NBYTES", "SYMBOLIC_DTYPE",
]


@dataclass(frozen=True)
class SymTag:
    """A message tag in the symbolic domain.

    ``base`` is the 1-based index of the ``next_collective_tag`` draw the
    tag derives from (``None`` for literal user-range tags), ``offset``
    the concrete integer added to it.  ``absolute(tag_base, stride)``
    reconstructs the runtime integer.
    """

    base: int | None
    offset: int = 0

    def __add__(self, other: int) -> "SymTag":
        if not isinstance(other, int):
            return NotImplemented
        return SymTag(self.base, self.offset + other)

    __radd__ = __add__

    def absolute(self, tag_base: int, stride: int = 16) -> int:
        if self.base is None:
            return self.offset
        return tag_base + stride * self.base + self.offset

    def __str__(self) -> str:
        if self.base is None:
            return str(self.offset)
        suffix = f"+{self.offset}" if self.offset else ""
        return f"T{self.base}{suffix}"


@dataclass(frozen=True)
class SymSize:
    """A payload size: either a concrete byte count or a named atom."""

    name: str | None = None
    value: int | None = None

    @property
    def concrete(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class Block:
    """An abstract message payload.

    ``origin`` names the program point that produced the block — an
    argument the verifier hands a rank program or a collective, or the
    middleware line whose receive delivered it — so the same point
    yields the same name on every rank and symbolic equality across SPMD
    ranks is structural equality.  Real middleware code never holds a
    block: it is handed a stand-in array, which the recording endpoint
    maps back.
    """

    origin: str
    size: SymSize = field(default_factory=SymSize)
    dtype: str | None = None


class _Symbolic:
    """Equal to every value (see :data:`SYMBOLIC_NBYTES`)."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return True

    def __ne__(self, other) -> bool:
        return False

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return "?"


class _SymbolicNbytes(_Symbolic, int):
    pass


class _SymbolicDtype(_Symbolic, str):
    pass


#: A payload size the verifier cannot know: zero bytes on the proof's
#: wire, equal to any size in a comparison.
SYMBOLIC_NBYTES = _SymbolicNbytes(0)
#: A payload dtype the verifier cannot know, equal to any dtype.
SYMBOLIC_DTYPE = _SymbolicDtype("?")


# ---------------------------------------------------------------------------
# p-condition summarization


def _is_pow2(p: int) -> bool:
    return p > 0 and (p & (p - 1)) == 0


def summarize_p_set(failing: set[int], bound: int) -> str:
    """A compact description of ``failing`` within ``1..bound``.

    Recognizes the shapes that matter for communication schedules — a
    single p, everything, every p past a threshold, parity classes,
    (non-)powers of two — and falls back to an explicit list.
    """
    if not failing:
        return "no p"
    lo, hi = min(failing), max(failing)
    if lo == hi:
        return f"p in {{{lo}}}"
    full = set(range(1, bound + 1))
    if failing == full:
        return f"all p in [1, {bound}]"
    if failing == {p for p in full if p >= lo}:
        return f"all p in [{lo}, {bound}]"
    odd = {p for p in full if p % 2 and p >= lo}
    if failing == odd:
        return f"odd p in [{lo}, {hi}]"
    even = {p for p in full if p % 2 == 0 and p >= lo}
    if failing == even:
        return f"even p in [{lo}, {hi}]"
    pow2 = {p for p in full if _is_pow2(p) and p >= lo}
    if failing == pow2:
        return f"power-of-two p in [{lo}, {hi}]"
    nonpow2 = {p for p in full if not _is_pow2(p) and p >= lo}
    if failing == nonpow2:
        return f"non-power-of-two p in [{lo}, {hi}]"
    listed = sorted(failing)
    if len(listed) > 8:
        shown = ", ".join(map(str, listed[:8]))
        return f"p in {{{shown}, ...}} ({len(listed)} of [1, {bound}])"
    return "p in {" + ", ".join(map(str, listed)) + "}"
