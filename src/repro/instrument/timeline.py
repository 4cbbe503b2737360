"""Per-rank time accounting: computation / communication / synchronization.

The paper's response variables (Sec. 3.2): wall-clock time per energy
component, split into *computation*, time spent moving data
(*communication*) and time spent in control transfer and waiting
(*synchronization*).  Every virtual second a rank spends is attributed to
exactly one ``(phase, category)`` cell of its :class:`Timeline`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["Category", "PhaseTotals", "Timeline", "KNOWN_PHASES", "register_phase"]


class Category:
    """Time categories (string enum)."""

    COMP = "comp"
    COMM = "comm"
    SYNC = "sync"

    ALL = (COMP, COMM, SYNC)


#: Phase names a :class:`Timeline` accepts.  The paper's breakdown has
#: exactly two measured phases plus the implicit default; a typo'd phase
#: used to create a silent new bucket and skew every fraction downstream,
#: so ``add`` now rejects anything not registered here.
KNOWN_PHASES: set[str] = {"default", "classic", "pme"}


def register_phase(name: str) -> None:
    """Allow ``name`` as a :class:`Timeline` phase (new workloads, tests)."""
    if not name or not isinstance(name, str):
        raise ValueError(f"phase name must be a non-empty string, got {name!r}")
    KNOWN_PHASES.add(name)


@dataclass
class PhaseTotals:
    """Seconds per category inside one phase."""

    comp: float = 0.0
    comm: float = 0.0
    sync: float = 0.0

    @property
    def total(self) -> float:
        return self.comp + self.comm + self.sync

    def add(self, category: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative time increment {dt}")
        if category == Category.COMP:
            self.comp += dt
        elif category == Category.COMM:
            self.comm += dt
        elif category == Category.SYNC:
            self.sync += dt
        else:
            raise ValueError(f"unknown category {category!r}")

    def __add__(self, other: "PhaseTotals") -> "PhaseTotals":
        return PhaseTotals(
            comp=self.comp + other.comp,
            comm=self.comm + other.comm,
            sync=self.sync + other.sync,
        )


@dataclass
class Timeline:
    """Accumulates attributed time for one rank.

    The *current phase* is a dynamic label (``"classic"``, ``"pme"``, ...)
    set with the :meth:`phase` context manager; all ``add`` calls attribute
    to it.
    """

    phases: dict[str, PhaseTotals] = field(default_factory=dict)
    _current: str = "default"
    _forced: str | None = None
    #: optional span-tracer hook called as ``sink(phase, category, dt)``
    #: after every accepted attribution; see
    #: :meth:`repro.instrument.tracing.SpanTracer.attach_rank`.  Never
    #: part of equality or repr — a traced timeline equals an untraced one.
    _sink: Callable[[str, str, float], None] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def attribution(self) -> tuple[str, str | None]:
        """``(phase, forced category)`` that the next :meth:`add` lands in."""
        return self._current, self._forced

    def attribute_to(self, attribution: tuple[str, str | None]) -> None:
        """Re-enter a recorded :attr:`attribution` (op-stream replay)."""
        self._current, self._forced = attribution

    def attach_sink(self, sink: Callable[[str, str, float], None] | None) -> None:
        """Install (or clear) the per-attribution observer hook."""
        self._sink = sink

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if name not in KNOWN_PHASES:
            raise ValueError(
                f"unknown phase {name!r}; known: {sorted(KNOWN_PHASES)} "
                "(register_phase() to extend)"
            )
        previous = self._current
        self._current = name
        try:
            yield
        finally:
            self._current = previous

    @contextmanager
    def as_category(self, category: str) -> Iterator[None]:
        """Force every ``add`` in the block into ``category``.

        Used for barriers and middleware synchronization: the paper books
        the whole cost of control-transfer operations as *synchronization*
        even though they move (one-byte) messages.
        """
        if category not in Category.ALL:
            raise ValueError(f"unknown category {category!r}")
        previous = self._forced
        self._forced = category
        try:
            yield
        finally:
            self._forced = previous

    def add(self, category: str, dt: float) -> None:
        totals = self.phases.get(self._current)
        if totals is None:
            # a phase is validated when its bucket is created: KNOWN_PHASES
            # only grows, so an existing bucket's phase stays valid
            if self._current not in KNOWN_PHASES:
                raise ValueError(
                    f"unknown phase {self._current!r}; known: {sorted(KNOWN_PHASES)} "
                    "(register_phase() to extend)"
                )
            totals = self.phases[self._current] = PhaseTotals()
        effective = self._forced if self._forced is not None else category
        totals.add(effective, dt)
        if self._sink is not None:
            self._sink(self._current, effective, dt)

    # ------------------------------------------------------------------
    def phase_totals(self, name: str) -> PhaseTotals:
        return self.phases.get(name, PhaseTotals())

    def grand_total(self) -> PhaseTotals:
        out = PhaseTotals()
        for totals in self.phases.values():
            out = out + totals
        return out

    def total_seconds(self) -> float:
        return self.grand_total().total
