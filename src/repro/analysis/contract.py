"""Schedule contracts: what a parallel strategy promises to communicate.

A :class:`ScheduleContract` declares, per MD step, the ordered sequence
of middleware collectives a strategy issues — the *shape* of its
communication schedule, the thing the paper's characterization question
actually hinges on (all-to-all combines for replicated data, transposes
inside PME, and — once a spatial decomposition lands — halo exchanges).

Strategies declare their contract next to their implementation
(:data:`repro.parallel.pclassic.SCHEDULE_CONTRACT` etc.); the static
verifier (:mod:`repro.analysis.static_schedule`) records the middleware
ops a rank program actually calls and checks conformance (rule
REP406).  Because the check is against a *declaration*, a new
:class:`~repro.parallel.decomposition.Decomposition` implementation can
be verified against its promised schedule before any campaign executes.

Contract ops may be conditional on named feature flags (``barrier``,
``pme``) so one rank program can carry several strategies' schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ContractOp", "ScheduleContract"]


@dataclass(frozen=True)
class ContractOp:
    """One promised collective: the middleware op name plus its gate.

    ``when`` names a feature flag; the op is expected only when the flag
    is enabled.  ``note`` documents what the op moves (for reports).
    """

    op: str
    when: str | None = None
    note: str = ""


@dataclass(frozen=True)
class ScheduleContract:
    """The per-step communication schedule a strategy declares.

    ``per_step`` is the ordered collective sequence of one MD step;
    ``flags`` lists every feature-flag name the ops may reference.
    """

    name: str
    per_step: tuple[ContractOp, ...]
    flags: tuple[str, ...] = field(default_factory=tuple)

    def expected_ops(self, enabled: set[str] | frozenset[str]) -> list[str]:
        """The op-name sequence promised under the given flags."""
        unknown = set(enabled) - set(self.flags)
        if unknown:
            raise ValueError(
                f"contract {self.name!r} knows flags {sorted(self.flags)}, "
                f"not {sorted(unknown)}"
            )
        return [op.op for op in self.per_step if op.when is None or op.when in enabled]
