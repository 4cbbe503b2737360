"""Runtime sanitizer: invariant checks for a simulated MPI run.

Opt-in (``MPIWorld(..., sanitize=True)`` or ``run_parallel_md(...,
RunOptions(sanitize=True))``): the sanitizer observes a run without perturbing it —
it draws no random numbers and charges no virtual time, so a sanitized
run produces bit-identical comp/comm/sync totals to an unsanitized one.

It observes the world, not the program: the matching engine, the
transfer planner and the op executor.  A replayed run (a campaign
session's later platform variants, :mod:`repro.parallel.shared`) goes
through all three, and every check below reads only what a recording
keeps — sizes, dtypes, the receiver's expectations and the timings its
own platform implies — so replayed variants are audited like live ones.

Invariants (rule ids in :mod:`repro.analysis.rules`):

* **REP301/302** — every matched message agrees in size and dtype with
  what the receiver declared (``expect_nbytes``/``expect_dtype`` on the
  receive post) and with its own declared length;
* **REP303** — every :meth:`~repro.cluster.state.ClusterState.plan_transfer`
  window is sane: ``ready <= start <= end``, finite, efficiency in
  ``(0, 1]``;
* **REP304** — timeline accounting never exceeds the virtual wall clock.
  Every op books exactly the seconds it sleeps, so when a rank's op
  batch completes, its attributed seconds equal its clock; the executor
  checks that at every batch boundary (:meth:`Sanitizer.check_clock`),
  so a booking that was never slept — by a middleware, a program or the
  executor itself — fails at the next batch.  This assumes split-phase
  requests are driven at once (``req = yield from ep.isend(...)``), as
  every shipped program does.  The end of the run checks every rank
  again, with every cell finite and non-negative;
* **REP305** — shutdown is clean: no unmatched messages or posted
  receives remain in the matching-engine queues;
* **REP306** — collective order agrees across ranks: every rank draws
  its collective tags from the same SPMD sequence, so one tag names one
  operation on every rank (:meth:`Sanitizer.check_collective`, called
  at each draw).  Two collectives of the same size that share a tag
  would otherwise cross-match silently and time the wrong operation.

In strict mode (the default) the first violation raises
:class:`SanitizerError`, turning silent wrong-timing bugs into crashes;
with ``strict=False`` violations accumulate on ``.violations`` for
reporting.
"""

from __future__ import annotations

import math

from ..mpi.message import payload_dtype, payload_nbytes
from .rules import ERROR, Diagnostic

__all__ = ["Sanitizer", "SanitizerError"]

_REL_EPS = 1e-9
_ABS_EPS = 1e-9


class SanitizerError(RuntimeError):
    """A communication/accounting invariant was violated at runtime."""


class Sanitizer:
    """Collects or raises on invariant violations during a run."""

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: list[Diagnostic] = []
        #: the first ``(op, rank)`` to draw each collective tag
        self._collectives: dict[int, tuple[str, int]] = {}

    def _report(
        self, rule: str, message: str, ranks: tuple[int, ...] = (), tag: int | None = None
    ) -> None:
        diag = Diagnostic(
            rule=rule, message=message, severity=ERROR, ranks=ranks, tag=tag
        )
        if self.strict:
            raise SanitizerError(diag.format())
        self.violations.append(diag)

    # ------------------------------------------------------------------
    def check_match(self, msg, post) -> None:
        """Size/dtype agreement for one matched send and receive request."""
        ranks = (msg.src, msg.dest)
        actual = payload_nbytes(msg.payload)
        if actual != msg.nbytes:
            self._report(
                "REP301",
                f"message {msg.src}->{msg.dest} tag {msg.tag} declares "
                f"{msg.nbytes} B but carries {actual} B (payload mutated "
                "after send?)",
                ranks=ranks,
                tag=msg.tag,
            )
        if post.expect_nbytes is not None and post.expect_nbytes != msg.nbytes:
            self._report(
                "REP301",
                f"message {msg.src}->{msg.dest} tag {msg.tag} carries "
                f"{msg.nbytes} B but the receiver expected "
                f"{post.expect_nbytes} B",
                ranks=ranks,
                tag=msg.tag,
            )
        if post.expect_dtype is not None:
            got = payload_dtype(msg.payload)
            if got != post.expect_dtype:
                self._report(
                    "REP302",
                    f"message {msg.src}->{msg.dest} tag {msg.tag} carries dtype "
                    f"{got} but the receiver expected {post.expect_dtype}",
                    ranks=ranks,
                    tag=msg.tag,
                )

    # ------------------------------------------------------------------
    def check_plan(self, plan, ready_time: float) -> None:
        """Transfer-window sanity for one planned transfer."""
        ok = (
            math.isfinite(plan.start)
            and math.isfinite(plan.end)
            and plan.end >= plan.start >= ready_time - _ABS_EPS
            and 0.0 < plan.efficiency <= 1.0
        )
        if not ok:
            self._report(
                "REP303",
                f"plan_transfer produced an invalid window: start={plan.start} "
                f"end={plan.end} ready={ready_time} "
                f"efficiency={plan.efficiency}",
            )

    # ------------------------------------------------------------------
    def check_collective(self, rank: int, tag: int, op: str) -> None:
        """REP306: the collective ``rank`` names ``op`` under ``tag``
        agrees with the first rank that drew the tag."""
        first_op, first_rank = self._collectives.setdefault(tag, (op, rank))
        if first_op != op:
            self._report(
                "REP306",
                f"collective order diverges at tag {tag}: rank {first_rank} "
                f"runs {first_op!r} but rank {rank} runs {op!r}; SPMD requires "
                "every rank to invoke the same collectives in the same order",
                ranks=(first_rank, rank),
                tag=tag,
            )

    # ------------------------------------------------------------------
    def check_clock(self, ep) -> None:
        """REP304 for one rank: its attributed seconds within its clock.

        Called by the op executor when one of the rank's batches
        completes, and for every rank at the end of the run.
        """
        attributed = ep.timeline.total_seconds()
        now = ep.now
        if attributed > now * (1.0 + _REL_EPS) + _ABS_EPS:
            self._report(
                "REP304",
                f"rank {ep.rank} attributed {attributed:.9g} s of timeline by "
                f"virtual time {now:.9g} s: some second was booked without "
                "being slept, or into more than one (phase, category) cell",
                ranks=(ep.rank,),
            )

    # ------------------------------------------------------------------
    def check_final(self, world) -> None:
        """End-of-run invariants: timeline accounting and drained queues."""
        for rank, ep in enumerate(world.endpoints):
            for phase, totals in ep.timeline.phases.items():
                cells = (totals.comp, totals.comm, totals.sync)
                if not all(math.isfinite(c) and c >= 0.0 for c in cells):
                    self._report(
                        "REP304",
                        f"rank {rank} phase {phase!r} has a non-finite or "
                        f"negative cell: comp={totals.comp} comm={totals.comm} "
                        f"sync={totals.sync}",
                        ranks=(rank,),
                    )
            self.check_clock(ep)
        leftover_msgs, leftover_recvs = world.leftovers()
        if leftover_msgs or leftover_recvs:
            self._report(
                "REP305",
                f"queues not drained at shutdown: messages={leftover_msgs} "
                f"recvs={leftover_recvs}",
            )
