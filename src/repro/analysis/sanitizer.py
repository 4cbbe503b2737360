"""Runtime sanitizer: invariant checks for a simulated MPI run.

Opt-in (``MPIWorld(..., sanitize=True)`` or ``run_parallel_md(...,
RunOptions(sanitize=True))``): the sanitizer observes a run without perturbing it —
it draws no random numbers and charges no virtual time, so a sanitized
run produces bit-identical comp/comm/sync totals to an unsanitized one.

Invariants (rule ids in :mod:`repro.analysis.rules`):

* **REP301/302** — every matched message agrees in size and dtype with
  what the receiver declared (``expect_nbytes``/``expect_dtype`` on the
  receive post) and with its own declared length;
* **REP303** — every :meth:`~repro.cluster.state.ClusterState.plan_transfer`
  window is sane: ``ready <= start <= end``, finite, efficiency in
  ``(0, 1]``;
* **REP304** — timeline accounting never exceeds the virtual wall clock:
  each rank's attributed seconds land in exactly one ``(phase,
  category)`` cell, so their sum is bounded by the simulation end time.
  Checked at end of run *and* around every middleware collective
  (:class:`SanitizedMiddleware`): a middleware that books overhead
  without sleeping it — the bug class the end-of-run aggregate can hide
  when a rank idles elsewhere — is caught at the exact operation;
* **REP305** — shutdown is clean: no unmatched messages or posted
  receives remain in the matching-engine queues.

In strict mode (the default) the first violation raises
:class:`SanitizerError`, turning silent wrong-timing bugs into crashes;
with ``strict=False`` violations accumulate on ``.violations`` for
reporting (the ``repro analyze --sanitize-run`` CLI path).
"""

from __future__ import annotations

import math

import numpy as np

from ..mpi.middleware import Middleware
from .rules import ERROR, Diagnostic

__all__ = ["Sanitizer", "SanitizedMiddleware", "SanitizerError"]

_REL_EPS = 1e-9
_ABS_EPS = 1e-9


class SanitizerError(RuntimeError):
    """A communication/accounting invariant was violated at runtime."""


def _nbytes(payload) -> int:
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    return len(payload)


def _dtype(payload) -> str:
    if isinstance(payload, np.ndarray):
        return str(payload.dtype)
    return "bytes"


class Sanitizer:
    """Collects or raises on invariant violations during a run."""

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: list[Diagnostic] = []

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
        actual = _nbytes(msg.payload)
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
            got = _dtype(msg.payload)
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
    def check_collective_window(
        self, op: str, rank: int, booked: float, elapsed: float
    ) -> None:
        """Per-collective REP304: booked seconds within the clock window.

        ``booked`` is the timeline delta one rank attributed across one
        middleware operation; ``elapsed`` is how far its virtual clock
        actually advanced.  Booking more than elapsed means some overhead
        (the CMPI per-call constant is the historical offender) was
        charged to the timeline without being slept on the simulator —
        the end-of-run aggregate check can miss this when the same rank
        under-books elsewhere.
        """
        if booked > elapsed * (1.0 + _REL_EPS) + _ABS_EPS:
            self._report(
                "REP304",
                f"rank {rank} booked {booked:.9g} s of timeline during one "
                f"{op} but its virtual clock advanced only {elapsed:.9g} s: "
                "the middleware charged overhead it never slept",
                ranks=(rank,),
            )

    # ------------------------------------------------------------------
    def check_final(self, world) -> None:
        """End-of-run invariants: timeline accounting and drained queues."""
        now = world.sim.now
        budget = now * (1.0 + _REL_EPS) + _ABS_EPS
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
            attributed = ep.timeline.total_seconds()
            if attributed > budget:
                self._report(
                    "REP304",
                    f"rank {rank} attributed {attributed:.9g} s but the run "
                    f"lasted only {now:.9g} s: some virtual second was booked "
                    "into more than one (phase, category) cell",
                    ranks=(rank,),
                )
        leftover_msgs = {k: len(v) for k, v in world._msgs.items() if v}
        leftover_recvs = {k: len(v) for k, v in world._recvs.items() if v}
        if leftover_msgs or leftover_recvs:
            self._report(
                "REP305",
                f"queues not drained at shutdown: messages={leftover_msgs} "
                f"recvs={leftover_recvs}",
            )


class SanitizedMiddleware(Middleware):
    """Sanitizing proxy around any middleware.

    Wraps every collective generator so the sanitizer sees the timeline
    delta versus the virtual-clock delta of each individual operation
    (:meth:`Sanitizer.check_collective_window`).  Historically only
    point-to-point matches were hooked, so CMPI collectives — which book
    their per-call overhead *inside* the middleware — escaped the REP304
    accounting check until the end-of-run aggregate.  Observation is
    passive: the proxy charges no virtual time and draws no randomness,
    so sanitized runs stay bit-identical.
    """

    def __init__(self, inner: Middleware, sanitizer: Sanitizer) -> None:
        self._inner = inner
        self._sanitizer = sanitizer
        self.name = inner.name

    def __getattr__(self, attr):
        # middleware extras (e.g. CMPI's split-phase sync) pass through
        return getattr(self._inner, attr)

    def _watch(self, ep, op: str, gen):
        t0 = ep.now
        before = ep.timeline.total_seconds()
        result = yield from gen
        self._sanitizer.check_collective_window(
            op, ep.rank, ep.timeline.total_seconds() - before, ep.now - t0
        )
        return result

    def barrier(self, ep):
        yield from self._watch(ep, "barrier", self._inner.barrier(ep))

    def allreduce(self, ep, array, op=np.add):
        result = yield from self._watch(ep, "allreduce", self._inner.allreduce(ep, array, op))
        return result

    def allgatherv(self, ep, block):
        result = yield from self._watch(ep, "allgatherv", self._inner.allgatherv(ep, block))
        return result

    def alltoallv(self, ep, send_blocks):
        result = yield from self._watch(ep, "alltoallv", self._inner.alltoallv(ep, send_blocks))
        return result

    def exchange(self, ep, dest, payload, source, tag=0):
        result = yield from self._watch(
            ep, "exchange", self._inner.exchange(ep, dest, payload, source, tag=tag)
        )
        return result
