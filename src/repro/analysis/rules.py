"""Rule registry and diagnostic record for the correctness analyzer.

Every diagnostic the analyzer can emit is declared here with a stable
identifier, so CI output, suppression comments
(``# repro: noqa[REP101]``) and the documentation all speak the same
names.  The identifiers are grouped
by layer:

* **REP1xx** — static AST lint over the coroutine-collective protocol
  (:mod:`repro.analysis.lint`);
* **REP3xx** — runtime sanitizer invariants checked during a simulated
  run, live or replayed (:mod:`repro.analysis.sanitizer`);
* **REP4xx** — static communication-schedule verification: op streams
  extracted from rank-program ASTs without running them, proved by the
  op executor (:mod:`repro.analysis.static_schedule`).  REP404, two
  sends in flight on one channel, is the sanitizer's channel check, so
  a sanitized run reports it too;
* **REP5xx** — determinism rules protecting the bit-identical-results
  invariant, emitted by the same AST pass as REP1xx
  (:mod:`repro.analysis.lint`).  REP501 (unseeded randomness) and REP502
  (wall-clock reads) were retired into REP103 and REP104, which flag the
  same calls.

The REP2xx trace-analysis rules are retired: an unmatched send or
receive fails the run's drain check (REP305 when sanitized), a wait-for
cycle fails it as a deadlock naming the blocked traffic, collective
order is REP306, and REP404 is the tag-collision rule.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Rule", "Diagnostic", "RULES", "ERROR", "WARNING"]

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: stable id, layer and a one-line summary."""

    id: str
    layer: str  # "lint" | "sanitizer" | "static-schedule" | "determinism"
    severity: str
    summary: str


_RULE_LIST = [
    # ---- static lint ---------------------------------------------------
    Rule("REP100", "lint", ERROR, "file does not parse"),
    Rule(
        "REP101",
        "lint",
        ERROR,
        "protocol generator called without 'yield from' (communication silently dropped)",
    ),
    Rule(
        "REP102",
        "lint",
        ERROR,
        "data-moving collective's return value discarded",
    ),
    Rule(
        "REP103",
        "lint",
        ERROR,
        "unseeded random source inside the simulation model (breaks reproducibility)",
    ),
    Rule(
        "REP104",
        "lint",
        ERROR,
        "wall-clock call inside virtual-time code",
    ),
    Rule(
        "REP105",
        "lint",
        ERROR,
        "protocol generator stored in a local that is never driven or consumed",
    ),
    # ---- runtime sanitizer --------------------------------------------
    Rule("REP301", "sanitizer", ERROR, "matched message size disagreement"),
    Rule("REP302", "sanitizer", ERROR, "matched message dtype disagreement"),
    Rule("REP303", "sanitizer", ERROR, "invalid transfer window from plan_transfer"),
    Rule("REP304", "sanitizer", ERROR, "timeline accounting exceeds the virtual wall clock"),
    Rule("REP305", "sanitizer", ERROR, "unclean shutdown: message queues not drained"),
    Rule("REP306", "sanitizer", ERROR, "collective order diverges across ranks"),
    # ---- static schedule verification ---------------------------------
    Rule(
        "REP401",
        "static-schedule",
        ERROR,
        "static deadlock: wait-for cycle in the extracted schedule",
    ),
    Rule(
        "REP402",
        "static-schedule",
        ERROR,
        "static unmatched send: no rank ever posts the matching receive",
    ),
    Rule(
        "REP403",
        "static-schedule",
        ERROR,
        "static unmatched receive: no rank ever issues the matching send",
    ),
    Rule(
        "REP404",
        "static-schedule",
        WARNING,
        "tag race: two sends in flight at once share (src, dst, tag)",
    ),
    Rule(
        "REP405",
        "static-schedule",
        ERROR,
        "static send/recv disagreement: payload size or dtype contradicts the "
        "receiver's declaration",
    ),
    Rule(
        "REP406",
        "static-schedule",
        ERROR,
        "schedule-contract violation: collective sequence diverges across ranks "
        "or from the strategy's declared contract",
    ),
    # ---- determinism rules (same AST pass) ----------------------------
    Rule(
        "REP503",
        "determinism",
        ERROR,
        "iteration over an unordered set feeds numeric state (hash-order "
        "dependent results)",
    ),
    Rule(
        "REP504",
        "determinism",
        ERROR,
        "float accumulation whose order depends on unordered iteration "
        "(rank combination must use a canonical order)",
    ),
    Rule(
        "REP505",
        "determinism",
        ERROR,
        "process/host-dependent value (pid, hostname, id, hash) feeds "
        "simulation state",
    ),
]

#: All analyzer rules, indexed by id.
RULES: dict[str, Rule] = {r.id: r for r in _RULE_LIST}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, from any layer.

    ``p_condition`` is set by the static schedule verifier: a human-readable
    summary of the processor counts the finding holds for (e.g. ``"odd p in
    [3, 31]"``), derived symbolically over the verified bound.
    """

    rule: str
    message: str
    path: str | None = None
    line: int | None = None
    severity: str = ERROR
    ranks: tuple[int, ...] = ()
    tag: int | None = None
    p_condition: str | None = None

    def format(self) -> str:
        where = ""
        if self.path is not None:
            where = f"{self.path}:{self.line}: " if self.line else f"{self.path}: "
        cond = f" [{self.p_condition}]" if self.p_condition else ""
        return f"{where}{self.rule} [{self.severity}]{cond} {self.message}"

    def fingerprint(self) -> str:
        """Stable identity for SARIF alert tracking.

        Deliberately excludes the line number (so unrelated edits above a
        finding do not make it a new alert) but keeps the rule, the file
        and the message text.  Absolute paths are relativized against the
        working directory so findings produced from absolute paths match
        the CLI's repo-relative ones in the same checkout.
        """
        import hashlib
        from pathlib import Path, PurePosixPath

        path = PurePosixPath((self.path or "").replace("\\", "/"))
        if path.is_absolute():
            try:
                path = path.relative_to(Path.cwd().as_posix())
            except ValueError:
                pass
        raw = f"{self.rule}|{path}|{self.message}"
        return hashlib.sha256(raw.encode()).hexdigest()[:16]
