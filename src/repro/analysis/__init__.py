"""Communication-correctness analyzer for the coroutine-collective protocol.

Three layers, one rule namespace (REP1xx, REP3xx–REP5xx, see
:mod:`repro.analysis.rules`):

* :mod:`repro.analysis.lint` — one AST pass per file for dropped
  generators, discarded collective results, unseeded randomness and
  wall-clock use (REP1xx), and for the hazards to the bit-identical-results
  invariant: hash-order iteration, unordered float accumulation and host
  identity (REP503–REP505);
* :mod:`repro.analysis.sanitizer` — opt-in runtime invariant checks
  (message size/dtype agreement, transfer windows, timeline accounting
  — per op batch and at shutdown — clean queues, cross-rank collective
  order), on live and replayed runs alike;
* :mod:`repro.analysis.static_schedule` — symbolic schedule extraction
  from the rank-program sources: deadlock/tag-race/type-agreement
  proofs for every rank count up to a bound, with no run executed,
  plus conformance against declared
  :class:`~repro.analysis.contract.ScheduleContract` values.

Findings are suppressed inline (``# repro: noqa[REP503]``) or
grandfathered by fingerprint in ``.repro-analysis-baseline.json``
(:mod:`repro.analysis.baseline`), and export as SARIF 2.1.0 for GitHub
code scanning (:mod:`repro.analysis.sarif`).

Entry points: ``python -m repro analyze [paths] [--static] [--sarif out]
[--crosscheck] [--sanitize-run]`` on the command line, or the functions
re-exported here as a library.
"""

from .baseline import apply_baseline, load_baseline, write_baseline
from .contract import ContractOp, ScheduleContract
from .lint import lint_paths, lint_source
from .rules import RULES, Diagnostic, Rule
from .sanitizer import Sanitizer, SanitizerError
from .sarif import to_sarif, write_sarif
from .static_schedule import (
    crosscheck_against_trace,
    static_step_events,
    verify_contract_conformance,
    verify_middleware_collectives,
    verify_rank_program_source,
    verify_static,
    verify_strategy,
)
from .symbolic import Block, SymSize, SymTag, summarize_p_set

__all__ = [
    "apply_baseline",
    "Block",
    "ContractOp",
    "crosscheck_against_trace",
    "Diagnostic",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "Rule",
    "RULES",
    "Sanitizer",
    "SanitizerError",
    "ScheduleContract",
    "static_step_events",
    "summarize_p_set",
    "SymSize",
    "SymTag",
    "to_sarif",
    "verify_contract_conformance",
    "verify_middleware_collectives",
    "verify_rank_program_source",
    "verify_static",
    "verify_strategy",
    "write_baseline",
    "write_sarif",
]
