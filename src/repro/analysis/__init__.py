"""Communication-correctness analyzer for the coroutine-collective protocol.

Three layers, one rule namespace (REP1xx, REP3xx–REP5xx, see
:mod:`repro.analysis.rules`):

* :mod:`repro.analysis.lint` — one AST pass per file for dropped
  generators, discarded collective results, unseeded randomness and
  wall-clock use (REP1xx), and for the hazards to the bit-identical-results
  invariant: hash-order iteration, unordered float accumulation and host
  identity (REP503–REP505);
* :mod:`repro.analysis.sanitizer` — opt-in runtime invariant checks
  (message size/dtype agreement, in-flight channel collisions, transfer
  windows, timeline accounting — per op batch and at shutdown — clean
  queues, cross-rank collective order), on live and replayed runs alike;
* :mod:`repro.analysis.static_schedule` — each rank's op stream,
  recorded from the real rank programs (live replicated steps, the
  spatial program and standalone sources driven with stand-in
  payloads), proved by the real op executor on an all-rendezvous
  network: deadlock/tag-race/type-agreement proofs for every rank count
  up to a bound, plus conformance against declared
  :class:`~repro.analysis.contract.ScheduleContract` values.

Findings are suppressed inline, one line at a time with the reason
beside it (``# repro: noqa[REP503]``, :mod:`repro.analysis.lint`), and
export as SARIF 2.1.0 for GitHub code scanning
(:mod:`repro.analysis.sarif`).

Entry points: ``python -m repro analyze [paths] [--static [--bound N]]
[--sarif out] [--sanitize-run]`` on the command line, or the functions
re-exported here as a library.
"""

from .contract import ContractOp, ScheduleContract
from .lint import lint_paths, lint_source
from .rules import RULES, Diagnostic, Rule
from .sanitizer import Sanitizer, SanitizerError
from .sarif import to_sarif, write_sarif
from .static_schedule import (
    extract_streams,
    verify_contract_conformance,
    verify_middleware_collectives,
    verify_rank_program_source,
    verify_static,
    verify_strategy,
)
from .symbolic import Block, SymSize, SymTag, summarize_p_set

__all__ = [
    "Block",
    "ContractOp",
    "Diagnostic",
    "extract_streams",
    "lint_paths",
    "lint_source",
    "Rule",
    "RULES",
    "Sanitizer",
    "SanitizerError",
    "ScheduleContract",
    "summarize_p_set",
    "SymSize",
    "SymTag",
    "to_sarif",
    "verify_contract_conformance",
    "verify_middleware_collectives",
    "verify_rank_program_source",
    "verify_static",
    "verify_strategy",
    "write_sarif",
]
