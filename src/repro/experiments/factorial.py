"""The full factorial design (Sec. 3.1: 'we did benchmark CHARMM for all
12 cases with factors at all levels').

The paper gathers the complete 3 x 2 x 2 design but only discusses the
one-factor-at-a-time slices; this driver produces the whole table, plus a
main-effects summary quantifying each factor's impact — the analysis step
of Jain's methodology the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.design import DesignPoint, full_factorial
from ..core.factors import PAPER_FACTOR_SPACE
from ..core.report import format_table, time_series_table
from ..core.responses import ResponseRecord

__all__ = ["FactorialResult", "run_full_factorial", "main_effects"]


@dataclass
class FactorialResult:
    """All 12-case records, the rendered table and the main effects."""

    records: list[ResponseRecord]
    report: str
    effects: dict[str, float] = field(default_factory=dict)


def main_effects(records: list[ResponseRecord], n_ranks: int = 8) -> dict[str, float]:
    """Mean total-time ratio between the worst and best level per factor.

    A crude main-effects measure at one processor count: for each factor,
    average the total time per level (over all other factor settings) and
    report max/min.  Ratios near 1 mean the factor barely matters.
    """
    at_p = [r for r in records if r.n_ranks == n_ranks]
    if not at_p:
        raise ValueError(f"no records at n_ranks={n_ranks}")

    def level_means(key) -> dict:
        means: dict = {}
        for level in sorted({key(r) for r in at_p}):
            group = [r.total_time for r in at_p if key(r) == level]
            means[level] = sum(group) / len(group)
        return means

    out = {}
    for name, key in (
        ("network", lambda r: r.network),
        ("middleware", lambda r: r.middleware),
        ("cpus_per_node", lambda r: r.cpus_per_node),
    ):
        means = level_means(key)
        out[name] = max(means.values()) / min(means.values())
    return out


def run_full_factorial(
    executor,
    processor_levels: tuple[int, ...] = (1, 2, 4, 8),
) -> FactorialResult:
    """Sec. 3.1: all 12 platform cases at every processor count, with main effects.

    ``executor`` is anything with ``measure(points) -> records``: a
    :class:`~repro.campaign.runner.CharacterizationRunner` (in-process,
    store-memoized) or a :class:`~repro.campaign.engine.CampaignEngine`
    (hits recalled from its store, misses fanned out over its workers).
    """
    points: list[DesignPoint] = full_factorial(
        PAPER_FACTOR_SPACE, processor_levels=processor_levels
    )
    records = executor.measure(points)
    effects = main_effects(records, n_ranks=max(processor_levels))

    effect_rows = [[name, ratio] for name, ratio in effects.items()]
    report = (
        time_series_table(records, "Full factorial design (all 12 cases)")
        + "\n\n== Main effects at p="
        + str(max(processor_levels))
        + " (worst/best level ratio of mean total time) ==\n"
        + format_table(["factor", "ratio"], effect_rows, precision=2)
    )
    return FactorialResult(records=records, report=report, effects=effects)
