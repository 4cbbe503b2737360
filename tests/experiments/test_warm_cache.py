"""Acceptance: warm-cache figure regeneration performs zero MD work.

The figure drivers accept any :class:`CharacterizationRunner`; backing
one with a persistent store and regenerating the same figure from a
fresh runner over the reopened store must recall every design point from
disk without a single non-bonded force evaluation.
"""

from repro.campaign import CharacterizationRunner, ResultStore
from repro.campaign.workloads import build_workload
from repro.experiments import figure3, figure4
from repro.instrument import FORCE_EVALUATIONS
from repro.parallel import MDRunConfig


def _store_backed_runner(store_root):
    system, positions = build_workload("peptide-tiny")
    return CharacterizationRunner(
        system=system,
        positions=positions,
        config=MDRunConfig(n_steps=2, dt=0.0004),
        store=ResultStore(store_root),
    )


class TestWarmFigureRegeneration:
    def test_second_figure_run_does_zero_md_work(self, tmp_path):
        cold = _store_backed_runner(tmp_path / "cache")
        first = figure3(cold)
        assert first.records
        cold.store.close()

        # fresh runner + reopened store: only the on-disk cache can answer
        warm = _store_backed_runner(tmp_path / "cache")
        before = FORCE_EVALUATIONS.snapshot()
        second = figure3(warm)
        assert FORCE_EVALUATIONS.delta(before) == 0
        assert second.series == first.series

    def test_figures_sharing_points_share_the_cache(self, tmp_path):
        """Figure 4 plots the same reference-case sweep figure 3 runs:
        with a shared store the second figure is free."""
        runner = _store_backed_runner(tmp_path / "cache")
        figure3(runner)
        before = FORCE_EVALUATIONS.snapshot()
        figure4(runner)
        assert FORCE_EVALUATIONS.delta(before) == 0
