"""Figure drivers: structure of the results (fast, small workload)."""

import pytest

from repro.campaign import CharacterizationRunner
from repro.experiments import ALL_FIGURES, extrapolation, figure3, figure7, figure9
from repro.parallel import MDRunConfig


@pytest.fixture(scope="module")
def small_runner(peptide_system):
    system, pos = peptide_system
    return CharacterizationRunner(
        system=system, positions=pos, config=MDRunConfig(n_steps=2, dt=0.0004)
    )


@pytest.fixture(scope="module")
def small_results(small_runner):
    """Every registered driver, run once on the small workload."""
    return {name: driver(small_runner) for name, driver in ALL_FIGURES.items()}


class TestRegistry:
    def test_all_figures_registered(self, small_results, pinned_tables):
        """The ids, in the order ``figures --all`` prints them, and each
        driver's title line in the committed tables."""
        assert list(ALL_FIGURES) == [
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "fast_ethernet",
            "extrapolation",
            "grid_outlook",
            "throughput",
            "full_factorial",
            "ablation_eager",
            "ablation_interrupts",
            "ablation_middleware_sync",
            "ablation_pme_grid",
        ]
        for name, result in small_results.items():
            assert result.report.partition("\n")[0] in pinned_tables, name


class TestDriverStructure:
    def test_figure3_series(self, small_runner):
        res = figure3(small_runner)
        assert res.series["p"] == [1, 2, 4, 8]
        assert len(res.series["classic"]) == 4
        assert "Figure 3" in res.report
        assert res.figure == "figure3"

    def test_figure7_series(self, small_runner):
        res = figure7(small_runner)
        for net in ("tcp-gige", "score-gige", "myrinet"):
            assert len(res.series[net]["mean"]) == 3
            assert all(
                res.series[net]["min"][i] <= res.series[net]["mean"][i] <= res.series[net]["max"][i]
                for i in range(3)
            )

    def test_figure9_series(self, small_runner):
        res = figure9(small_runner)
        assert set(res.series) == {
            "tcp-gige_uni",
            "tcp-gige_dual",
            "myrinet_uni",
            "myrinet_dual",
        }

    def test_extrapolation_reaches_sixteen(self, small_runner):
        res = extrapolation(small_runner)
        assert res.series["p"] == [1, 2, 4, 8, 16]
        for net in ("tcp-gige", "score-gige", "myrinet"):
            assert len(res.series[net]) == 5

    def test_all_reports_render(self, small_results):
        for name, res in small_results.items():
            assert isinstance(res.report, str) and res.report.startswith("== "), name
            # the throughput study derives plans and the ablations run
            # platforms no design point expresses: tables without records
            if name != "throughput" and not name.startswith("ablation_"):
                assert res.records, name

    def test_runner_cache_shared_across_figures(self, small_runner):
        """Figure 4 reuses Figure 3's runs (same design points)."""
        n_before = len(small_runner.store)
        figure3(small_runner)
        n_mid = len(small_runner.store)
        from repro.experiments import figure4

        figure4(small_runner)
        assert len(small_runner.store) == n_mid
        assert n_mid >= n_before
