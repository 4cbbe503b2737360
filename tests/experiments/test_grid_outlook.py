"""Grid-outlook driver structure (small workload)."""

import pytest

from repro.campaign import CharacterizationRunner
from repro.experiments import grid_outlook
from repro.parallel import MDRunConfig


@pytest.fixture(scope="module")
def outlook(peptide_system):
    system, pos = peptide_system
    runner = CharacterizationRunner(
        system=system, positions=pos, config=MDRunConfig(n_steps=1, dt=0.0004)
    )
    return grid_outlook(runner)


class TestGridOutlook:
    def test_series_shape(self, outlook):
        assert outlook.series["p"] == [2, 4]
        assert len(outlook.series["grid"]) == 2
        assert len(outlook.series["slowdown"]) == 2

    def test_grid_slower_than_local(self, outlook):
        for s in outlook.series["slowdown"]:
            assert s > 1.0

    def test_grid_defeats_parallelism(self, outlook):
        """Over the wide area, the parallel run loses to just running
        serially on one node — the paper's 'particular challenge'."""
        assert min(outlook.series["grid"]) > outlook.series["serial"]

    def test_report_renders(self, outlook):
        assert "wide-area" in outlook.report
