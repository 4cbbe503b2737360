"""Characterization runner over a small workload (fast end-to-end)."""

import pytest

from repro.campaign import CharacterizationRunner
from repro.core import FOCAL_POINT, DesignPoint, ResponseRecord
from repro.parallel import MDRunConfig


@pytest.fixture(scope="module")
def runner(peptide_system):
    system, pos = peptide_system
    return CharacterizationRunner(
        system=system, positions=pos, config=MDRunConfig(n_steps=2, dt=0.0004)
    )


class TestRunner:
    def test_sweep_produces_records(self, runner):
        records = runner.sweep(FOCAL_POINT, processor_levels=(1, 2))
        assert len(records) == 2
        assert [r.n_ranks for r in records] == [1, 2]
        for r in records:
            assert isinstance(r, ResponseRecord)
            assert r.total_time > 0
            assert r.network == "tcp-gige"

    def test_replicates_get_fresh_seeds(self, runner):
        a = runner.run_record(DesignPoint(config=FOCAL_POINT, n_ranks=2, replicate=0))
        b = runner.run_record(DesignPoint(config=FOCAL_POINT, n_ranks=2, replicate=1))
        assert a.total_time != b.total_time

    def test_measure_full_design(self, runner):
        points = [
            DesignPoint(config=FOCAL_POINT.with_level("network", n), n_ranks=2)
            for n in ("tcp-gige", "myrinet")
        ]
        records = runner.measure(points)
        assert {r.network for r in records} == {"tcp-gige", "myrinet"}


class TestResponseRecord:
    def test_derived_quantities(self, runner):
        (rec,) = runner.sweep(FOCAL_POINT, processor_levels=(2,))
        assert rec.total_time == pytest.approx(rec.classic_time + rec.pme_time)
        assert 0 <= rec.classic_overhead_fraction <= 1
        assert 0 <= rec.pme_overhead_fraction <= 1
        assert rec.total_comp == pytest.approx(rec.classic_comp + rec.pme_comp)

    def test_as_dict(self, runner):
        (rec,) = runner.sweep(FOCAL_POINT, processor_levels=(1,))
        d = rec.as_dict()
        assert d["n_ranks"] == 1
        assert d["network"] == "tcp-gige"

    def test_serial_record_has_no_overhead(self, runner):
        (rec,) = runner.sweep(FOCAL_POINT, processor_levels=(1,))
        assert rec.classic_comm == 0.0
        assert rec.classic_sync == 0.0
        assert rec.pme_overhead_fraction == 0.0
