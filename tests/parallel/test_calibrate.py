"""Cost-model calibration utility."""

from pathlib import Path

import pytest

from repro.campaign.workloads import build_workload
from repro.parallel import MachineCostModel
from repro.parallel.calibrate import WINDOW_STEPS, WorkloadCounts, calibrate, measure_counts
from repro.parallel.costmodel import PIII_1GHZ

TABLES = Path(__file__).resolve().parents[2] / "EXPERIMENTS.tables.txt"


@pytest.fixture(scope="module")
def counts(peptide_system):
    system, pos = peptide_system
    return measure_counts(system, pos)


class TestMeasureCounts:
    def test_counts_positive(self, counts):
        assert counts.pairs_in_cutoff > 0
        assert counts.bonded_terms > 0
        assert counts.exclusions > 0
        assert counts.spread_points > 0
        assert counts.fft_unit_count > 0

    def test_spread_points_formula(self, counts, peptide_system):
        system, _ = peptide_system
        assert counts.spread_points == 2 * system.n_atoms * system.pme.order**3

    def test_classic_system_has_no_pme_counts(self, peptide_system_shift):
        system, pos = peptide_system_shift
        c = measure_counts(system, pos)
        assert c.spread_points == 0
        assert c.fft_unit_count == 0
        assert c.grid_points == 0


class TestCalibrate:
    def test_hits_targets_exactly(self, counts):
        model = calibrate(counts, classic_target=0.34, pme_target=0.28)
        assert counts.classic_seconds(model) == pytest.approx(0.34, rel=1e-12)
        assert counts.pme_seconds(model) == pytest.approx(0.28, rel=1e-12)

    def test_preserves_internal_ratios(self, counts):
        base = MachineCostModel()
        model = calibrate(counts, 0.5, 0.5, base=base)
        assert model.pair_cost / model.bonded_cost == pytest.approx(
            base.pair_cost / base.bonded_cost
        )
        assert model.spread_cost / model.fft_cost == pytest.approx(
            base.spread_cost / base.fft_cost
        )

    def test_faster_machine_smaller_constants(self, counts):
        slow = calibrate(counts, 0.4, 0.4)
        fast = calibrate(counts, 0.2, 0.2)
        assert fast.pair_cost == pytest.approx(slow.pair_cost / 2)
        assert fast.fft_cost == pytest.approx(slow.fft_cost / 2)

    def test_validation(self, counts):
        with pytest.raises(ValueError):
            calibrate(counts, 0.0, 0.3)
        with pytest.raises(ValueError):
            calibrate(counts, 0.3, -1.0)

    def test_reference_model_consistency(self, counts):
        """PIII_1GHZ should be (close to) what calibrate() would produce for
        the paper's serial split on the full workload — spot-check the
        procedure is self-consistent on this smaller system."""
        model = calibrate(counts, 0.1, 0.05)
        recal = calibrate(counts, 0.1, 0.05, base=model)
        assert recal.pair_cost == pytest.approx(model.pair_cost)


class TestReproducesThePlatform:
    def test_figure3_serial_point_yields_piii_1ghz(self):
        """DESIGN §8: the fit at the pinned serial point of Figure 3 is
        ``PIII_1GHZ`` — the window's one list build included."""
        row = TABLES.read_text().splitlines()[3].split()
        assert row[:2] == ["tcp-gige/mpi/uni", "1"]
        classic, pme = float(row[2]), float(row[3])
        counts = measure_counts(*build_workload("myoglobin-pme"))
        model = calibrate(counts, classic / WINDOW_STEPS, pme / WINDOW_STEPS)
        assert model.pair_cost == pytest.approx(PIII_1GHZ.pair_cost, rel=1e-3)
        assert model.fft_cost == pytest.approx(PIII_1GHZ.fft_cost, rel=1e-3)


class TestWorkloadCounts:
    def test_seconds_helpers(self):
        m = MachineCostModel()
        c = WorkloadCounts(
            pairs_in_cutoff=100,
            bonded_terms=10,
            exclusions=5,
            n_atoms=20,
            spread_points=50,
            fft_unit_count=30.0,
            grid_points=40,
            list_candidates=700,
        )
        assert c.classic_seconds(m) == pytest.approx(
            100 * m.pair_cost
            + 10 * m.bonded_cost
            + 20 * m.integrate_cost
            + 700 * m.pair_candidate_cost / WINDOW_STEPS
        )
        assert c.pme_seconds(m) == pytest.approx(
            50 * m.spread_cost + 30 * m.fft_cost + 40 * m.grid_cost + 5 * m.exclusion_cost
        )
