"""Scaling metrics: speedup, efficiency, Karp-Flatt, recommendations."""

import pytest

from repro.core import karp_flatt, recommended_processors, scaling_metrics
from repro.core.responses import ResponseRecord


def _record(n_ranks, total):
    return ResponseRecord(
        network="tcp-gige",
        middleware="mpi",
        cpus_per_node=1,
        n_ranks=n_ranks,
        replicate=0,
        wall_time=total,
        classic_time=total * 0.6,
        pme_time=total * 0.4,
        classic_comp=total * 0.5,
        classic_comm=total * 0.05,
        classic_sync=total * 0.05,
        pme_comp=total * 0.2,
        pme_comm=total * 0.1,
        pme_sync=total * 0.1,
        comm_mean_mbs=10.0,
        comm_min_mbs=5.0,
        comm_max_mbs=20.0,
        final_energy=-1.0,
    )


class TestKarpFlatt:
    def test_perfect_speedup_gives_zero(self):
        assert karp_flatt(4.0, 4) == pytest.approx(0.0)

    def test_no_speedup_gives_one(self):
        assert karp_flatt(1.0, 4) == pytest.approx(1.0)

    def test_amdahl_consistency(self):
        # with serial fraction f, S = 1 / (f + (1-f)/p); KF must recover f
        f, p = 0.2, 8
        s = 1.0 / (f + (1 - f) / p)
        assert karp_flatt(s, p) == pytest.approx(f, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            karp_flatt(2.0, 1)
        with pytest.raises(ValueError):
            karp_flatt(0.0, 4)


class TestScalingMetrics:
    def test_basic_series(self):
        records = [_record(1, 8.0), _record(2, 4.0), _record(4, 2.5)]
        metrics = scaling_metrics(records)
        assert [m.n_ranks for m in metrics] == [1, 2, 4]
        assert metrics[0].speedup == pytest.approx(1.0)
        assert metrics[1].speedup == pytest.approx(2.0)
        assert metrics[1].efficiency == pytest.approx(1.0)
        assert metrics[2].efficiency == pytest.approx(0.8)
        assert metrics[0].serial_fraction is None
        assert metrics[2].serial_fraction == pytest.approx(karp_flatt(3.2, 4))

    def test_requires_serial_record(self):
        with pytest.raises(ValueError):
            scaling_metrics([_record(2, 4.0)])
        with pytest.raises(ValueError):
            scaling_metrics([_record(1, 8.0), _record(1, 8.0)])


class TestRecommendation:
    def test_picks_last_efficient_count(self):
        records = [
            _record(1, 8.0),
            _record(2, 4.2),  # eff 0.95
            _record(4, 2.8),  # eff 0.71
            _record(8, 2.6),  # eff 0.38
        ]
        assert recommended_processors(records, min_efficiency=0.5) == 4
        assert recommended_processors(records, min_efficiency=0.9) == 2
        assert recommended_processors(records, min_efficiency=0.2) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            recommended_processors([_record(1, 1.0)], min_efficiency=0.0)

    def test_serial_only(self):
        assert recommended_processors([_record(1, 8.0)]) == 1


class TestOnRealRuns:
    def test_good_network_recommends_more_processors(self, peptide_system):
        """End-to-end: the paper's conclusion, computed from simulation."""
        from repro.campaign import CharacterizationRunner
        from repro.core import FOCAL_POINT
        from repro.parallel import MDRunConfig

        system, pos = peptide_system
        runner = CharacterizationRunner(
            system=system, positions=pos, config=MDRunConfig(n_steps=2, dt=0.0004)
        )
        tcp = runner.sweep(FOCAL_POINT)
        myr = runner.sweep(FOCAL_POINT.with_level("network", "myrinet"))
        assert recommended_processors(myr, 0.5) >= recommended_processors(tcp, 0.5)
