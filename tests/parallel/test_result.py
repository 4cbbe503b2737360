"""ParallelRunResult aggregation helpers."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.core import FOCAL_POINT, DesignPoint, ResponseRecord
from repro.instrument import PhaseTotals, Timeline
from repro.md import EnergyBreakdown
from repro.parallel import MDRunConfig
from repro.parallel.result import ParallelRunResult


def _make_result(timelines, transfers=(), energies=None):
    return ParallelRunResult(
        spec=ClusterSpec(n_ranks=len(timelines), network=tcp_gigabit_ethernet()),
        config=MDRunConfig(n_steps=1),
        energies=energies if energies is not None else [EnergyBreakdown(lj=-1.0)],
        timelines=timelines,
        transfers=list(transfers),
        final_positions=np.zeros((2, 3)),
    )


def _timeline(classic=(1.0, 0.0, 0.0), pme=(0.5, 0.0, 0.0)):
    tl = Timeline()
    with tl.phase("classic"):
        tl.add("comp", classic[0])
        tl.add("comm", classic[1])
        tl.add("sync", classic[2])
    with tl.phase("pme"):
        tl.add("comp", pme[0])
        tl.add("comm", pme[1])
        tl.add("sync", pme[2])
    return tl


class TestAggregation:
    def test_wall_time_is_max_over_ranks(self):
        res = _make_result([_timeline((1.0, 0, 0)), _timeline((3.0, 0, 0))])
        assert res.wall_time() == pytest.approx(3.0 + 0.5)

    def test_component_is_mean_over_ranks(self):
        res = _make_result(
            [_timeline((1.0, 0.2, 0.0)), _timeline((3.0, 0.0, 0.4))]
        )
        classic = res.component("classic")
        assert classic.comp == pytest.approx(2.0)
        assert classic.comm == pytest.approx(0.1)
        assert classic.sync == pytest.approx(0.2)

    def test_missing_phase_is_zero(self):
        res = _make_result([_timeline()])
        assert res.component("bonded").total == 0.0

    def test_total_breakdown_sums_phases(self):
        res = _make_result([_timeline((1.0, 0.1, 0.2), (0.5, 0.3, 0.4))])
        total = res.total_breakdown()
        assert total.comp == pytest.approx(1.5)
        assert total.comm == pytest.approx(0.4)
        assert total.sync == pytest.approx(0.6)

    def test_empty_transfer_stats(self):
        res = _make_result([_timeline()])
        stats = res.comm_stats()
        assert stats.n_transfers == 0

    def test_summary_with_no_energies(self):
        res = _make_result([_timeline()], energies=[])
        point = DesignPoint(config=FOCAL_POINT, n_ranks=1)
        assert np.isnan(ResponseRecord.from_run(point, res).final_energy)


class TestPhaseTotalsHelpers:
    def test_component_returns_phase_totals_type(self):
        res = _make_result([_timeline()])
        assert isinstance(res.component("classic"), PhaseTotals)
