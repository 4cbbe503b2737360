"""Every qualitative claim of the paper's evaluation, asserted.

These integration tests run the full benchmark workload (myoglobin +
CO + sulfate + 337 waters, 3552 atoms, 10 MD steps) on the simulated
platforms and check the *shape* results the paper reports: who wins, by
roughly what factor, and where the pathologies appear.  Absolute numbers
are calibrated, not measured — see EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fast_ethernet_comparison,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
)


@pytest.fixture(scope="module")
def fig3(figure_runner):
    return figure3(figure_runner)


@pytest.fixture(scope="module")
def fig4(figure_runner):
    return figure4(figure_runner)


@pytest.fixture(scope="module")
def fig5(figure_runner):
    return figure5(figure_runner)


@pytest.fixture(scope="module")
def fig7(figure_runner):
    return figure7(figure_runner)


@pytest.fixture(scope="module")
def fig8(figure_runner):
    return figure8(figure_runner)


@pytest.fixture(scope="module")
def fig9(figure_runner):
    return figure9(figure_runner)


class TestFigure3:
    """Reference case: wall times of classic vs PME."""

    def test_serial_total_near_paper(self, fig3):
        # the paper's chart: ~6.2 s for 10 steps on one processor
        assert fig3.series["total"][0] == pytest.approx(6.2, rel=0.10)

    def test_serial_pme_slightly_under_half(self, fig3):
        frac = fig3.series["pme"][0] / fig3.series["total"][0]
        assert 0.40 < frac < 0.50

    def test_pme_at_two_exceeds_serial_pme(self, fig3):
        """Sec 3.2: 'for two processors, the execution time of the PME
        calculation is actually larger than for one processor'."""
        assert fig3.series["pme"][1] >= fig3.series["pme"][0]

    def test_parallel_pme_share_grows(self, fig3):
        """'In the parallel version, the PME time is almost two thirds of
        the total calculation time.'"""
        share_p2 = fig3.series["pme"][1] / fig3.series["total"][1]
        assert share_p2 > 0.55

    def test_classic_time_decreases(self, fig3):
        classic = fig3.series["classic"]
        assert classic[1] < classic[0]
        assert classic[2] < classic[1]

    def test_scaling_stalls_by_eight(self, fig3):
        """TCP/IP scaling flattens: p=8 is nowhere near 8x faster."""
        speedup = fig3.series["total"][0] / fig3.series["total"][3]
        assert speedup < 4.0

    def test_some_speedup_remains_at_eight(self, fig3):
        total = fig3.series["total"]
        assert total[3] < total[0]  # some overall speedup remains


class TestFigure4:
    """Reference-case breakdowns."""

    def test_serial_is_pure_computation(self, fig4):
        assert fig4.series["classic_overhead"][0] == 0.0
        assert fig4.series["pme_overhead"][0] == 0.0

    def test_classic_overhead_under_ten_percent_at_two(self, fig4):
        assert fig4.series["classic_overhead"][1] < 0.10

    def test_classic_overhead_over_half_at_eight(self, fig4):
        """'increasing to over 60% for eight processors' — we accept > 50%."""
        assert fig4.series["classic_overhead"][3] > 0.50

    def test_pme_overhead_about_half_at_two(self, fig4):
        """'slightly more than 50% for two processors'."""
        assert 0.40 < fig4.series["pme_overhead"][1] < 0.65

    def test_pme_overhead_over_75_percent_at_eight(self, fig4):
        assert fig4.series["pme_overhead"][3] > 0.70

    def test_overheads_monotone_in_ranks(self, fig4):
        for key in ("classic_overhead", "pme_overhead"):
            series = fig4.series[key]
            assert series == sorted(series)


class TestFigure5:
    """Network comparison: better networks scale better."""

    def test_myrinet_fastest_at_eight(self, fig5):
        p8 = {net: fig5.series[net][3] for net in ("tcp-gige", "score-gige", "myrinet")}
        assert p8["myrinet"] < p8["score-gige"] < p8["tcp-gige"]

    def test_serial_times_identical(self, fig5):
        """p=1 involves no network: all three levels must agree."""
        t1 = [fig5.series[net][0] for net in ("tcp-gige", "score-gige", "myrinet")]
        assert max(t1) - min(t1) < 1e-9

    def test_score_improves_tcp_substantially_at_eight(self, fig5):
        """The paper's headline: better *software* on the same wire wins."""
        assert fig5.series["tcp-gige"][3] / fig5.series["score-gige"][3] > 1.5

    def test_good_networks_keep_scaling(self, fig5):
        for net in ("score-gige", "myrinet"):
            series = fig5.series[net]
            assert series[3] < series[2] < series[1] < series[0]
            speedup = series[0] / series[3]
            assert speedup > 3.5


class TestFigure6:
    """Breakdowns per network: overhead ordering."""

    @pytest.fixture(scope="class")
    def fig6(self, figure_runner):
        return figure6(figure_runner)

    @pytest.mark.parametrize("component", ["classic", "pme"])
    def test_overhead_ordering_at_eight(self, fig6, component):
        o = {
            net: fig6.series[f"{net}_{component}"][3]
            for net in ("tcp-gige", "score-gige", "myrinet")
        }
        assert o["myrinet"] < o["score-gige"] < o["tcp-gige"]

    def test_pme_needs_better_networks(self, fig6):
        """PME overhead exceeds classic overhead on every network (the
        paper: 'PME increases the dependency on the better networks')."""
        for net in ("tcp-gige", "score-gige", "myrinet"):
            assert fig6.series[f"{net}_pme"][1] > fig6.series[f"{net}_classic"][1]


class TestFigure7:
    """Communication speeds: rates and variability."""

    def test_myrinet_over_100_mbs(self, fig7):
        assert all(m > 100.0 for m in fig7.series["myrinet"]["mean"])

    def test_tcp_low_rate(self, fig7):
        assert all(m < 45.0 for m in fig7.series["tcp-gige"]["mean"])

    def test_rate_ordering(self, fig7):
        for i in range(3):  # p = 2, 4, 8
            assert (
                fig7.series["tcp-gige"]["mean"][i]
                < fig7.series["score-gige"]["mean"][i]
                < fig7.series["myrinet"]["mean"][i]
            )

    def test_tcp_variability_grows_abruptly(self, fig7):
        """'the high variability of MPI transfers over TCP/IP starts
        abruptly with four processors and gets worse with eight'."""
        tcp = fig7.series["tcp-gige"]
        spread = [tcp["max"][i] - tcp["min"][i] for i in range(3)]
        assert spread[1] > 1.5 * spread[0]
        assert spread[2] >= spread[1] * 0.9  # stays bad or worsens

    def test_score_stable(self, fig7):
        """'SCore provides stable and higher communication rate'."""
        score = fig7.series["score-gige"]
        tcp = fig7.series["tcp-gige"]
        for i in range(3):
            rel_spread_score = (score["max"][i] - score["min"][i]) / score["mean"][i]
            rel_spread_tcp = (tcp["max"][i] - tcp["min"][i]) / tcp["mean"][i]
            assert rel_spread_score < rel_spread_tcp

    def test_myrinet_stable(self, fig7):
        myr = fig7.series["myrinet"]
        for i in range(3):
            assert (myr["max"][i] - myr["min"][i]) / myr["mean"][i] < 0.6


class TestFigure8:
    """Middleware: CMPI destroys scalability on TCP/IP."""

    def test_cmpi_no_faster_than_mpi(self, fig8):
        for i in range(4):
            assert fig8.series["cmpi"]["total"][i] >= 0.95 * fig8.series["mpi"]["total"][i]

    def test_cmpi_blows_up_from_four_to_eight(self, fig8):
        """'With the increase from four to eight, both parts of the
        execution time are increasing instead of falling when CMPI is
        used.'"""
        cmpi = fig8.series["cmpi"]
        assert cmpi["classic"][3] > cmpi["classic"][2]
        assert cmpi["pme"][3] > cmpi["pme"][2]
        assert cmpi["total"][3] > cmpi["total"][2]

    def test_mpi_does_not_blow_up(self, fig8):
        mpi = fig8.series["mpi"]
        assert mpi["total"][3] < 1.2 * mpi["total"][2]

    def test_sync_explosion_is_the_cause(self, fig8):
        """Fig 8b: the slowdown is in the synchronization operations."""
        cmpi_sync = fig8.series["cmpi"]["sync"]
        assert cmpi_sync[3] > 3.0 * cmpi_sync[2]
        assert cmpi_sync[3] > fig8.series["mpi"]["sync"][3] * 3.0

    def test_identical_at_one_processor(self, fig8):
        assert fig8.series["cmpi"]["total"][0] == pytest.approx(
            fig8.series["mpi"]["total"][0], rel=1e-9
        )


class TestFigure9:
    """Dual-processor nodes: collapse on TCP/IP, fine on Myrinet."""

    def test_tcp_dual_times_increase_with_nodes(self, fig9):
        """'both the classic energy time and the PME energy time does not
        decrease but increases with the number of nodes in the dual
        processor case' (TCP/IP)."""
        dual = fig9.series["tcp-gige_dual"]
        assert dual[3] > dual[1]  # p=8 (4 nodes) worse than p=2 (1 node)
        assert dual[3] > dual[2]

    def test_tcp_dual_worse_than_uni_at_eight(self, fig9):
        assert fig9.series["tcp-gige_dual"][3] > fig9.series["tcp-gige_uni"][3]

    def test_myrinet_dual_keeps_scaling(self, fig9):
        """'This is not the case for network technologies such as SCore
        and Myrinet.'"""
        dual = fig9.series["myrinet_dual"]
        assert dual[3] < dual[2] < dual[1]

    def test_myrinet_dual_close_to_uni(self, fig9):
        """Shared-memory drivers handle two ranks per node gracefully."""
        assert fig9.series["myrinet_dual"][3] < 1.35 * fig9.series["myrinet_uni"][3]


class TestFastEthernetExtension:
    def test_fast_ethernet_not_much_worse(self, figure_runner):
        """Sec 4.1: 'Gigabit Ethernet did not perform much better than
        Fast Ethernet' under TCP/IP — overheads, not wire speed, dominate."""
        result = fast_ethernet_comparison(figure_runner)
        gige = result.series["tcp-gige"]
        fast = result.series["tcp-fast-ethernet"]
        # Fast Ethernet is slower, but by far less than the 10x wire ratio
        for i in (1, 2, 3):
            assert fast[i] / gige[i] < 3.0
        assert fast[3] >= gige[3] * 0.95
