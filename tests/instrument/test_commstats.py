"""Communication-speed statistics (the Figure 7 metric)."""

import pytest

from repro.cluster.state import TransferRecord
from repro.instrument import MIN_DATA_BYTES, CommTrace, communication_speeds


def _rec(nbytes, duration, start=0.0, src=0, dst=1):
    return TransferRecord(
        start=start, end=start + duration, src_node=src, dst_node=dst, nbytes=nbytes
    )


class TestCommunicationSpeeds:
    def test_empty(self):
        stats = communication_speeds([])
        assert stats.n_transfers == 0
        assert stats.mean == 0.0

    def test_single_transfer_rate(self):
        # 1 MB in 0.02 s -> 50 MB/s
        stats = communication_speeds([_rec(1_000_000, 0.02)])
        assert stats.mean == pytest.approx(50.0)
        assert stats.minimum == stats.maximum == pytest.approx(50.0)
        assert stats.n_transfers == 1

    def test_small_messages_excluded(self):
        stats = communication_speeds([_rec(100, 0.001), _rec(1_000_000, 0.02)])
        assert stats.n_transfers == 1
        assert stats.mean == pytest.approx(50.0)

    def test_threshold_boundary(self):
        at = _rec(MIN_DATA_BYTES, 0.001)
        below = _rec(MIN_DATA_BYTES - 1, 0.001)
        assert communication_speeds([at]).n_transfers == 1
        assert communication_speeds([below]).n_transfers == 0

    def test_min_max_spread(self):
        stats = communication_speeds([_rec(1_000_000, 0.01), _rec(1_000_000, 0.1)])
        assert stats.maximum == pytest.approx(100.0)
        assert stats.minimum == pytest.approx(10.0)
        assert stats.spread == pytest.approx(90.0)
        assert stats.mean == pytest.approx(55.0)

    def test_zero_duration_excluded(self):
        stats = communication_speeds([_rec(1_000_000, 0.0)])
        assert stats.n_transfers == 0

    def test_all_transfers_below_threshold_is_the_empty_summary(self):
        small = [_rec(MIN_DATA_BYTES - 1, 0.001, start=float(i)) for i in range(5)]
        stats = communication_speeds(small)
        assert stats.n_transfers == 0
        assert (stats.mean, stats.minimum, stats.maximum) == (0.0, 0.0, 0.0)
        assert stats.spread == 0.0

    def test_single_node_traffic_still_counts_by_rate(self):
        # one node talking to itself (src == dst): the summary is over
        # transfer records, not node pairs, so it must not divide by zero
        # or drop the observation
        stats = communication_speeds([_rec(1_000_000, 0.02, src=0, dst=0)])
        assert stats.n_transfers == 1
        assert stats.mean == pytest.approx(50.0)
        assert stats.spread == 0.0


class TestEmptyCommTrace:
    def test_empty_trace_has_no_events_of_any_kind(self):
        trace = CommTrace()
        assert len(trace) == 0
        assert trace.by_kind("send") == []
        assert trace.by_kind("recv") == []
        assert trace.by_kind("collective") == []
