"""Metrics registry: counters, gauges, histograms, snapshot/delta/merge."""

import json

import pytest

from repro.instrument.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metrics,
)


class TestCounter:
    def test_increment_and_snapshot_delta(self):
        c = Counter("events")
        c.increment()
        c.increment(3)
        base = c.snapshot()
        c.increment()
        assert c.count == 5
        assert c.delta(base) == 1

    def test_labels_split_the_total(self):
        c = Counter("points")
        c.increment(status="hit")
        c.increment(2, status="ran")
        c.increment(status="hit")
        assert c.count == 4
        assert c.labels == {"status=hit": 2, "status=ran": 2}


class TestGauge:
    def test_set_and_snapshot(self):
        g = Gauge("depth")
        g.set(7)
        assert g.snapshot() == 7.0


class TestHistogram:
    def test_streaming_stats(self):
        h = Histogram("wall")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        assert (h.minimum, h.maximum) == (1.0, 3.0)

    def test_empty_doc_has_no_infinities(self):
        doc = Histogram("wall").to_doc()
        assert doc == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").increment(status="ok")
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(1.0)
        doc = json.loads(json.dumps(reg.snapshot()))
        assert doc["counters"]["c"]["total"] == 1
        assert doc["gauges"]["g"] == 2.5
        assert doc["histograms"]["h"]["count"] == 1

    def test_delta_reports_only_the_window(self):
        reg = MetricsRegistry()
        reg.counter("c").increment(10)
        reg.counter("quiet").increment(5)
        reg.histogram("h").observe(1.0)
        before = reg.snapshot()
        reg.counter("c").increment(2, status="ran")
        reg.histogram("h").observe(4.0)
        delta = reg.delta(before)
        assert delta["counters"]["c"] == {"total": 2, "labels": {"status=ran": 2}}
        assert "quiet" not in delta["counters"]
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(4.0)

    def test_empty_delta_is_empty(self):
        reg = MetricsRegistry()
        reg.counter("c").increment()
        before = reg.snapshot()
        delta = reg.delta(before)
        assert delta["counters"] == {}
        assert delta["histograms"] == {}


class TestMerge:
    def test_counters_add_and_labels_fold(self):
        a = {"counters": {"c": {"total": 2, "labels": {"w=a": 2}}}}
        b = {"counters": {"c": {"total": 3, "labels": {"w=b": 3}}}}
        merged = merge_metrics(a, b)
        assert merged["counters"]["c"]["total"] == 5
        assert merged["counters"]["c"]["labels"] == {"w=a": 2, "w=b": 3}

    def test_histograms_widen(self):
        a = {"histograms": {"h": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}}}
        b = {"histograms": {"h": {"count": 1, "sum": 9.0, "min": 9.0, "max": 9.0}}}
        merged = merge_metrics(a, b)
        assert merged["histograms"]["h"] == {
            "count": 3, "sum": 12.0, "min": 1.0, "max": 9.0,
        }

    def test_gauges_keep_largest_magnitude(self):
        merged = merge_metrics({"gauges": {"g": -5.0}}, {"gauges": {"g": 2.0}})
        assert merged["gauges"]["g"] == -5.0

    def test_merge_of_nothing_is_empty(self):
        assert merge_metrics() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestBackCompatShim:
    def test_event_counters_are_registry_backed(self):
        from repro.instrument import FORCE_EVALUATIONS
        from repro.instrument.metrics import REGISTRY

        assert FORCE_EVALUATIONS is REGISTRY.counter("md.force_evaluations")
        base = FORCE_EVALUATIONS.snapshot()
        FORCE_EVALUATIONS.increment()
        assert FORCE_EVALUATIONS.delta(base) == 1
