"""Unit tests for the unified metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.core.scenario import DOCTOR_RESEARCHER_TABLE
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, render_key
from repro.obs.registry import HISTOGRAM_BUCKET_BOUNDS


class TestRenderKey:
    def test_bare_name_without_labels(self):
        assert render_key("hits", ()) == "hits"

    def test_labels_render_prometheus_style(self):
        key = render_key("latency", (("tenant", "doctor"), ("zone", "a")))
        assert key == 'latency{tenant="doctor",zone="a"}'


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_settable_gauge(self):
        gauge = Gauge()
        gauge.set(7)
        assert gauge.value == 7

    def test_callback_gauge_reads_live_state(self):
        state = {"depth": 1}
        gauge = Gauge(fn=lambda: state["depth"])
        assert gauge.value == 1
        state["depth"] = 9
        assert gauge.value == 9

    def test_setting_callback_gauge_rejected(self):
        gauge = Gauge(fn=lambda: 0)
        with pytest.raises(ValueError):
            gauge.set(3)
        with pytest.raises(ValueError):
            gauge.add(1)

    def test_add_tracks_value_and_peak(self):
        gauge = Gauge()
        assert gauge.value == 0 and gauge.peak == 0
        assert gauge.add(1) == 1
        gauge.add(2)
        assert gauge.value == 3 and gauge.peak == 3
        gauge.add(-1)
        assert gauge.value == 2 and gauge.peak == 3

    def test_set_sets_value_outright_and_keeps_peak(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2 and gauge.peak == 5
        gauge.set(9)
        assert gauge.peak == 9

    def test_snapshot_renders_current_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("outstanding")
        gauge.add(1)
        assert registry.snapshot()["gauges"] == {"outstanding": 1}
        assert gauge.peak == 1

    def test_peak_thread_safe_under_contention(self):
        gauge = Gauge()
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait(timeout=10)
            for _ in range(2_000):
                gauge.add(1)
                gauge.add(-1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert gauge.value == 0
        assert 1 <= gauge.peak <= 4


class TestHistogram:
    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(95.0) == 0.0
        assert histogram.summary()["max"] == 0.0

    def test_statistics(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0, 10.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(4.0)
        assert summary["median"] == pytest.approx(3.0)
        assert summary["max"] == 10.0
        # p95 interpolates between ranks: rank 0.95*4 = 3.8 → 4 + 0.8*(10-4).
        assert histogram.percentile(95.0) == pytest.approx(8.8)
        assert summary["count"] == 5.0
        assert summary["p95"] == pytest.approx(8.8)
        assert summary["p99"] == pytest.approx(histogram.percentile(99.0))

    def test_percentile_interpolates_small_samples(self):
        histogram = Histogram()
        for value in range(1, 11):  # 1..10
            histogram.observe(float(value))
        assert histogram.percentile(50.0) == pytest.approx(5.5)
        assert histogram.percentile(95.0) == pytest.approx(9.55)
        assert histogram.percentile(99.0) == pytest.approx(9.91)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(100.0) == 10.0

    def test_percentile_edge_cases(self):
        histogram = Histogram()
        assert histogram.percentile(99.0) == 0.0
        histogram.observe(7.0)
        # A single sample is every percentile.
        assert histogram.percentile(95.0) == 7.0
        assert histogram.percentile(99.0) == 7.0
        for q in (101.0, -1.0):
            with pytest.raises(ValueError):
                histogram.percentile(q)

    def test_p50_matches_median_and_appears_in_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0, 10.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] == pytest.approx(summary["median"])
        assert summary["p50"] == pytest.approx(3.0)

    def test_buckets_are_fixed_log_scale(self):
        # Bounds double from 1 ms; fixed across histograms and runs.
        assert HISTOGRAM_BUCKET_BOUNDS[0] == pytest.approx(0.001)
        ratios = [b / a for a, b in zip(HISTOGRAM_BUCKET_BOUNDS,
                                        HISTOGRAM_BUCKET_BOUNDS[1:])]
        assert all(ratio == pytest.approx(2.0) for ratio in ratios)

    def test_buckets_count_samples_by_upper_bound(self):
        histogram = Histogram()
        # 0.001 lands exactly on the first bound; 0.0015 needs the second.
        for value in (0.001, 0.0015, 0.0015, 1e9):
            histogram.observe(value)
        buckets = histogram.buckets()
        assert buckets[repr(0.001)] == 1
        assert buckets[repr(0.002)] == 2
        # Samples beyond the last bound overflow into "+inf", listed last.
        assert buckets["+inf"] == 1
        assert list(buckets)[-1] == "+inf"
        assert sum(buckets.values()) == histogram.count

    def test_buckets_omit_empty_buckets(self):
        histogram = Histogram()
        histogram.observe(0.5)
        buckets = histogram.buckets()
        assert len(buckets) == 1
        assert histogram.buckets() == buckets  # stable
        assert Histogram().buckets() == {}

    def test_observe_workflow_latency(self, fresh_paper_system):
        histogram = Histogram()
        trace = fresh_paper_system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-v2"})
        histogram.observe(trace.elapsed)
        assert histogram.count == 1
        assert histogram.mean > 0

    def test_to_dict_renders_summary_and_buckets(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(3.0)
        payload = histogram.to_dict()
        assert payload["summary"]["count"] == 2.0
        assert sum(payload["buckets"].values()) == 2


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("writes")
        first.inc()
        assert registry.counter("writes") is first
        assert registry.counter("writes").value == 1

    def test_labels_distinguish_instruments_order_independently(self):
        registry = MetricsRegistry()
        a = registry.counter("latency", tenant="doctor", zone="a")
        same = registry.counter("latency", zone="a", tenant="doctor")
        other = registry.counter("latency", tenant="patient", zone="a")
        assert a is same
        assert a is not other

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("writes")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("writes")

    def test_len_counts_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c", tenant="x")
        assert len(registry) == 3

    def test_snapshot_renders_every_kind_sorted(self):
        registry = MetricsRegistry()
        registry.counter("writes").inc(2)
        registry.gauge("depth", fn=lambda: 4)
        registry.histogram("latency", tenant="doctor").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"writes": 2}
        assert snapshot["gauges"] == {"depth": 4}
        (key,) = snapshot["histograms"]
        assert key == 'latency{tenant="doctor"}'
        assert snapshot["histograms"][key]["summary"]["count"] == 1.0

    def test_snapshot_ordering_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", z="1")
        registry.counter("a", y="1")
        assert list(registry.snapshot()["counters"]) == [
            'a{y="1"}', 'a{z="1"}', "b"]
