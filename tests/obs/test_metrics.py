"""MetricsRegistry: instruments, tags, percentiles, merge, enable/disable."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_tags_create_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("faults", kind="drop").inc()
        registry.counter("faults", kind="delay").inc(2)
        assert registry.counter("faults", kind="drop").value == 1
        assert registry.counter("faults", kind="delay").value == 2

    def test_same_tags_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a=1, b=2) is registry.counter("c", b=2, a=1)


class TestGauge:
    def test_keeps_last_value(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5
        assert gauge.peak == 2.5 and "peak" not in gauge.to_dict()

    def test_add_moves_a_level_and_keeps_its_high_water(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        gauge = a.gauge("resident", node="hub")
        for delta in (10, 20, -25, 5):
            gauge.add(delta)
        assert (gauge.value, gauge.peak) == (10, 30)
        assert gauge.to_dict()["peak"] == 30
        # the high-water survives both merge paths; the level is the other's
        b.gauge("resident", node="hub").add(12)
        b.merge(a)
        assert (b.gauge("resident", node="hub").value,
                b.gauge("resident", node="hub").peak) == (10, 30)
        c = MetricsRegistry()
        c.merge_dict(a.to_dict())
        assert c.gauge("resident", node="hub").peak == 30

    def test_add_is_safe_inside_the_registry_lock(self):
        """Buffer finalizers call ``add``; the cycle collector may run one on
        a thread that already holds the registry's (reentrant) lock."""
        registry = MetricsRegistry()
        gauge = registry.gauge("resident")
        with registry._lock:
            gauge.add(1)
        assert gauge.value == 1


class TestHistogram:
    def test_count_sum_mean_min_max(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.006)
        assert hist.mean == pytest.approx(0.002)
        assert hist.min == 0.001
        assert hist.max == 0.003

    def test_percentiles_bounded_by_observations(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.0012, 0.0017, 0.3, 0.4, 0.45):
            hist.observe(value)
        assert 0.0012 <= hist.percentile(10) <= 0.0025
        assert 0.25 < hist.percentile(99) <= 0.45
        assert hist.percentile(100) == pytest.approx(0.45, rel=0.1)

    def test_percentile_empty_is_zero(self):
        assert MetricsRegistry().histogram("h").percentile(50) == 0.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h").percentile(101)

    def test_overflow_bucket(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(DEFAULT_BUCKETS[-1] * 10)
        assert hist.count == 1
        assert hist.percentile(50) == pytest.approx(DEFAULT_BUCKETS[-1] * 10)

    def test_custom_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


class TestDisabledRegistry:
    def test_null_instruments_do_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(1)
        assert registry.counter("c").value == 0.0
        assert registry.histogram("h").percentile(99) == 0.0

    def test_to_dict_is_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        payload = registry.to_dict()
        assert payload["counters"] == []
        assert payload["gauges"] == []
        assert payload["histograms"] == []

    def test_global_registry_starts_disabled(self):
        # Module shorthands are no-ops until a session installs a registry.
        metrics.counter("tier1.should_not_record").inc()
        assert not any(c["name"] == "tier1.should_not_record"
                       for c in metrics.get_registry().to_dict()["counters"])


class TestSetRegistry:
    def test_swap_and_restore(self):
        mine = MetricsRegistry()
        previous = metrics.set_registry(mine)
        try:
            metrics.counter("swapped").inc()
            assert mine.counter("swapped").value == 1
        finally:
            assert metrics.set_registry(previous) is mine


class TestMerge:
    def test_counters_add_gauges_take_histograms_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(7)
        a.histogram("h").observe(0.001)
        b.histogram("h").observe(0.1)
        b.histogram("h").observe(0.2)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 7
        hist = a.histogram("h")
        assert hist.count == 3
        assert hist.min == 0.001
        assert hist.max == 0.2

    def test_merge_preserves_tags(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("faults", kind="drop").inc(4)
        a.merge(b)
        assert a.counter("faults", kind="drop").value == 4

    def test_merge_into_disabled_is_noop(self):
        a = MetricsRegistry(enabled=False)
        b = MetricsRegistry()
        b.counter("c").inc()
        a.merge(b)
        assert a.to_dict()["counters"] == []

    def test_merge_reads_a_live_registry(self):
        """Writers add instruments and keep observing while another thread
        merges: every merged copy is a consistent snapshot.  The writers
        create a fixed set of distinct counters, so a merge's cost does not
        grow with how long the test runs."""
        live = MetricsRegistry()
        stop = threading.Event()
        distinct = 512

        def write(offset):
            i = offset
            while not stop.is_set():
                live.counter("c", n=i % distinct).inc()
                live.histogram("h", n=i % 7).observe(0.01 * (i % 3))
                i += 4

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writers = [threading.Thread(target=write, args=(k,)) for k in range(4)]
        try:
            for writer in writers:
                writer.start()
            for _ in range(50):
                merged = MetricsRegistry()
                merged.merge(live)
                for hist in merged.to_dict()["histograms"]:
                    assert hist["count"] == sum(hist["bucket_counts"])
        finally:
            stop.set()
            for writer in writers:
                writer.join(timeout=5.0)
            sys.setswitchinterval(switch)
        assert not any(writer.is_alive() for writer in writers)


class TestExport:
    def test_schema_and_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c", topic="train").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.01)
        path = registry.save_json(tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.obs.metrics/v1"
        assert payload["counters"][0] == {"name": "c", "tags": {"topic": "train"},
                                          "value": 2}
        (hist,) = payload["histograms"]
        assert hist["count"] == 1
        assert len(hist["bucket_counts"]) == len(hist["buckets"]) + 1

    def test_export_sorted_by_name_and_tags(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a", t="2").inc()
        registry.counter("a", t="1").inc()
        names = [(c["name"], c["tags"]) for c in registry.to_dict()["counters"]]
        assert names == [("a", {"t": "1"}), ("a", {"t": "2"}), ("z", {})]


class TestExactSmallSamplePercentiles:
    """Regression: small-sample percentiles must be exact, not bucket bounds."""

    def test_single_observation_p50_is_the_observation(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(0.03)
        assert hist.percentile(50) == 0.03
        assert hist.percentile(0) == 0.03
        assert hist.percentile(100) == 0.03

    def test_two_observations_interpolate_exactly(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(0.0002)
        hist.observe(0.03)
        # exact midpoint, not the 0.00025 bucket bound
        assert hist.percentile(50) == pytest.approx(0.0151)

    def test_matches_numpy_linear_method(self):
        import numpy as np

        values = [0.0001 * (i ** 2 + 1) for i in range(20)]
        hist = MetricsRegistry().histogram("h")
        for v in values:
            hist.observe(v)
        for p in (10, 25, 50, 75, 90, 99):
            assert hist.percentile(p) == pytest.approx(
                float(np.percentile(values, p)))

    def test_falls_back_to_buckets_past_the_limit(self):
        hist = MetricsRegistry().histogram("h")
        for i in range(metrics.EXACT_SAMPLE_LIMIT + 1):
            hist.observe(0.001 * (i + 1))
        assert hist._samples is None
        # bucket estimate stays within the observed range
        assert hist.min <= hist.percentile(50) <= hist.max

    def test_merge_keeps_exactness_when_reservoirs_fit(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(0.01)
        b.histogram("h").observe(0.05)
        a.merge(b)
        assert a.histogram("h").percentile(50) == pytest.approx(0.03)

    def test_merge_drops_reservoir_when_too_big(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for i in range(metrics.EXACT_SAMPLE_LIMIT - 1):
            a.histogram("h").observe(0.001)
        for i in range(10):
            b.histogram("h").observe(0.002)
        a.merge(b)
        assert a.histogram("h")._samples is None
        assert a.histogram("h").count == metrics.EXACT_SAMPLE_LIMIT + 9
