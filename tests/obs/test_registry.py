"""Registry semantics: families, labels, histogram edges, thread safety.

The histogram edge cases here are load-bearing: the Prometheus ``le``
contract (a sample equal to an edge counts in that edge's bucket) is
what makes the exported cumulative buckets agree with what a real
scraper computes, and the exact-sum concurrency tests are what lets the
serve hot path trust lock-per-family accounting under thread churn.
"""

import json
import math
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricError,
    MetricsRegistry,
    quantile_from_buckets,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("requests_total", "requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("ops_total", "ops", ("op",))
        counter.labels("act").inc(3)
        counter.labels("open").inc()
        assert counter.labels("act").value == 3
        assert counter.labels("open").value == 1

    def test_bound_children_are_cached(self):
        counter = MetricsRegistry().counter("ops_total", "ops", ("op",))
        assert counter.labels("act") is counter.labels("act")

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(MetricError, match="only go up"):
            counter.inc(-1)

    def test_label_arity_enforced(self):
        counter = MetricsRegistry().counter("ops_total", "ops", ("op",))
        with pytest.raises(MetricError, match="label value"):
            counter.labels()
        with pytest.raises(MetricError, match="label value"):
            counter.labels("a", "b")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.labels().set(5)
        gauge.labels().inc(2)
        gauge.labels().dec()
        assert gauge.value == 6

    def test_set_max_keeps_high_water_mark(self):
        gauge = MetricsRegistry().gauge("peak")
        for value in (3, 9, 4):
            gauge.labels().set_max(value)
        assert gauge.value == 9

    def test_set_function_sampled_at_read(self):
        queue = [1, 2, 3]
        gauge = MetricsRegistry().gauge("depth")
        gauge.set_function(lambda: len(queue))
        assert gauge.value == 3
        queue.pop()
        assert gauge.value == 2

    def test_failing_callback_reads_nan_not_raise(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set_function(lambda: 1 / 0)
        assert math.isnan(gauge.value)
        snapshot = gauge.snapshot()
        assert math.isnan(snapshot["series"][0]["value"])


class TestRegistryGetOrCreate:
    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", "r", ("op",))
        b = registry.counter("requests_total", "r", ("op",))
        assert a is b

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError, match="already registered as counter"):
            registry.gauge("x")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labels=("op",))
        with pytest.raises(MetricError, match="labels"):
            registry.counter("x", labels=("code",))

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 2.0, 3.0))
        assert registry.histogram("h", buckets=(1.0, 2.0)) is registry.get("h")

    def test_value_reads_series_or_default(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", labels=("op",))
        counter.labels("act").inc(4)
        assert registry.value("ops_total", "act") == 4
        assert registry.value("ops_total", "never_touched") == 0.0
        assert registry.value("no_such_family", default=-1.0) == -1.0


class TestHistogramEdges:
    """Satellite: boundary values, overflow, and edge validation."""

    def test_boundary_value_lands_in_its_le_bucket(self):
        """Prometheus ``le`` semantics: observe(edge) counts in that
        edge's bucket, not the next one."""
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0, 10.0))
        child = histogram.labels()
        for value in (0.1, 1.0, 10.0):
            child.observe(value)
        assert child._counts == [1, 1, 1, 0]

    def test_below_first_edge_lands_in_first_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        child = histogram.labels()
        child.observe(0.0)
        child.observe(0.05)
        assert child._counts == [2, 0, 0]

    def test_above_last_edge_overflows_to_inf_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        child = histogram.labels()
        child.observe(1.0000001)
        child.observe(math.inf)
        assert child._counts == [0, 0, 2]
        assert child.count == 2

    def test_counts_sum_and_count_agree(self):
        histogram = MetricsRegistry().histogram("h", buckets=DEFAULT_LATENCY_BUCKETS_S)
        child = histogram.labels()
        for value in (0.0001, 0.003, 0.2, 99.0):
            child.observe(value)
        assert sum(child._counts) == child.count == 4
        assert child.sum == pytest.approx(0.0001 + 0.003 + 0.2 + 99.0)

    def test_empty_edges_rejected(self):
        with pytest.raises(MetricError, match="at least one"):
            MetricsRegistry().histogram("h", buckets=())

    def test_unsorted_or_duplicate_edges_rejected(self):
        with pytest.raises(MetricError, match="strictly increasing"):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(MetricError, match="strictly increasing"):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_nonfinite_edges_rejected(self):
        with pytest.raises(MetricError, match="finite"):
            MetricsRegistry().histogram("h", buckets=(1.0, math.inf))


class TestQuantiles:
    def test_empty_is_nan(self):
        assert math.isnan(quantile_from_buckets((1.0,), [0, 0], 0, 0.5))

    def test_interpolates_inside_bucket(self):
        # 10 samples uniform in the (1.0, 2.0] bucket: p50 sits mid-bucket.
        assert quantile_from_buckets((1.0, 2.0), [0, 10, 0], 10, 0.5) == pytest.approx(1.5)

    def test_first_bucket_interpolates_from_zero(self):
        assert quantile_from_buckets((2.0,), [10, 0], 10, 0.5) == pytest.approx(1.0)

    def test_overflow_bucket_reports_last_finite_edge(self):
        assert quantile_from_buckets((1.0, 2.0), [0, 0, 5], 5, 0.99) == 2.0

    @pytest.mark.parametrize(
        "counts,q,expected",
        [
            ([2, 3, 5, 0], 0.25, 1.0 + 0.5 / 3.0),
            ([2, 3, 5, 0], 0.5, 2.0),
            ([2, 3, 5, 0], 0.9, 3.6),
            ([2, 0, 8, 0], 0.6, 3.0),
        ],
        ids=["second-bucket", "second-bucket-top", "third-bucket", "past-an-empty-bucket"],
    )
    def test_interpolates_inside_a_later_bucket(self, counts, q, expected):
        """The rank walks past the earlier buckets' counts (and any empty
        bucket) before interpolating: edges 1, 2, 4."""
        assert quantile_from_buckets((1.0, 2.0, 4.0), counts, sum(counts), q) == pytest.approx(
            expected
        )

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(MetricError, match="quantile"):
            quantile_from_buckets((1.0,), [1, 0], 1, 1.5)

    def test_histogram_quantile_shortcut(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        child = histogram.labels()
        for _ in range(10):
            child.observe(1.5)
        assert child.quantile(0.5) == pytest.approx(1.5)


class TestConcurrency:
    """Satellite: exact totals and coherent snapshots under thread churn."""

    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, work):
        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_increments_are_exact(self):
        counter = MetricsRegistry().counter("ops_total", labels=("op",))
        child = counter.labels("act")
        self._hammer(lambda: [child.inc() for _ in range(self.PER_THREAD)])
        assert child.value == self.THREADS * self.PER_THREAD

    def test_histogram_observations_are_exact(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.5, 1.5))
        child = histogram.labels()
        self._hammer(lambda: [child.observe(1.0) for _ in range(self.PER_THREAD)])
        total = self.THREADS * self.PER_THREAD
        assert child.count == total
        assert child._counts == [0, total, 0]
        assert child.sum == pytest.approx(float(total))

    def test_snapshot_during_increments_is_internally_consistent(self):
        """Every snapshot taken mid-churn must satisfy the histogram
        invariant sum(counts) == count — a torn read would break it."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.5, 1.5))
        child = histogram.labels()
        stop = threading.Event()
        bad = []

        def snapshotter():
            while not stop.is_set():
                series = registry.snapshot()["h"]["series"][0]
                if sum(series["counts"]) != series["count"]:
                    bad.append(series)

        reader = threading.Thread(target=snapshotter)
        reader.start()
        self._hammer(lambda: [child.observe(1.0) for _ in range(self.PER_THREAD)])
        stop.set()
        reader.join()
        assert bad == []
        assert child.count == self.THREADS * self.PER_THREAD


class TestSnapshot:
    def test_snapshot_is_json_safe_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "b", ("op",)).labels("x").inc()
        registry.gauge("a_gauge", "a").set(2.0)
        registry.histogram("c_hist", "c", buckets=(1.0,)).observe(0.5)
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second
        assert json.loads(json.dumps(first)) == first
        assert list(first) == sorted(first)

    def test_series_sorted_by_label_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", labels=("op",))
        counter.labels("zeta").inc()
        counter.labels("alpha").inc()
        labels = [s["labels"]["op"] for s in registry.snapshot()["ops_total"]["series"]]
        assert labels == ["alpha", "zeta"]
