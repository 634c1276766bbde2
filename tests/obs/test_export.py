"""Exporters: Prometheus text rendering/parsing, HTTP scrape, JSONL CRC."""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    JSONLMetricsSink,
    MetricsHTTPExporter,
    MetricsRegistry,
    parse_prometheus_text,
    read_metrics_jsonl,
    to_prometheus_text,
)


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("requests_total", "served requests", ("op",)).labels("act").inc(7)
    registry.gauge("queue_depth", "pending requests").set(3)
    histogram = registry.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.1, 0.5, 2.0):
        histogram.observe(value)
    return registry


class TestPrometheusText:
    def test_help_and_type_lines(self):
        text = to_prometheus_text(sample_registry().snapshot())
        assert "# HELP requests_total served requests" in text
        assert "# TYPE requests_total counter" in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE latency_seconds histogram" in text

    def test_counter_and_gauge_samples(self):
        text = to_prometheus_text(sample_registry().snapshot())
        assert 'requests_total{op="act"} 7' in text
        assert "queue_depth 3" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = to_prometheus_text(sample_registry().snapshot())
        # 0.05 and 0.1 both land le=0.1 (boundary counts inward).
        assert 'latency_seconds_bucket{le="0.1"} 2' in text
        assert 'latency_seconds_bucket{le="1"} 3' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert "latency_seconds_count 4" in text
        assert "latency_seconds_sum 2.65" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "", ("k",)).labels('we"ird\nvalue\\x').inc()
        text = to_prometheus_text(registry.snapshot())
        assert 'c{k="we\\"ird\\nvalue\\\\x"} 1' in text
        parsed = parse_prometheus_text(text)
        assert parsed["c"][0][0] == {"k": 'we"ird\nvalue\\x'}

    def test_nan_and_inf_values_render(self):
        registry = MetricsRegistry()
        registry.gauge("g").set_function(lambda: 1 / 0)  # snapshot reads NaN
        text = to_prometheus_text(registry.snapshot())
        assert "g NaN" in text

    def test_parse_roundtrip(self):
        snapshot = sample_registry().snapshot()
        parsed = parse_prometheus_text(to_prometheus_text(snapshot))
        assert parsed["requests_total"] == [({"op": "act"}, 7.0)]
        assert parsed["queue_depth"] == [({}, 3.0)]
        buckets = {
            labels["le"]: value for labels, value in parsed["latency_seconds_bucket"]
        }
        assert buckets == {"0.1": 2.0, "1": 3.0, "+Inf": 4.0}

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("name not-a-number\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text('name{k=unquoted} 1\n')

    def test_multi_label_samples_roundtrip(self):
        """Label values may hold commas, quotes, backslashes and newlines:
        the parser splits labels on commas outside quotes only."""
        registry = MetricsRegistry()
        counter = registry.counter("calls_total", "calls", ("op", "replica"))
        counter.labels("act,end", 'a"b\\c').inc(2)
        counter.labels("open", "line\nbreak").inc(5)
        histogram = registry.histogram("wait_seconds", "wait", ("replica",), buckets=(1.0,))
        histogram.labels("x,y").observe(0.5)
        parsed = parse_prometheus_text(to_prometheus_text(registry.snapshot()))
        assert sorted(parsed["calls_total"], key=lambda item: item[1]) == [
            ({"op": "act,end", "replica": 'a"b\\c'}, 2.0),
            ({"op": "open", "replica": "line\nbreak"}, 5.0),
        ]
        assert parsed["wait_seconds_bucket"] == [
            ({"replica": "x,y", "le": "1"}, 1.0),
            ({"replica": "x,y", "le": "+Inf"}, 1.0),
        ]

    @pytest.mark.parametrize("value,text", [(math.inf, "+Inf"), (-math.inf, "-Inf")], ids=["plus", "minus"])
    def test_infinite_values_render_signed(self, value, text):
        registry = MetricsRegistry()
        registry.gauge("g").set(value)
        exposition = to_prometheus_text(registry.snapshot())
        assert f"g {text}" in exposition
        assert parse_prometheus_text(exposition)["g"] == [({}, value)]

    def test_parse_rejects_a_sample_without_a_name(self):
        with pytest.raises(ValueError, match="malformed metric name"):
            parse_prometheus_text('{k="v"} 1\n')


class TestHTTPExporter:
    def _get(self, address, path):
        host, port = address
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10.0) as r:
            return r.read().decode("utf-8"), r.headers.get("Content-Type", "")

    def test_metrics_endpoint_serves_parseable_exposition(self):
        with MetricsHTTPExporter(sample_registry()) as exporter:
            body, content_type = self._get(exporter.address, "/metrics")
            assert content_type.startswith("text/plain")
            parsed = parse_prometheus_text(body)
            assert parsed["requests_total"] == [({"op": "act"}, 7.0)]

    def test_json_endpoint_matches_snapshot(self):
        registry = sample_registry()
        with MetricsHTTPExporter(registry) as exporter:
            body, content_type = self._get(exporter.address, "/metrics.json")
            assert content_type.startswith("application/json")
            assert json.loads(body) == registry.snapshot()

    def test_healthz_and_unknown_path(self):
        with MetricsHTTPExporter(MetricsRegistry()) as exporter:
            body, _ = self._get(exporter.address, "/healthz")
            assert body == "ok\n"
            with pytest.raises(urllib.error.HTTPError):
                self._get(exporter.address, "/no-such-path")

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total")
        with MetricsHTTPExporter(registry) as exporter:
            counter.inc()
            body, _ = self._get(exporter.address, "/metrics")
            assert parse_prometheus_text(body)["ticks_total"] == [({}, 1.0)]
            counter.inc(4)
            body, _ = self._get(exporter.address, "/metrics")
            assert parse_prometheus_text(body)["ticks_total"] == [({}, 5.0)]

    def test_close_is_idempotent_and_address_guarded(self):
        exporter = MetricsHTTPExporter(MetricsRegistry())
        with pytest.raises(RuntimeError, match="not started"):
            exporter.address
        exporter.start()
        exporter.close()
        exporter.close()

    def test_start_twice_serves_one_endpoint(self):
        with MetricsHTTPExporter(sample_registry()) as exporter:
            address = exporter.address
            assert exporter.start() is exporter
            assert exporter.address == address
            body, _ = self._get(address, "/healthz")
            assert body == "ok\n"


class TestJSONLSink:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JSONLMetricsSink(path) as sink:
            sink.append({"iteration": 0, "value": 1.5})
            sink.append({"iteration": 1, "nested": {"a": [1, 2]}})
        records = read_metrics_jsonl(path, strict=True)
        assert records == [
            {"iteration": 0, "value": 1.5},
            {"iteration": 1, "nested": {"a": [1, 2]}},
        ]

    def test_crc_field_is_reserved(self, tmp_path):
        with JSONLMetricsSink(tmp_path / "m.jsonl") as sink:
            with pytest.raises(ValueError, match="reserved"):
                sink.append({"crc32": 7})

    def test_append_after_close_raises(self, tmp_path):
        sink = JSONLMetricsSink(tmp_path / "m.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.append({"x": 1})

    def test_reopen_appends_not_truncates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with JSONLMetricsSink(path) as sink:
            sink.append({"run": 1})
        with JSONLMetricsSink(path) as sink:
            sink.append({"run": 2})
        assert [r["run"] for r in read_metrics_jsonl(path)] == [1, 2]

    def test_torn_tail_skipped_leniently_raised_strictly(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with JSONLMetricsSink(path) as sink:
            sink.append({"iteration": 0})
            sink.append({"iteration": 1})
        # Crash mid-write: chop the final line in half.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        records = read_metrics_jsonl(path)
        assert records == [{"iteration": 0}]
        with pytest.raises(ValueError, match="invalid metrics line"):
            read_metrics_jsonl(path, strict=True)

    def test_bit_flip_detected_by_crc(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with JSONLMetricsSink(path) as sink:
            sink.append({"value": 100})
        corrupted = path.read_text().replace("100", "999")
        path.write_text(corrupted)
        assert read_metrics_jsonl(path) == []
        with pytest.raises(ValueError, match="crc mismatch"):
            read_metrics_jsonl(path, strict=True)

    def test_snapshot_payload_survives_roundtrip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        registry = sample_registry()
        with JSONLMetricsSink(path) as sink:
            sink.append({"iteration": 0, "metrics": registry.snapshot()})
        (record,) = read_metrics_jsonl(path, strict=True)
        assert record["metrics"] == registry.snapshot()

    def test_nan_gauge_is_not_json_serializable_excluded(self, tmp_path):
        """Registry snapshots with NaN gauge reads still frame: json
        emits NaN tokens, and the reader accepts them back."""
        registry = MetricsRegistry()
        registry.gauge("g").set_function(lambda: 1 / 0)
        with JSONLMetricsSink(tmp_path / "m.jsonl") as sink:
            sink.append({"metrics": registry.snapshot()})
        (record,) = read_metrics_jsonl(tmp_path / "m.jsonl", strict=True)
        assert math.isnan(record["metrics"]["g"]["series"][0]["value"])
