"""Tests for repro.obs.metrics and the PerfRecorder shim over it."""

import json

import pytest

from repro.obs.metrics import (
    DISPLACEMENT_BUCKETS,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.perf import PerfRecorder


class TestHistogram:
    def test_bounds_must_strictly_increase(self):
        for bad in ([], [1.0, 1.0], [2.0, 1.0]):
            with pytest.raises(ValueError):
                Histogram(bad)

    def test_inclusive_upper_bounds(self):
        hist = Histogram([1.0, 2.0, 4.0])
        for value in (0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5):
            hist.observe(value)
        # <=1: {0, 1}; <=2: {1.5, 2}; <=4: {3, 4}; overflow: {4.5}.
        assert hist.counts == [2, 2, 2, 1]
        assert hist.total == 7
        assert hist.sum == pytest.approx(16.0)
        assert hist.mean == pytest.approx(16.0 / 7)

    def test_empty_histogram(self):
        hist = Histogram(DISPLACEMENT_BUCKETS)
        assert hist.mean == 0.0
        snapshot = hist.as_dict()
        assert snapshot["count"] == 0
        assert snapshot["counts"] == [0] * (len(DISPLACEMENT_BUCKETS) + 1)

    def test_as_dict_shape(self):
        hist = Histogram([1.0, 2.0])
        hist.observe(0.5)
        snapshot = hist.as_dict()
        assert snapshot == {
            "bounds": [1.0, 2.0],
            "counts": [1, 0, 0],
            "count": 1,
            "sum": 0.5,
            "mean": 0.5,
        }


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.count("evals")
        registry.count("evals", 4)
        registry.set_gauge("hit_rate", 10.0)
        registry.set_gauge("hit_rate", 55.5)
        assert registry.counters == {"evals": 5}
        assert registry.gauges == {"hit_rate": 55.5}

    def test_timings_accumulate_with_call_counts(self):
        registry = MetricsRegistry()
        registry.record_time("mgl", 1.0)
        registry.record_time("mgl", 0.5)
        assert registry.timings == {"mgl": 1.5}
        assert registry.stage_calls == {"mgl": 2}

    def test_histogram_identity_includes_bounds(self):
        registry = MetricsRegistry()
        created = registry.histogram("disp", [1.0, 2.0])
        assert registry.histogram("disp") is created
        assert registry.histogram("disp", [1.0, 2.0]) is created
        with pytest.raises(ValueError):
            registry.histogram("disp", [1.0, 3.0])
        with pytest.raises(KeyError):
            registry.histogram("unknown")

    def test_observe_registers_and_records(self):
        registry = MetricsRegistry()
        registry.observe("depth", 2.0, [1.0, 4.0])
        registry.observe("depth", 9.0, [1.0, 4.0])
        hist = registry.histogram("depth")
        assert hist.counts == [0, 1, 1]

    def test_serialization_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.count("b", 2)
            registry.count("a", 1)
            registry.set_gauge("g", 1.23456789)
            registry.observe("h", 0.5, [1.0])
            return registry

        assert build().to_json() == build().to_json()
        payload = json.loads(build().to_json())
        assert set(payload) == {
            "timings", "stage_calls", "counters", "gauges", "histograms"
        }
        assert payload["gauges"]["g"] == 1.234568  # rounded for stability


class TestPerfRecorderShim:
    def test_legacy_views_are_live(self):
        recorder = PerfRecorder()
        recorder.count("evals", 3)
        recorder.registry.count("evals", 2)
        assert recorder.counters == {"evals": 5}
        recorder.record("mgl", 0.25)
        assert recorder.registry.timings == {"mgl": 0.25}
        assert recorder.stage_calls == {"mgl": 1}

    def test_shared_registry_injection(self):
        registry = MetricsRegistry()
        recorder = PerfRecorder(registry)
        recorder.count("x")
        assert registry.counters == {"x": 1}

    def test_stage_times_the_block(self):
        recorder = PerfRecorder()
        with recorder.stage("work"):
            sum(range(1000))
        assert recorder.timings["work"] >= 0.0
        assert recorder.stage_calls["work"] == 1

    def test_merge_counters_with_prefix(self):
        recorder = PerfRecorder()
        recorder.merge_counters({"hits": 3, "misses": 1}, prefix="mgl.")
        assert recorder.counters == {"mgl.hits": 3, "mgl.misses": 1}


class TestPrometheusRendering:
    def build(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.count("mgl.insertions_evaluated", 42)
        registry.set_gauge("mgl.gap_cache_hit_rate", 0.25)
        registry.record_time("mgl", 1.5)
        registry.record_time("mgl", 0.5)
        registry.observe("scheduler.batch_occupancy", 3.0, (1.0, 2.0, 4.0))
        registry.observe("scheduler.batch_occupancy", 9.0, (1.0, 2.0, 4.0))
        return registry

    def test_counter_gauge_and_timing_series(self):
        text = self.build().render_prometheus()
        assert "# TYPE repro_mgl_insertions_evaluated_total counter" in text
        assert "repro_mgl_insertions_evaluated_total 42" in text
        assert "# TYPE repro_mgl_gap_cache_hit_rate gauge" in text
        assert "repro_mgl_gap_cache_hit_rate 0.25" in text
        # Timings render as a seconds/calls counter pair.
        assert "repro_mgl_seconds_total 2.0" in text
        assert "repro_mgl_calls_total 2" in text

    def test_histogram_buckets_are_cumulative(self):
        text = self.build().render_prometheus()
        assert '# TYPE repro_scheduler_batch_occupancy histogram' in text
        assert 'repro_scheduler_batch_occupancy_bucket{le="1.0"} 0' in text
        assert 'repro_scheduler_batch_occupancy_bucket{le="4.0"} 1' in text
        assert 'repro_scheduler_batch_occupancy_bucket{le="+Inf"} 2' in text
        assert "repro_scheduler_batch_occupancy_sum 12.0" in text
        assert "repro_scheduler_batch_occupancy_count 2" in text

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.count("a.b-c d", 1)
        text = registry.render_prometheus()
        assert "repro_a_b_c_d_total 1" in text

    def test_deterministic_and_newline_terminated(self):
        first = self.build().render_prometheus()
        second = self.build().render_prometheus()
        assert first == second
        assert first.endswith("\n")
        assert MetricsRegistry().render_prometheus() == ""

    def test_custom_prefix(self):
        registry = MetricsRegistry()
        registry.count("cells", 7)
        assert "myapp_cells_total 7" in registry.render_prometheus("myapp")


class TestParsePrometheus:
    def test_round_trips_the_registry_rendering(self):
        registry = MetricsRegistry()
        registry.count("mgl.insertions_evaluated", 42)
        registry.set_gauge("mgl.gap_cache_hit_rate", 0.25)
        registry.observe("scheduler.batch_occupancy", 3.0, (1.0, 2.0, 4.0))
        series = parse_prometheus(registry.render_prometheus())
        assert series["repro_mgl_insertions_evaluated_total"] == 42.0
        assert series["repro_mgl_gap_cache_hit_rate"] == 0.25
        # Labeled bucket series keep their label block in the key.
        assert series['repro_scheduler_batch_occupancy_bucket{le="+Inf"}'] == 1.0
        assert series["repro_scheduler_batch_occupancy_count"] == 1.0

    def test_comments_blanks_and_garbage_are_skipped(self):
        text = "\n".join([
            "# HELP x some help",
            "# TYPE x counter",
            "",
            "x_total 3",
            "lonely_name_without_value",
            "bad_value nan-ish?",
            'labeled{le="1.0", q="a b"} 7',
        ])
        series = parse_prometheus(text)
        assert series == {
            "x_total": 3.0,
            'labeled{le="1.0", q="a b"}': 7.0,
        }

    def test_empty_text_parses_to_empty(self):
        assert parse_prometheus("") == {}
