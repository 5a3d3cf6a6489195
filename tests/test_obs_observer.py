"""The Observer: one handle for spans, metrics and progress."""

import pytest

from repro.core.legalizer import legalize
from repro.core.params import LegalizerParams
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.progress import NULL_PROGRESS, ProgressEmitter
from repro.obs.report import render_metrics
from repro.obs.tracer import NULL_TRACER, SpanTracer

#: Counters that record where the work ran (pool size, tasks shipped,
#: fallbacks, retirements); every other counter, every gauge and every
#: histogram is identical at any worker count.
WORKER_COUNTER_PREFIXES = (
    "mgl.parallel_",
    "mgl.scheduler_workers_spawned",
    "mgl.shard_workers_spawned",
    "mgl.shard_fallbacks",
    "mgl.shard_worker_failures",
    "scheduler.worker_retired",
    "shard.worker_retired",
)


class TestNullDefaults:
    def test_null_observer_parts(self):
        assert NULL_OBSERVER.tracer is NULL_TRACER
        assert NULL_OBSERVER.progress is NULL_PROGRESS
        assert NULL_OBSERVER.metrics is None

    def test_metric_calls_are_no_ops_without_a_registry(self):
        observer = Observer()
        observer.count("evals", 3)
        observer.observe("depth", 2.0, (1.0, 4.0))
        observer.record_time("mgl", 0.5)
        with observer.stage("mgl", cells=4) as stage:
            assert not stage.span.recording
        assert stage.seconds >= 0.0

    def test_metric_calls_land_in_the_registry(self):
        registry = MetricsRegistry()
        observer = Observer(metrics=registry)
        observer.count("evals", 3)
        observer.count("evals")
        observer.observe("depth", 2.0, (1.0, 4.0))
        observer.record_time("parallel.worker0", 0.5)
        assert registry.counters == {"evals": 4}
        assert registry.histogram("depth").counts == [0, 1, 0]
        assert registry.timings == {"parallel.worker0": 0.5}


class TestStage:
    def test_phase_span_and_one_timing(self):
        events = []
        tracer = SpanTracer()
        registry = MetricsRegistry()
        observer = Observer(
            tracer=tracer,
            metrics=registry,
            progress=ProgressEmitter(callback=events.append),
        )
        with observer.stage("matching", cells=7) as stage:
            assert stage.seconds == 0.0
            stage.span.set(max_disp=1.5)
        assert [(e["event"], e["phase"], e["cells"]) for e in events] == [
            ("phase", "matching", 7)
        ]
        [span] = tracer.roots
        assert span.name == "matching"
        # Phase fields ride on the progress event only.
        assert span.attrs == {"max_disp": 1.5}
        assert registry.timings == {"matching": stage.seconds}
        assert registry.stage_calls == {"matching": 1}

    def test_a_failed_stage_records_no_timing(self):
        registry = MetricsRegistry()
        observer = Observer(metrics=registry)
        with pytest.raises(RuntimeError):
            with observer.stage("mgl"):
                raise RuntimeError("over-full")
        assert registry.timings == {}


class TestRenderMetrics:
    def test_shares_are_of_the_stage_total(self):
        lines = render_metrics({
            "timings": {"mgl": 3.0, "matching": 1.0, "parallel.worker0": 2.0}
        })
        by_name = {line.split()[0]: line for line in lines[1:]}
        assert by_name["mgl"].endswith("75.0%")
        assert by_name["matching"].endswith("25.0%")
        # Worker busy time runs inside mgl: shown, not added to the total.
        assert by_name["parallel.worker0"].endswith("50.0%")


def run_metrics(design, **knobs):
    registry = MetricsRegistry()
    legalize(design, LegalizerParams(routability=False, **knobs),
             metrics=registry)
    return registry


@pytest.mark.parametrize(
    "path",
    [dict(scheduler_capacity=16), dict(shards=2)],
    ids=["capacity16", "shards2"],
)
def test_metrics_identical_at_any_worker_count(small_design, path):
    serial = run_metrics(small_design, scheduler_workers=0, **path)
    pooled = run_metrics(small_design, scheduler_workers=2, **path)
    # mgl.batch_width is observed once per batch by the scheduler,
    # whichever backend evaluated the batch.
    assert serial.histograms.keys() == pooled.histograms.keys()
    for name, histogram in serial.histograms.items():
        assert histogram.as_dict() == pooled.histograms[name].as_dict(), name
    assert serial.gauges == pooled.gauges

    def placement_counters(registry):
        return {
            name: value for name, value in registry.counters.items()
            if not name.startswith(WORKER_COUNTER_PREFIXES)
        }

    assert placement_counters(serial) == placement_counters(pooled)
    # The pool really ran, so the comparison covers the pool path.
    spawned = (
        "mgl.shard_workers_spawned" if "shards" in path
        else "mgl.scheduler_workers_spawned"
    )
    assert pooled.counters[spawned] >= 1
