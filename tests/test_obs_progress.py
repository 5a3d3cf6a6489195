"""Streaming progress events: throttling, ETA, sinks, and neutrality."""

import io
import json

import pytest

from repro.core.legalizer import legalize
from repro.core.params import LegalizerParams
from repro.obs.progress import (
    NULL_PROGRESS,
    NullProgress,
    ProgressEmitter,
    render_event,
)


def collecting_emitter(min_interval=0.0):
    events = []
    emitter = ProgressEmitter(callback=events.append,
                              min_interval=min_interval)
    return emitter, events


class TestEmitter:
    def test_events_carry_schema_fields_and_elapsed(self):
        emitter, events = collecting_emitter()
        emitter.phase("mgl", cells=10)
        emitter.cells(5, 10, disp=1.5)
        emitter.heartbeat("shard", shard=2, placed=7)
        kinds = [event["event"] for event in events]
        assert kinds == ["phase", "cells", "heartbeat"]
        assert events[0]["phase"] == "mgl" and events[0]["cells"] == 10
        assert events[1]["disp"] == 1.5
        assert events[2]["shard"] == 2
        assert all(event["elapsed"] >= 0.0 for event in events)
        assert emitter.events_emitted == 3

    def test_throttle_drops_intermediate_cells_but_never_final(self):
        emitter, events = collecting_emitter(min_interval=1000.0)
        emitter.cells(1, 10)
        emitter.cells(2, 10)
        emitter.cells(10, 10)  # final: placed >= total always goes out
        placed = [event["placed"] for event in events]
        assert placed == [1, 10]

    def test_phase_and_heartbeat_bypass_the_throttle(self):
        emitter, events = collecting_emitter(min_interval=1000.0)
        emitter.cells(1, 10)
        emitter.phase("matching")
        emitter.heartbeat("worker", worker=0)
        assert [event["event"] for event in events] == [
            "cells", "phase", "heartbeat",
        ]

    def test_eta_is_monotone_bookkeeping(self):
        emitter, events = collecting_emitter()
        emitter.cells(1, 100)
        (event,) = events
        # 1 of 100 placed in `elapsed` seconds -> 99x elapsed remaining.
        assert event["eta_seconds"] >= 0.0
        elapsed = event["elapsed"]
        if elapsed > 0:
            assert event["eta_seconds"] <= 99 * elapsed * 1.5 + 1e-6
        # Final events carry no ETA.
        emitter.cells(100, 100)
        assert "eta_seconds" not in events[-1]

    def test_eta_keeps_the_precision_of_elapsed(self, monkeypatch):
        """An event 5.1 us after the start reads ``elapsed`` 5e-06; its
        ETA must be 99 times that, not 99 * 5.1e-06 rounded up to a
        millisecond."""
        clock = iter([100.0, 100.0 + 5.1e-6])
        monkeypatch.setattr(
            "repro.obs.progress.monotonic", lambda: next(clock)
        )
        emitter, events = collecting_emitter()
        emitter.cells(1, 100)
        (event,) = events
        assert event["elapsed"] == 5e-06
        assert event["eta_seconds"] == pytest.approx(99 * 5e-06)
        assert event["eta_seconds"] <= 99 * event["elapsed"] * 1.5 + 1e-6

    def test_disp_thunk_only_runs_for_emitted_events(self):
        calls = []

        def expensive():
            calls.append(1)
            return 12.5

        emitter, events = collecting_emitter(min_interval=1000.0)
        emitter.cells(1, 10, disp=expensive)   # emitted
        emitter.cells(2, 10, disp=expensive)   # throttled: thunk skipped
        emitter.cells(10, 10, disp=expensive)  # final: emitted
        assert len(calls) == 2
        assert [event["disp"] for event in events] == [12.5, 12.5]

    def test_jsonl_sink_gets_one_sorted_object_per_line(self):
        sink = io.StringIO()
        emitter = ProgressEmitter(sink=sink, min_interval=0.0)
        emitter.phase("mgl")
        emitter.cells(3, 3)
        emitter.close()
        lines = sink.getvalue().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["phase", "cells"]
        # sort_keys: byte-stable lines, diffable across runs.
        assert lines[0] == json.dumps(records[0], sort_keys=True)

    def test_null_progress_is_inert(self):
        assert not NULL_PROGRESS.enabled
        NULL_PROGRESS.phase("x")
        NULL_PROGRESS.cells(1, 2, disp=lambda: 1 / 0)  # never evaluated
        NULL_PROGRESS.heartbeat("shard")
        NULL_PROGRESS.close()
        assert isinstance(ProgressEmitter(), NullProgress)


class TestRenderEvent:
    def test_phase_cells_and_heartbeat_views(self):
        assert render_event(
            {"event": "phase", "phase": "mgl", "elapsed": 0.5, "cells": 9}
        ).endswith("phase mgl cells=9")
        cells_line = render_event({
            "event": "cells", "placed": 50, "total": 200, "disp": 8.1,
            "eta_seconds": 3.0, "elapsed": 1.0,
        })
        assert "placed 50/200 (25.0%)" in cells_line
        assert "disp 8.1" in cells_line and "eta 3.0s" in cells_line
        heartbeat = render_event({
            "event": "heartbeat", "kind": "shard", "shard": 1,
            "elapsed": 2.0,
        })
        assert "shard" in heartbeat and "shard=1" in heartbeat

    def test_malformed_elapsed_does_not_crash(self):
        assert "?" in render_event({"event": "phase", "elapsed": "soon"})


class TestObservationalNeutrality:
    def test_progress_on_and_off_place_identically(self, small_design):
        params = LegalizerParams(routability=False)
        baseline = legalize(small_design, params).placement
        emitter, events = collecting_emitter()
        observed = legalize(
            small_design, params, progress=emitter
        ).placement
        assert observed.x == baseline.x and observed.y == baseline.y
        phases = [
            event["phase"] for event in events
            if event["event"] == "phase"
        ]
        assert phases[0] == "mgl" and phases[-1] == "done"
        assert "matching" in phases and "flow_opt" in phases
        finals = [
            event for event in events
            if event["event"] == "cells"
            and event["placed"] == event["total"]
        ]
        assert finals and finals[-1]["total"] == small_design.num_cells


def milestones(events):
    """Phase names and heartbeat kinds, in emission order."""
    return [
        event["phase"] if event["event"] == "phase" else event["kind"]
        for event in events
        if event["event"] in ("phase", "heartbeat")
    ]


class TestParallelPathEvents:
    def test_scheduler_path_phases(self, small_design):
        emitter, events = collecting_emitter()
        legalize(
            small_design,
            LegalizerParams(routability=False, scheduler_capacity=16),
            progress=emitter,
        )
        assert milestones(events) == [
            "mgl", "mgl_scheduler", "matching", "flow_opt", "done",
        ]
        cells = [event for event in events if event["event"] == "cells"]
        assert cells[-1]["placed"] == cells[-1]["total"]
        assert cells[-1]["total"] == small_design.num_cells

    def test_sharded_path_phases(self, small_design):
        emitter, events = collecting_emitter()
        result = legalize(
            small_design,
            LegalizerParams(routability=False, shards=2),
            progress=emitter,
        )
        bands = result.shard_topology["shards"]
        assert bands == 2
        marks = milestones(events)
        assert marks[:2] == ["mgl", "shard_interiors"]
        assert marks[2:2 + bands] == ["shard"] * bands
        assert marks[2 + bands] == "reconcile"
        assert marks[-1] == "done"
        heartbeats = [
            event["shard"] for event in events
            if event["event"] == "heartbeat"
        ]
        assert heartbeats == list(range(bands))
