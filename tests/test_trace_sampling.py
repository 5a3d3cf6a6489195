"""Deterministic trace sampling (ISSUE 9 acceptance gates).

``SpanTracer(sample_every=k)`` keeps the per-cell ``window``/``evaluate``
spans for every k-th cell of the fixed MGL cell order and drops the
rest.  The properties under test:

1. **Sampling never perturbs the algorithm** — placements are
   bit-identical between sampled, unsampled, and untraced runs.
2. **Sampled structure is worker-count-invariant at fixed k** (and
   fixed scheduler capacity — capacity changes batch structure, which
   is a legitimate structural difference, not drift).
3. **The keep/drop decision is rank-based**: the sampled cells are
   exactly ``mgl_cell_order(...)[::k]``, never a function of workers,
   shards, or time.
4. **k=1 is the identity policy** — same tree as a default tracer.

Plus shape checks on the Chrome-trace/JSONL exports of a sampled run,
so the artifacts stay loadable by Perfetto / ``load_trace_jsonl``.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mgl import MGLegalizer, mgl_cell_order
from repro.core.params import LegalizerParams
from repro.obs.observer import Observer
from repro.obs.tracer import SpanTracer
from tests.test_trace_determinism import build_design, traced_mgl


def sampled_mgl(design, workers, sample_every, capacity=8):
    params = LegalizerParams(
        routability=False,
        scheduler_capacity=capacity,
        scheduler_workers=workers,
    )
    tracer = SpanTracer(sample_every=sample_every)
    placement = MGLegalizer(
        design, params, observer=Observer(tracer=tracer)
    ).run()
    return tracer, (list(placement.x), list(placement.y))


def cells_with_window_spans(tracer):
    """Cell ids that got a per-cell ``window`` span recorded."""
    return {
        span.attrs["cell"]
        for span in tracer._walk_all()
        if span.name == "window" and "cell" in span.attrs
    }


class TestSamplingDoesNotPerturb:
    def test_sampled_placement_matches_untraced(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=8)
        untraced = MGLegalizer(small_design, params).run()
        _, sampled_pos = sampled_mgl(small_design, workers=0, sample_every=4)
        assert sampled_pos == (list(untraced.x), list(untraced.y))

    def test_all_strides_agree_on_the_placement(self, small_design):
        positions = {
            k: sampled_mgl(small_design, workers=0, sample_every=k)[1]
            for k in (1, 2, 7, 1000)
        }
        assert len({json.dumps(p) for p in positions.values()}) == 1


class TestSamplingPolicy:
    def test_sampled_cells_are_every_kth_of_the_fixed_order(
        self, small_design
    ):
        order = mgl_cell_order(small_design)
        tracer, _ = sampled_mgl(small_design, workers=0, sample_every=3)
        assert cells_with_window_spans(tracer) == set(order[::3])

    def test_structural_spans_survive_any_stride(self, small_design):
        # A stride bigger than the design keeps exactly one sampled cell
        # (rank 0) but never drops mgl/batch structure.
        tracer, _ = sampled_mgl(
            small_design, workers=0, sample_every=10_000
        )
        names = {span.name for span in tracer._walk_all()}
        assert "batch" in names  # scheduler structure is never sampled away
        order = mgl_cell_order(small_design)
        assert cells_with_window_spans(tracer) == {order[0]}

    def test_k1_is_identical_to_the_default_tracer(self, small_design):
        full_tracer, _ = traced_mgl(small_design, workers=0)
        k1_tracer, _ = sampled_mgl(small_design, workers=0, sample_every=1)
        assert k1_tracer.structure_hash() == full_tracer.structure_hash()
        assert k1_tracer.span_count() == full_tracer.span_count()

    def test_sampling_strictly_shrinks_the_tree(self, small_design):
        full_tracer, _ = sampled_mgl(small_design, workers=0, sample_every=1)
        thin_tracer, _ = sampled_mgl(small_design, workers=0, sample_every=8)
        assert thin_tracer.span_count() < full_tracer.span_count()
        assert thin_tracer.structure_hash() != full_tracer.structure_hash()

    def test_sampled_predicate_matches_recorded_spans(self, small_design):
        order = mgl_cell_order(small_design)
        tracer = SpanTracer(sample_every=2)
        tracer.set_cell_population(order)
        kept = {cell for cell in order if tracer.sampled(cell)}
        assert kept == set(order[::2])

    def test_invalid_stride_is_rejected(self):
        try:
            SpanTracer(sample_every=0)
        except ValueError as err:
            assert "sample_every" in str(err)
        else:  # pragma: no cover - the guard exists
            raise AssertionError("sample_every=0 accepted")


class TestWorkerInvarianceAtFixedStride:
    def test_structure_hash_identical_serial_vs_pool(self, small_design):
        serial, serial_pos = sampled_mgl(
            small_design, workers=0, sample_every=4
        )
        pooled, pooled_pos = sampled_mgl(
            small_design, workers=2, sample_every=4
        )
        assert serial.structure_hash() == pooled.structure_hash()
        assert serial.span_count() == pooled.span_count()
        assert serial_pos == pooled_pos

    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        density=st.floats(0.3, 0.5),
        stride=st.sampled_from([2, 5, 16]),
    )
    def test_property_sampled_structure_is_input_deterministic(
        self, seed, density, stride
    ):
        design = build_design(seed, density)
        serial, serial_pos = sampled_mgl(
            design, workers=0, sample_every=stride
        )
        pooled, pooled_pos = sampled_mgl(
            design, workers=2, sample_every=stride
        )
        assert serial.structure_hash() == pooled.structure_hash()
        assert serial_pos == pooled_pos
        # And replaying serially reproduces the same sampled tree.
        replay, _ = sampled_mgl(design, workers=0, sample_every=stride)
        assert replay.structure_hash() == serial.structure_hash()


class TestExportShape:
    def test_chrome_trace_events_are_complete_and_tracked(self, small_design):
        tracer, _ = sampled_mgl(small_design, workers=2, sample_every=4)
        payload = tracer.to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == tracer.span_count()
        for event in events:
            # Complete events: Perfetto derives nesting from ts+dur.
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert isinstance(event["args"], dict)
        # The pool ran: worker spans land on per-worker tracks, the
        # parent stays on tid 0.
        tids = {event["tid"] for event in events}
        assert 0 in tids and len(tids) > 1
        # json round-trip stays loadable.
        json.loads(json.dumps(payload))

    def test_jsonl_depth_first_with_explicit_depth(self, small_design):
        tracer, _ = sampled_mgl(small_design, workers=0, sample_every=4)
        lines = tracer.to_jsonl().strip().split("\n")
        assert len(lines) == tracer.span_count()
        records = [json.loads(line) for line in lines]
        assert records[0]["depth"] == 0 and records[0]["event"] == "span"
        for prev, record in zip(records, records[1:]):
            # Depth-first: each record nests at most one level deeper.
            assert record["depth"] <= prev["depth"] + 1
