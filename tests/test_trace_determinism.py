"""The repro.obs determinism contract (ISSUE 4 acceptance gates).

Two properties, checked at the MGL level and the full-flow level:

1. **Trace structure is worker-count-invariant.**  The span tree's
   structural content (names, attributes, children — timestamps and
   worker meta excluded) is a pure function of the legalization inputs,
   so its hash is bit-identical for ``scheduler_workers`` 0 and 2.
2. **Tracing never perturbs the algorithm.**  A traced run and an
   untraced (NullTracer) run produce bit-identical placements.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.legalizer import Legalizer, legalize
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.technology import CellType, Technology
from repro.obs.observer import Observer
from repro.obs.tracer import SpanTracer


def build_design(seed: int, density: float) -> Design:
    rng = random.Random(seed)
    tech = Technology(
        cell_types=[
            CellType("S2", 2, 1),
            CellType("S3", 3, 1),
            CellType("D2", 2, 2),
            CellType("T3", 3, 3),
        ]
    )
    design = Design(tech, num_rows=10, num_sites=50, name=f"trace{seed}")
    target = density * 10 * 50
    area = 0
    index = 0
    while area < target:
        cell_type = rng.choice(tech.cell_types)
        design.add_cell(
            f"c{index}",
            cell_type,
            rng.uniform(0, 50 - cell_type.width),
            rng.uniform(0, 10 - cell_type.height),
        )
        area += cell_type.width * cell_type.height
        index += 1
    return design


def traced_mgl(design: Design, workers: int, capacity: int = 8):
    params = LegalizerParams(
        routability=False,
        scheduler_capacity=capacity,
        scheduler_workers=workers,
    )
    tracer = SpanTracer()
    placement = MGLegalizer(
        design, params, observer=Observer(tracer=tracer)
    ).run()
    return tracer, (list(placement.x), list(placement.y))


class TestWorkerCountInvariance:
    def test_structure_hash_identical_serial_vs_pool(self, small_design):
        serial_tracer, serial_pos = traced_mgl(small_design, workers=0)
        pooled_tracer, pooled_pos = traced_mgl(small_design, workers=2)
        assert serial_tracer.structure_hash() == pooled_tracer.structure_hash()
        assert serial_tracer.span_count() == pooled_tracer.span_count()
        assert serial_pos == pooled_pos

    def test_pool_spans_carry_worker_meta_serial_spans_do_not(
        self, small_design
    ):
        serial_tracer, _ = traced_mgl(small_design, workers=0)
        pooled_tracer, _ = traced_mgl(small_design, workers=2)

        def workers_seen(tracer):
            return {
                span.meta["worker"]
                for span in tracer._walk_all()
                if "worker" in span.meta
            }

        assert workers_seen(serial_tracer) == set()
        # The pool genuinely ran: some evaluate spans came from workers —
        # yet the structure hash matched (asserted above), because worker
        # origin lives in non-structural meta only.
        assert workers_seen(pooled_tracer)
        for span in pooled_tracer._walk_all():
            assert "worker" not in span.attrs

    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.3, 0.55))
    def test_property_structure_is_input_deterministic(self, seed, density):
        design = build_design(seed, density)
        serial_tracer, serial_pos = traced_mgl(design, workers=0)
        pooled_tracer, pooled_pos = traced_mgl(design, workers=2)
        assert serial_tracer.structure_hash() == pooled_tracer.structure_hash()
        assert serial_pos == pooled_pos
        # Replaying serially reproduces the exact same tree, too.
        replay_tracer, _ = traced_mgl(design, workers=0)
        assert replay_tracer.structure_hash() == serial_tracer.structure_hash()


class TestTracingDoesNotPerturb:
    def test_traced_and_untraced_placements_identical(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=8)
        untraced = MGLegalizer(small_design, params).run()
        tracer = SpanTracer()
        traced = MGLegalizer(
            small_design, params, observer=Observer(tracer=tracer)
        ).run()
        assert traced.x == untraced.x and traced.y == untraced.y
        assert tracer.span_count() > 0

    def test_full_flow_traced_matches_untraced(self, small_design):
        params = LegalizerParams(routability=False)
        baseline = legalize(small_design, params).placement
        tracer = SpanTracer()
        traced = legalize(small_design, params, tracer=tracer).placement
        assert traced.x == baseline.x and traced.y == baseline.y


class TestFullFlowTree:
    def test_stage_spans_under_one_legalize_root(self, small_design):
        params = LegalizerParams(routability=False)
        tracer = SpanTracer()
        Legalizer(small_design, params, tracer=tracer).run()
        assert [root.name for root in tracer.roots] == ["legalize"]
        root = tracer.roots[0]
        assert root.attrs["design"] == "small"
        assert root.attrs["cells"] == small_design.num_cells
        stages = [child.name for child in root.children]
        assert stages[0] == "mgl"
        assert "matching" in stages and "flow_opt" in stages
        mgl = root.children[0]
        assert mgl.attrs["cells_placed"] == small_design.num_cells
        # Every cell search shows up as a window span under mgl.
        windows = [c for c in mgl.children if c.name == "window"]
        assert len(windows) == small_design.num_cells
        evaluates = [
            grandchild
            for window in windows
            for grandchild in window.children
            if grandchild.name == "evaluate"
        ]
        assert evaluates and all(
            "evaluated" in e.attrs and "found" in e.attrs for e in evaluates
        )

    def test_matching_spans_record_displacement_attrs(self, small_design):
        tracer = SpanTracer()
        Legalizer(
            small_design, LegalizerParams(routability=False), tracer=tracer
        ).run()
        by_name = {c.name: c for c in tracer.roots[0].children}
        for stage in ("matching", "flow_opt"):
            assert by_name[stage].attrs["avg_disp"] >= 0.0
            assert by_name[stage].attrs["max_disp"] >= 0.0
