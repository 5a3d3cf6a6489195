"""Equivalence properties of the perf-optimized hot paths.

Best-first candidate evaluation and the compiled
:class:`~repro.core.curves.CurveSet` are *pure* optimizations:
placements (and the placement-relevant stats) are bit-identical to
their reference forms.  These tests pin that contract:

* :meth:`InsertionContext.evaluate_best_first` vs the exhaustive
  :func:`evaluate_linear` oracle below — identical placements, identical
  cells placed and window expansions, and the lazy path never evaluates
  more insertion points than the exhaustive one;
* ``CurveSet.value`` / ``minimize`` vs the reference
  :meth:`DisplacementCurve.value` walk and
  :func:`minimize_over_sites` — equal to the last bit;
* the stage timings and counters a full-flow run records.
"""

import random
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.curves import (
    CurveSet,
    DisplacementCurve,
    minimize_over_sites,
    sum_curves,
)
from repro.core.insertion import EvaluatedInsertion, InsertionContext
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.technology import CellType, Technology
from repro.obs.metrics import MetricsRegistry


def build_design(seed: int, density: float, with_fence: bool) -> Design:
    """A random mixed-height design, optionally with one fence region."""
    rng = random.Random(seed)
    tech = Technology(
        cell_types=[
            CellType("S2", 2, 1),
            CellType("S3", 3, 1),
            CellType("D2", 2, 2),
            CellType("T3", 3, 3),
        ]
    )
    rows = rng.choice([8, 12])
    sites = rng.choice([40, 60])
    design = Design(tech, num_rows=rows, num_sites=sites, name=f"eq{seed}")
    fence_id = 0
    if with_fence:
        fence = FenceRegion(
            fence_id=1,
            name="f1",
            rects=[Rect(4, 0, sites // 2, rows // 2 * 2)],
        )
        design.add_fence(fence)
        fence_id = 1
    target = density * rows * sites
    area = 0
    index = 0
    while area < target:
        cell_type = rng.choice(tech.cell_types)
        in_fence = with_fence and rng.random() < 0.3
        design.add_cell(
            f"c{index}",
            cell_type,
            rng.uniform(0, sites - cell_type.width),
            rng.uniform(0, rows - cell_type.height),
            fence_id=fence_id if in_fence else 0,
        )
        area += cell_type.width * cell_type.height
        index += 1
    return design


def run_once(design: Design, **overrides: object) -> "tuple":
    params = LegalizerParams(routability=False, **overrides)  # type: ignore[arg-type]
    legalizer = MGLegalizer(design, params)
    placement = legalizer.run()
    return list(zip(placement.x, placement.y)), dict(legalizer.stats)


def evaluate_linear(
    context: InsertionContext, max_points: int, margin: float
) -> Tuple[Optional[EvaluatedInsertion], int]:
    """Reference evaluation: cost every candidate, then select.

    Evaluates the full enumeration in its natural order (no pruning, so
    the evaluated count covers every candidate) and replays the
    bound-ordered stop rule over the known costs, yielding the exact
    winner :meth:`InsertionContext.evaluate_best_first` converges to.
    """
    entries: List[Tuple[float, int, Optional[EvaluatedInsertion]]] = []
    for bottom_row, gaps in context.enumerate_insertion_points(max_points):
        bound = context.target_cost_lower_bound(bottom_row, gaps)
        entries.append(
            (bound, len(entries), context.evaluate(bottom_row, gaps))
        )
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    best: Optional[EvaluatedInsertion] = None
    best_key: Optional[Tuple[float, int, int, int]] = None
    for bound, order, result in entries:
        if best is not None and bound > best.cost + margin:
            break
        if result is None:
            continue
        key = (result.cost, result.y, result.x, order)
        if best_key is None or key < best_key:
            best = result
            best_key = key
    return best, len(entries)


class TestTraversalEquivalence:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.6),
           with_fence=st.booleans(), capacity=st.sampled_from([1, 8]))
    def test_best_first_matches_linear(self, seed, density, with_fence,
                                       capacity):
        design = build_design(seed, density, with_fence)
        fast_pos, fast_stats = run_once(design, scheduler_capacity=capacity)
        # Hypothesis rejects the function-scoped monkeypatch fixture.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                InsertionContext, "evaluate_best_first", evaluate_linear
            )
            lin_pos, lin_stats = run_once(
                design, scheduler_capacity=capacity
            )
        assert fast_pos == lin_pos
        assert fast_stats["cells_placed"] == lin_stats["cells_placed"]
        assert (
            fast_stats["window_expansions"] == lin_stats["window_expansions"]
        )
        # Lazy evaluation may only ever *save* exact evaluations.
        assert (
            fast_stats["insertions_evaluated"]
            <= lin_stats["insertions_evaluated"]
        )


def random_curves(rng: random.Random, count: int) -> "list[DisplacementCurve]":
    curves = [DisplacementCurve.target(rng.uniform(0, 40), rng.choice([1.0, 0.5]))]
    for _ in range(count):
        kind = rng.randrange(3)
        current = rng.uniform(0, 40)
        gp = rng.uniform(0, 40)
        offset = rng.uniform(0.5, 6)
        weight = rng.choice([1.0, 0.5, 2.0])
        if kind == 0:
            curves.append(
                DisplacementCurve.pushed_right(current, gp, offset, weight)
            )
        elif kind == 1:
            curves.append(
                DisplacementCurve.pushed_left(current, gp, offset, weight)
            )
        else:
            curves.append(DisplacementCurve.constant(rng.uniform(0, 3)))
    return curves


class TestCurveSetBitExact:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), count=st.integers(0, 8))
    def test_value_matches_reference_walk(self, seed, count):
        rng = random.Random(seed)
        curves = random_curves(rng, count)
        reference = sum_curves(curves)
        compiled = CurveSet(curves)
        probes = [rng.uniform(-10, 50) for _ in range(20)]
        probes += [float(x) for x in range(-5, 46, 5)]
        probes.append(reference.anchor_x)
        for bp_x, _ in reference.breakpoints:
            probes.append(bp_x)
        for x in probes:
            assert compiled.value(x) == reference.value(x), x

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), count=st.integers(0, 8))
    def test_minimize_matches_reference(self, seed, count):
        rng = random.Random(seed)
        curves = random_curves(rng, count)
        lo = rng.uniform(-5, 20)
        hi = lo + rng.uniform(0, 30)
        assert CurveSet(curves).minimize(lo, hi) == minimize_over_sites(
            curves, lo, hi
        )

    def test_empty_range_returns_none(self):
        curves = [DisplacementCurve.target(3.0)]
        assert CurveSet(curves).minimize(2.4, 2.6) is None
        assert minimize_over_sites(curves, 2.4, 2.6) is None


def small_design() -> Design:
    tech = Technology(cell_types=[CellType("S2", 2, 1), CellType("D2", 2, 2)])
    design = Design(tech, num_rows=6, num_sites=30, name="cache")
    for index in range(6):
        design.add_cell(f"c{index}", tech.cell_types[index % 2],
                        4.0 * index, float(index % 4))
    return design


class TestPerfRecorder:
    def test_legalizer_records_stages(self):
        design = small_design()
        from repro import legalize

        registry = MetricsRegistry()
        result = legalize(
            design, LegalizerParams(routability=False), metrics=registry
        )
        assert result.placement is not None
        assert set(registry.timings) >= {"mgl", "matching", "flow_opt"}
        assert registry.counters["mgl.cells_placed"] == design.num_cells
        # Each stage's one timing is also its StageMetrics.seconds.
        assert registry.timings["mgl"] == result.after_mgl.seconds
        assert registry.timings["flow_opt"] == result.after_flow.seconds
