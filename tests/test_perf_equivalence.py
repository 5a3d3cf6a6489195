"""Equivalence properties of the perf-optimized hot paths.

The PR that introduced the gap cache, best-first candidate evaluation,
and the compiled :class:`~repro.core.curves.CurveSet` claims all three
are *pure* optimizations: placements (and the placement-relevant stats)
are bit-identical with or without them.  These tests pin that contract:

* ``candidate_order=best_first`` vs ``linear`` — identical placements,
  identical cells placed and window expansions, and the lazy path never
  evaluates more insertion points than the exhaustive one;
* ``use_gap_cache`` on vs off — identical placements and identical
  evaluation counts (the cache may only skip re-*enumeration*);
* ``CurveSet.value`` / ``minimize`` vs the reference
  :meth:`DisplacementCurve.value` walk and
  :func:`minimize_over_sites` — equal to the last bit;
* the :class:`~repro.core.insertion.GapCache` invalidation contract
  against :meth:`Occupancy.row_version`;
* the :class:`repro.perf.PerfRecorder` bookkeeping itself.
"""

import json
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.curves import (
    CurveSet,
    DisplacementCurve,
    minimize_over_sites,
    sum_curves,
)
from repro.core.insertion import GapCache, InsertionContext
from repro.core.mgl import MGLegalizer
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology
from repro.perf import PerfRecorder


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


class TestTraversalEquivalence:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.6),
           with_fence=st.booleans(), capacity=st.sampled_from([1, 8]))
    def test_best_first_matches_linear(self, seed, density, with_fence,
                                       capacity):
        design = build_design(seed, density, with_fence)
        fast_pos, fast_stats = run_once(
            design, candidate_order="best_first", scheduler_capacity=capacity
        )
        lin_pos, lin_stats = run_once(
            design, candidate_order="linear", scheduler_capacity=capacity
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

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.6),
           with_fence=st.booleans())
    def test_gap_cache_is_transparent(self, seed, density, with_fence):
        design = build_design(seed, density, with_fence)
        cached_pos, cached_stats = run_once(design, use_gap_cache=True)
        plain_pos, plain_stats = run_once(design, use_gap_cache=False)
        assert cached_pos == plain_pos
        # The cache skips re-enumeration, never an exact evaluation.
        assert (
            cached_stats["insertions_evaluated"]
            == plain_stats["insertions_evaluated"]
        )
        assert plain_stats["gap_cache_hits"] == 0
        assert plain_stats["gap_cache_misses"] == 0


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


def context_for(design: Design, occupancy: Occupancy, cell: int,
                cache: "GapCache | None") -> InsertionContext:
    return InsertionContext(
        design,
        occupancy,
        cell,
        design.chip_rect,
        weight_of=lambda _c: 1.0,
        gap_cache=cache,
    )


class TestGapCacheInvalidation:
    def test_hit_then_invalidate_on_row_mutation(self):
        design = small_design()
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        placement.move(0, 0, 0)
        occupancy.add(0)
        cache = GapCache()
        context = context_for(design, occupancy, 1, cache)
        first = cache.gaps_in_row(context, 0)
        again = cache.gaps_in_row(context, 0)
        assert again is first  # served from cache, shared list
        assert cache.hits == 1 and cache.misses == 1
        # The context itself memoizes per row: its first lookup hits the
        # cache, repeats never touch it again.
        assert context.gaps_in_row(0) is first
        assert context.gaps_in_row(0) is first
        assert cache.hits == 2 and cache.misses == 1
        # Mutating row 0 bumps its version; the entry must be recomputed.
        version = occupancy.row_version(0)
        occupancy.update_x(0, 2)
        assert occupancy.row_version(0) > version
        recomputed = cache.gaps_in_row(context, 0)
        assert recomputed is not first
        assert cache.misses == 2
        # Fresh result matches an uncached context bit for bit.
        plain = context_for(design, occupancy, 1, None)
        assert recomputed == plain.gaps_in_row(0)

    def test_rebinds_on_new_occupancy(self):
        design = small_design()
        cache = GapCache()
        occ_a = Occupancy(design, Placement(design))
        context_a = context_for(design, occ_a, 1, cache)
        context_a.gaps_in_row(1)
        assert cache.misses == 1
        occ_b = Occupancy(design, Placement(design))
        context_b = context_for(design, occ_b, 1, cache)
        context_b.gaps_in_row(1)
        # Entries from occ_a must not leak into occ_b's queries.
        assert cache.misses == 2

    def test_overflow_clears_instead_of_growing(self):
        design = small_design()
        occupancy = Occupancy(design, Placement(design))
        cache = GapCache(max_entries=2)
        context = context_for(design, occupancy, 1, cache)
        for row in range(5):
            context.gaps_in_row(row)
        assert len(cache._entries) <= 2


class TestPerfRecorder:
    def test_stage_and_counters(self):
        recorder = PerfRecorder()
        with recorder.stage("mgl"):
            pass
        with recorder.stage("mgl"):
            pass
        recorder.record("flow_opt", 0.25)
        recorder.count("evals", 3)
        recorder.merge_counters({"hits": 2, "evals": 1}, prefix="mgl.")
        assert recorder.stage_calls["mgl"] == 2
        assert recorder.timings["flow_opt"] == 0.25
        assert recorder.counters == {"evals": 3, "mgl.hits": 2, "mgl.evals": 1}

    def test_json_roundtrip(self, tmp_path):
        recorder = PerfRecorder()
        recorder.record("mgl", 1.5)
        recorder.count("mgl.gap_cache_hits", 3)
        recorder.count("mgl.gap_cache_misses", 1)
        path = tmp_path / "perf.json"
        recorder.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["timings"]["mgl"] == 1.5
        assert payload["counters"]["mgl.gap_cache_hits"] == 3
        summary = recorder.summary()
        assert "mgl" in summary
        assert "hit rate: 75.0%" in summary

    def test_legalizer_records_stages(self):
        design = small_design()
        from repro import legalize

        recorder = PerfRecorder()
        result = legalize(
            design, LegalizerParams(routability=False), recorder=recorder
        )
        assert result.placement is not None
        assert set(recorder.timings) >= {"mgl", "matching", "flow_opt"}
        assert recorder.counters["mgl.cells_placed"] == design.num_cells
