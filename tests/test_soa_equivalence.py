"""Bit-equality of the vectorized (SoA) backend against the scalar oracle.

``eval_backend=vector`` routes gap enumeration and push analysis
through :mod:`repro.core.soa`'s structure-of-arrays fast paths, and
finishes every candidate in one pass over plain lists: the summed
curve's forward checkpoints, the site minimization, and the guard's
planned rail/IO walk (:meth:`RoutabilityGuard.adjust_x_planned`).  The
scalar backend stays in the tree as the oracle, and the whole
optimization is only legitimate while the two are *bit-identical* —
same placements, same ``insertions_evaluated`` counts, candidate for
candidate.  These tests pin that contract:

* an end-to-end Hypothesis property over random mixed-height designs
  with fences, placement blockages, a P/G grid, pinned cell types and
  (on some draws) IO pins, with routability on and off;
* per-candidate equality of :meth:`InsertionContext.evaluate` (vector)
  against :meth:`InsertionContext.evaluate_scalar` on live mid-run
  occupancies, with the routability guard live;
* gap-enumeration equality of :meth:`VectorEvaluator.gaps_in_segment`
  against the scalar ``_gaps_in_segment`` walk;
* the batch-computed candidate lower bound against its scalar form;
* the dominance cut-off: per candidate, it may only drop a candidate
  that costs more than the incumbent; on whole runs, both of its tests
  fire and the placement and evaluation count stay the scalar ones.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.insertion import InsertionContext
from repro.core.mgl import LegalizationError, MGLegalizer, mgl_cell_order
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
from repro.core.soa import SoAState, VectorEvaluator
from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.model.rails import IOPin, standard_pg_grid
from repro.model.technology import (
    CellType,
    EdgeSpacingTable,
    PinShape,
    Technology,
)


def build_design(
    seed: int, density: float, with_fence: bool, with_blockage: bool
) -> Design:
    """A random mixed-height design with optional fence and blockage.

    Every design carries the standard P/G grid (its vertical M3 stripe
    blocks the M2 pins of ``S2`` and ``D2`` at two sites, its
    horizontal M2 stripes rule out every other even row for ``D2``),
    and about half the draws add IO pins, so the guard's blocked-site
    and IO penalty branches are live whenever routability is on.
    """
    rng = random.Random(seed)
    tech = Technology(
        cell_types=[
            CellType("S2", 2, 1, pins=(
                PinShape("a", 2, Rect(0.05, 0.7, 0.25, 1.1)),
            )),
            CellType("S3", 3, 1, pins=(
                PinShape("a", 1, Rect(0.1, 0.2, 0.3, 0.6)),
            )),
            CellType("D2", 2, 2, pins=(
                PinShape("a", 2, Rect(0.1, 0.05, 0.3, 0.5)),
            )),
            CellType("T3", 3, 3),
        ]
    )
    rows = rng.choice([8, 12])
    sites = rng.choice([40, 60])
    design = Design(tech, num_rows=rows, num_sites=sites, name=f"soa{seed}")
    design.rails = standard_pg_grid(
        design.chip_rect_length_units, design.row_height
    )
    if rng.random() < 0.5:
        chip = design.chip_rect_length_units
        for index in range(rng.randint(2, 5)):
            x = rng.uniform(chip.xlo, chip.xhi - 0.6)
            y = rng.uniform(chip.ylo, chip.yhi - 2.0)
            design.rails.add_io_pin(
                IOPin(f"io{index}", rng.choice([1, 2, 3]),
                      Rect(x, y, x + 0.6, y + 2.0))
            )
    fence_id = 0
    if with_fence:
        design.add_fence(
            FenceRegion(
                fence_id=1,
                name="f1",
                rects=[Rect(4, 0, sites // 2, rows // 2 * 2)],
            )
        )
        fence_id = 1
    if with_blockage:
        design.add_blockage(
            Rect(sites - 12, rows // 2, sites - 6, rows // 2 + 2)
        )
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


def run_once(
    design: Design, backend: str, routability: bool
) -> "tuple[list, dict]":
    params = LegalizerParams(routability=routability, eval_backend=backend)
    legalizer = MGLegalizer(design, params)
    placement = legalizer.run()
    return list(zip(placement.x, placement.y)), dict(legalizer.stats)


class TestBackendEquivalence:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.5),
           with_fence=st.booleans(), with_blockage=st.booleans(),
           routability=st.booleans())
    def test_vector_matches_scalar(self, seed, density, with_fence,
                                   with_blockage, routability):
        design = build_design(seed, density, with_fence, with_blockage)
        try:
            scalar_pos, scalar_stats = run_once(design, "scalar", routability)
        except LegalizationError:
            assume(False)  # Over-full fence/blockage draw; not this contract.
            return
        vector_pos, vector_stats = run_once(design, "vector", routability)
        assert vector_pos == scalar_pos
        assert (
            vector_stats["insertions_evaluated"]
            == scalar_stats["insertions_evaluated"]
        )
        assert (
            vector_stats["window_expansions"]
            == scalar_stats["window_expansions"]
        )


def _mid_run_states(
    seed: int, fraction: float = 0.6
) -> "tuple[Design, Occupancy, list[int]] | None":
    """A design with the first ``fraction`` of its cells legalized.

    Mid-run occupancies are where the backends actually disagree when
    they disagree — partially filled rows, pushed neighbors, snapped
    positions — so the per-candidate tests run against one instead of a
    synthetic hand-laid grid.  Returns the remaining (unplaced) cells,
    or None when the random draw turns out infeasible.
    """
    design = build_design(seed, 0.4, with_fence=True, with_blockage=True)
    legalizer = MGLegalizer(design, LegalizerParams(routability=False))
    placement = Placement(design)
    occupancy = Occupancy(design, placement)
    for cell in range(design.num_cells):
        if design.cells[cell].fixed:
            placement.move(
                cell, int(design.gp_x[cell]), int(design.gp_y[cell])
            )
            occupancy.add(cell)
    order = list(mgl_cell_order(design))
    split = max(1, int(len(order) * fraction))
    try:
        for cell in order[:split]:
            legalizer.legalize_cell(occupancy, cell)
    except LegalizationError:
        return None
    return design, occupancy, order[split:]


def _context_pair(
    design: Design, occupancy: Occupancy, target: int
) -> "tuple[InsertionContext, InsertionContext]":
    """(scalar context, vector context) over the same frozen occupancy."""
    window = design.chip_rect
    guard = RoutabilityGuard(design, LegalizerParams())
    scalar = InsertionContext(design, occupancy, target, window, guard=guard)
    vector = InsertionContext(
        design, occupancy, target, window, guard=guard,
        soa=SoAState(design, occupancy),
    )
    assert vector._vector is not None
    return scalar, vector


def _assert_same(got, expected) -> None:
    """Vector and scalar results agree bit for bit (or are both None)."""
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got.x == expected.x
    assert got.y == expected.y
    assert got.cost == expected.cost  # bit-equal, no tolerance
    assert got.moves == expected.moves


def _gap_fields(gap) -> tuple:
    return (
        gap.row, gap.segment.x_lo, gap.segment.x_hi, gap.left_cell,
        gap.right_cell, gap.left_bound, gap.right_bound,
        gap.left_wall_cell, gap.right_wall_cell, gap.lo_rough, gap.hi_rough,
    )


class TestPerCandidateEquality:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_gap_enumeration_matches_scalar(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        scalar, vector = _context_pair(design, occupancy, remaining[0])
        evaluator = vector._vector
        for row in range(design.num_rows):
            for segment in design.segments_in_row(row):
                expected = scalar._gaps_in_segment(row, segment)
                got = evaluator.gaps_in_segment(row, segment)
                assert [_gap_fields(g) for g in got] == [
                    _gap_fields(g) for g in expected
                ], (row, segment)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_evaluate_matches_scalar_per_candidate(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        margins = (0.5, LegalizerParams().prune_margin)
        checked = 0
        for target in remaining[:3]:
            scalar, vector = _context_pair(design, occupancy, target)
            evaluator = vector._vector
            for bottom_row, gaps in vector.enumerate_insertion_points():
                expected = vector.evaluate_scalar(bottom_row, gaps)
                _assert_same(vector.evaluate(bottom_row, gaps), expected)
                # With an incumbent, the dominance cut-off may drop only
                # a candidate that costs more than it.
                bound = vector.target_cost_lower_bound(bottom_row, gaps)
                base = bound if expected is None else expected.cost
                for incumbent in (base, base - 1e-3, base + 1e-3):
                    for margin in margins:
                        got = evaluator.evaluate(
                            bottom_row, gaps, bound, incumbent, margin
                        )
                        if got is None and expected is not None:
                            assert expected.cost > incumbent, (
                                target, bottom_row, incumbent, margin
                            )
                        else:
                            _assert_same(got, expected)
                checked += 1
            # The scalar context enumerates the identical candidate set.
            assert [
                (row, tuple(_gap_fields(g) for g in gaps))
                for row, gaps in scalar.enumerate_insertion_points()
            ] == [
                (row, tuple(_gap_fields(g) for g in gaps))
                for row, gaps in vector.enumerate_insertion_points()
            ]
        assume(checked)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_lower_bound_matches_scalar(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        _, vector = _context_pair(design, occupancy, remaining[0])
        evaluator = vector._vector
        checked = 0
        for bottom_row, gaps in vector.enumerate_insertion_points():
            assert evaluator.lower_bound(bottom_row, gaps) == (
                vector.lower_bound_scalar(bottom_row, gaps)
            )
            checked += 1
        assume(checked)


def test_finish_refuses_sites_left_of_the_summed_anchor():
    """The one-pass finish reads only forward checkpoints, so a site range
    starting left of the summed anchor (``<= 0.0``) must raise, not guess."""
    design = build_design(1, 0.3, with_fence=False, with_blockage=False)
    occupancy = Occupancy(design, Placement(design))
    _, vector = _context_pair(design, occupancy, 0)
    with pytest.raises(ValueError, match="left of the summed curve anchor"):
        vector._vector._finish_fast(0, [], {}, 10.0, {}, -5.0)


class _CutoffCounter:
    """Counts calls into the vector backend's evaluation stages.

    ``pre_push_skips`` are evaluations that never reached the push,
    ``post_push_skips`` pushed candidates with a non-empty site range
    that never reached the finish: exactly the dominance cut-off's two
    exits.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.evaluations = 0
        self.pushes = 0
        self.pushes_with_sites = 0
        self.finishes = 0
        evaluate = VectorEvaluator.evaluate
        push = VectorEvaluator._push
        finish = VectorEvaluator._finish_fast

        def counted_evaluate(evaluator, *args, **kwargs):
            self.evaluations += 1
            return evaluate(evaluator, *args, **kwargs)

        def counted_push(evaluator, gaps):
            self.pushes += 1
            sides = push(evaluator, gaps)
            if sides is not None and math.ceil(sides[3]) <= math.floor(sides[1]):
                self.pushes_with_sites += 1
            return sides

        def counted_finish(evaluator, *args):
            self.finishes += 1
            return finish(evaluator, *args)

        monkeypatch.setattr(VectorEvaluator, "evaluate", counted_evaluate)
        monkeypatch.setattr(VectorEvaluator, "_push", counted_push)
        monkeypatch.setattr(VectorEvaluator, "_finish_fast", counted_finish)

    @property
    def pre_push_skips(self) -> int:
        return self.evaluations - self.pushes

    @property
    def post_push_skips(self) -> int:
        return self.pushes_with_sites - self.finishes


class TestDominanceCutoff:
    @pytest.mark.parametrize("seed, density", [(11, 0.2), (11, 0.5)])
    def test_both_cutoffs_fire_and_keep_the_placement(self, seed, density):
        design = build_design(seed, density, with_fence=True,
                              with_blockage=True)
        scalar_pos, scalar_stats = run_once(design, "scalar", True)
        with pytest.MonkeyPatch.context() as patch:
            counter = _CutoffCounter(patch)
            vector_pos, vector_stats = run_once(design, "vector", True)
        assert vector_pos == scalar_pos
        assert (
            vector_stats["insertions_evaluated"]
            == scalar_stats["insertions_evaluated"]
            == counter.evaluations
        )
        assert counter.pre_push_skips > 0
        assert counter.post_push_skips > 0

    def test_post_push_bound_counts_savings_toward_gp(self):
        """A cell displaced left of its GP gains from being pushed right:
        the candidate costs less than the target alone, and the cut-off
        must still finish it at a tied incumbent."""
        cell_type = CellType("S", 2, 1)
        design = Design(Technology(cell_types=[cell_type]), num_rows=1,
                        num_sites=40)
        pushed = design.add_cell("p", cell_type, 14, 0)
        target = design.add_cell("t", cell_type, 10, 0)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        placement.move(pushed, 10, 0)
        occupancy.add(pushed)
        _, vector = _context_pair(design, occupancy, target)
        (gap,) = [g for g in vector.gaps_in_row(0) if g.right_cell == pushed]
        expected = vector.evaluate_scalar(0, (gap,))
        assert expected is not None and expected.moves
        assert expected.cost < -1e-3  # below the target-only bound of 0
        got = vector._vector.evaluate(
            0, (gap,), vector.target_cost_lower_bound(0, (gap,)),
            expected.cost, LegalizerParams().prune_margin,
        )
        _assert_same(got, expected)

    def test_pre_push_bound_allows_for_outside_edge_rules(self):
        """The rough gap bounds charge the edge rule of the cell beyond a
        segment end against the target; the cell the target pushes there
        may have no rule and get closer.  Here the heap bound overstates
        the candidate's exact cost, and the cut-off must still finish it
        at a tied incumbent."""
        ruled = CellType("R", 2, 1, left_edge=1, right_edge=1)
        plain = CellType("P", 2, 1)
        tech = Technology(cell_types=[ruled, plain],
                          edge_spacing=EdgeSpacingTable([(1, 1, 2)]))
        design = Design(tech, num_rows=2, num_sites=40)
        design.add_fence(FenceRegion(fence_id=1, name="f1",
                                     rects=[Rect(10, 0, 40, 2)]))
        outside = design.add_cell("o", ruled, 8, 0)
        pushed = design.add_cell("p", plain, 10, 0, fence_id=1)
        target = design.add_cell("t", ruled, 10, 0, fence_id=1)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        for cell in (outside, pushed):
            placement.move(cell, int(design.gp_x[cell]), 0)
            occupancy.add(cell)
        _, vector = _context_pair(design, occupancy, target)
        (gap,) = [g for g in vector.gaps_in_row(0) if g.left_cell == pushed]
        expected = vector.evaluate_scalar(0, (gap,))
        bound = vector.target_cost_lower_bound(0, (gap,))
        assert expected is not None and expected.x == 12
        assert bound > expected.cost + 1e-3  # 4 sites charged, 2 needed
        got = vector._vector.evaluate(
            0, (gap,), bound, expected.cost, LegalizerParams().prune_margin
        )
        _assert_same(got, expected)
