"""Bit-equality of the vector backend against the scalar oracle.

``eval_backend=vector`` routes gap enumeration and push analysis
through :mod:`repro.core.soa`'s window-bounded walks over the
occupancy's live row lists and per-run prefix-sum tables, and finishes
every candidate in one pass over plain lists: the summed curve's
forward checkpoints, the site minimization, and the guard's planned
rail/IO walk (:meth:`RoutabilityGuard.adjust_x_planned`).  The scalar
backend stays in the tree as the oracle, and the whole optimization is
only legitimate while the two are *bit-identical* — same placements,
same ``insertions_evaluated`` counts, candidate for candidate.  These
tests pin that contract:

* an end-to-end Hypothesis property over random mixed-height designs
  with fences, placement blockages, a P/G grid, pinned cell types and
  (on some draws) IO pins, with routability on and off;
* per-candidate equality of :meth:`InsertionContext.evaluate` (vector)
  against :meth:`InsertionContext.evaluate_scalar` on live mid-run
  occupancies, with the routability guard live;
* gap-enumeration equality of :meth:`VectorEvaluator.gaps_in_segment`
  against the scalar segment-wide ``_gaps_in_segment`` walk;
* both of the above at the chip window and at MGL's first and third
  windows around the target, whose edges cut through row segments, and
  on a hand-built row whose cells sit left of, across, inside and right
  of a window;
* the dominance cut-off: per candidate, it may only drop a candidate
  that costs more than the incumbent, and the post-push floor never
  exceeds a finished candidate's scalar cost (height-weighted or not,
  from GP or from current positions); on whole runs, its test before
  the push, the push summaries' decisions, the post-push test on and
  off the run tables and the finish's stop before the guard walk all
  fire, and the placement and evaluation count stay the scalar ones;
  on hand-built rows, the floor charges a push every site forces and
  credits savings only up to a pushed cell's reach;
* the push summaries on hand-built rows: savings reached through both
  rows of a 2-row seed, a cell pushed both ways, a pushed cell with a
  row outside every segment, and a far cell already past its extreme.
"""

import math
import random
from typing import Callable

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.insertion import InsertionContext
from repro.core.mgl import (
    PRUNE_MARGIN,
    WINDOW_EXPAND,
    LegalizationError,
    MGLegalizer,
    height_weights,
    mgl_cell_order,
)
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


def _windows(design: Design, target: int) -> "list[Rect]":
    """The chip window plus MGL's first and third windows around ``target``.

    The smaller two have edges inside row segments, where the vector
    backend's window-bounded walks cut the segment.
    """
    legalizer = MGLegalizer(design, LegalizerParams())
    return [design.chip_rect] + [
        legalizer.initial_window(target, scale)
        for scale in (1.0, WINDOW_EXPAND ** 2)
    ]


def _context_pair(
    design: Design,
    occupancy: Occupancy,
    target: int,
    window: "Rect | None" = None,
    weight_of: "Callable[[int], float] | None" = None,
    reference: str = "gp",
) -> "tuple[InsertionContext, InsertionContext]":
    """(scalar context, vector context) over the same frozen occupancy."""
    if window is None:
        window = design.chip_rect
    guard = RoutabilityGuard(design, LegalizerParams())
    scalar = InsertionContext(
        design, occupancy, target, window, weight_of=weight_of,
        guard=guard, reference=reference,
    )
    vector = InsertionContext(
        design, occupancy, target, window, weight_of=weight_of,
        guard=guard, reference=reference, soa=SoAState(design),
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
        for window in _windows(design, remaining[0]):
            _assert_same_gaps(design, occupancy, remaining[0], window)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_evaluate_matches_scalar_per_candidate(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        margins = (0.5, PRUNE_MARGIN)
        checked = 0
        for target in remaining[:3]:
            for window in _windows(design, target):
                checked += _assert_same_candidates(
                    design, occupancy, target, window, margins
                )
        assume(checked)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_cost_floor_bounds_every_finished_cost(self, seed):
        """The post-push floor of a candidate's sides never exceeds the
        cost the scalar walk finishes it at: guard on, with and without
        Eq. 2 height weights, and measured from GP or from the cells'
        current positions."""
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        weighted = height_weights(design)
        checked = 0
        for target in remaining[:3]:
            for window in _windows(design, target):
                for weight_of, reference in (
                    (None, "gp"), (weighted, "gp"),
                    (None, "current"), (weighted, "current"),
                ):
                    _, vector = _context_pair(
                        design, occupancy, target, window,
                        weight_of=weight_of, reference=reference,
                    )
                    checked += _assert_floor_below_cost(vector)
        assume(checked)

    def test_window_edges_on_a_hand_built_row(self):
        """Cells left of, across, inside and right of a window.

        Row 1 has walls wholly outside the window next to its edges,
        with edge rules reaching from them to the local cells; row 2 has
        cells straddling both window edges and a 2-row cell inside the
        window's x-range that pokes out of it vertically.  The
        window-bounded walks must find every one of these walls.
        """
        ruled = CellType("R", 2, 1, left_edge=1, right_edge=1)
        plain = CellType("P", 2, 1)
        wide = CellType("W", 3, 1, left_edge=1, right_edge=1)
        double = CellType("D", 2, 2)
        tech = Technology(cell_types=[ruled, plain, wide, double],
                          edge_spacing=EdgeSpacingTable([(1, 1, 2)]))
        design = Design(tech, num_rows=4, num_sites=60)
        window = Rect(20.5, 1, 40.5, 3)
        layout = [
            # Row 1: out-of-window walls at 17 and 43, both ruled.
            (plain, 4, 1), (wide, 17, 1), (ruled, 22, 1), (plain, 26, 1),
            (ruled, 36, 1), (ruled, 43, 1), (plain, 52, 1),
            # Row 2: straddlers at 19 and 39, a 2-row wall at 30.
            (plain, 3, 2), (wide, 19, 2), (ruled, 24, 2), (double, 30, 2),
            (plain, 34, 2), (wide, 39, 2), (plain, 50, 2),
        ]
        placed = [
            design.add_cell(f"c{index}", cell_type, x, y)
            for index, (cell_type, x, y) in enumerate(layout)
        ]
        target = design.add_cell("t", ruled, 30, 1)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        for cell, (_type, x, y) in zip(placed, layout):
            placement.move(cell, x, y)
            occupancy.add(cell)
        margins = (0.5, PRUNE_MARGIN)
        for frame in (window, design.chip_rect):
            gaps = _assert_same_gaps(design, occupancy, target, frame)
            assert gaps, frame
            assert _assert_same_candidates(
                design, occupancy, target, frame, margins
            )
        _, vector = _context_pair(design, occupancy, target, window)
        walls = {
            (gap.row, gap.left_wall_cell, gap.right_wall_cell)
            for gap in vector.gaps_in_row(1) + vector.gaps_in_row(2)
        }
        assert walls == {
            (1, placed[1], placed[5]),
            (2, placed[8], placed[10]),
            (2, placed[10], placed[12]),
        }


def _assert_same_gaps(
    design: Design, occupancy: Occupancy, target: int, window: Rect
) -> int:
    """Both backends list the same gaps in every segment; returns the count."""
    scalar, vector = _context_pair(design, occupancy, target, window)
    evaluator = vector._vector
    count = 0
    for row in range(design.num_rows):
        for segment in design.segments_in_row(row):
            expected = scalar._gaps_in_segment(row, segment)
            got = evaluator.gaps_in_segment(row, segment)
            assert [_gap_fields(g) for g in got] == [
                _gap_fields(g) for g in expected
            ], (row, segment, window)
            count += len(got)
    return count


def _assert_same_candidates(
    design: Design,
    occupancy: Occupancy,
    target: int,
    window: Rect,
    margins: "tuple[float, ...]",
) -> int:
    """Per-candidate equality in one window; returns the candidate count."""
    scalar, vector = _context_pair(design, occupancy, target, window)
    evaluator = vector._vector
    checked = 0
    for bottom_row, gaps in vector.enumerate_insertion_points():
        expected = vector.evaluate_scalar(bottom_row, gaps)
        _assert_same(vector.evaluate(bottom_row, gaps), expected)
        # With an incumbent, the dominance cut-off may drop only a
        # candidate that costs more than it.
        bound = vector.target_cost_lower_bound(bottom_row, gaps)
        base = bound if expected is None else expected.cost
        for incumbent in (base, base - 1e-3, base + 1e-3):
            for margin in margins:
                got = evaluator.evaluate(
                    bottom_row, gaps, bound, incumbent, margin
                )
                if got is None and expected is not None:
                    assert expected.cost > incumbent, (
                        target, window, bottom_row, incumbent, margin
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
    return checked


def _assert_floor_below_cost(context: InsertionContext) -> int:
    """Every finished candidate's cost is at least the vector backend's
    floor for its scalar push sides; returns the candidates checked."""
    evaluator = context._vector
    checked = 0
    for bottom_row, gaps in context.enumerate_insertion_points():
        expected = context.evaluate_scalar(bottom_row, gaps)
        if expected is None:
            continue
        right = context._push_side(gaps, +1)
        left = context._push_side(gaps, -1)
        assert right is not None and left is not None
        floor = evaluator._cost_floor(
            bottom_row, (right[0], right[1], left[0], left[1])
        )
        assert floor <= expected.cost + 1e-9, (
            context.target, context.window, bottom_row, floor, expected.cost
        )
        checked += 1
    return checked


def test_finish_refuses_sites_left_of_the_summed_anchor():
    """The one-pass finish reads only forward checkpoints, so a site range
    starting left of the summed anchor (``<= 0.0``) must raise, not guess."""
    design = build_design(1, 0.3, with_fence=False, with_blockage=False)
    occupancy = Occupancy(design, Placement(design))
    _, vector = _context_pair(design, occupancy, 0)
    with pytest.raises(ValueError, match="left of the summed curve anchor"):
        vector._vector._finish_fast(0, [], {}, 10.0, {}, -5.0, math.inf)


def _has_sites(context: InsertionContext, gaps) -> bool:
    """Whether the scalar walk finds both pushes feasible and a site."""
    right = context._push_side(gaps, +1)
    left = context._push_side(gaps, -1)
    return (
        right is not None
        and left is not None
        and not set(right[0]) & set(left[0])
        and math.ceil(left[1]) <= math.floor(right[1])
    )


class _CutoffCounter:
    """Counts calls into the vector backend's evaluation stages.

    ``pre_push_skips`` are evaluations that never reached the push.
    ``summary_skips`` are candidates off the run tables that the push
    summaries decided before any walk.  ``table_cuts`` and
    ``walk_cuts`` are candidates that the scalar walk pushes with a
    non-empty site range and that the post-push test
    (``_cost_floor``) cut off: on the run tables, and off them after the
    push walk.  ``finish_stops`` are finishes with a non-empty site
    range that stopped before the guard walk.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.evaluations = 0
        self.pushes = 0
        self.summary_skips = 0
        self.table_cuts = 0
        self.walk_cuts = 0
        self.finish_stops = 0
        self._path = ""
        evaluate = VectorEvaluator.evaluate
        push = VectorEvaluator._push
        sides_of = VectorEvaluator._sides
        summary_limits = VectorEvaluator._summary_limits
        push_fast = VectorEvaluator._push_fast
        finish = VectorEvaluator._finish_fast

        def counted_evaluate(evaluator, *args, **kwargs):
            self.evaluations += 1
            return evaluate(evaluator, *args, **kwargs)

        def counted_push(evaluator, bottom_row, gaps, threshold):
            self.pushes += 1
            self._path = ""
            sides = push(evaluator, bottom_row, gaps, threshold)
            if sides is None and _has_sites(evaluator.context, gaps):
                if self._path == "table":
                    self.table_cuts += 1
                elif self._path == "walk":
                    self.walk_cuts += 1
            return sides

        def counted_sides(evaluator, gap):
            handled, sides = sides_of(evaluator, gap)
            if handled:
                self._path = "table"
            return handled, sides

        def counted_summary_limits(evaluator, *args):
            limits = summary_limits(evaluator, *args)
            if limits is None:
                self.summary_skips += 1
            return limits

        def counted_push_fast(evaluator, gaps, side):
            self._path = "walk"
            return push_fast(evaluator, gaps, side)

        def counted_finish(evaluator, *args):
            result = finish(evaluator, *args)
            right_limit, left_limit = args[3], args[5]
            if result is None and (
                math.ceil(left_limit) <= math.floor(right_limit)
            ):
                self.finish_stops += 1
            return result

        for name, patched in (
            ("evaluate", counted_evaluate),
            ("_push", counted_push),
            ("_sides", counted_sides),
            ("_summary_limits", counted_summary_limits),
            ("_push_fast", counted_push_fast),
            ("_finish_fast", counted_finish),
        ):
            monkeypatch.setattr(VectorEvaluator, name, patched)

    @property
    def pre_push_skips(self) -> int:
        return self.evaluations - self.pushes


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
        assert counter.summary_skips > 0
        assert counter.table_cuts > 0
        assert counter.walk_cuts > 0
        assert counter.finish_stops > 0

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
            expected.cost, PRUNE_MARGIN,
        )
        _assert_same(got, expected)

    def test_post_push_bound_charges_a_push_every_site_forces(self):
        """A fixed wall ends at site 9, so the target at its GP (9) or
        anywhere right of it pushes its right neighbour, which sits at
        its own GP, at least one site: the candidate costs that push,
        while the target alone costs nothing.  At an incumbent 1e-3
        below the scalar cost it must return None before the finish."""
        cell_type = CellType("S", 2, 1)
        design = Design(Technology(cell_types=[cell_type]), num_rows=1,
                        num_sites=40)
        wall = design.add_cell("w", cell_type, 7, 0, fixed=True)
        pushed = design.add_cell("p", cell_type, 10, 0)
        target = design.add_cell("t", cell_type, 9, 0)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        for cell in (wall, pushed):
            placement.move(cell, int(design.gp_x[cell]), 0)
            occupancy.add(cell)
        _, vector = _context_pair(design, occupancy, target)
        (gap,) = [g for g in vector.gaps_in_row(0) if g.right_cell == pushed]
        expected = vector.evaluate_scalar(0, (gap,))
        assert expected is not None and expected.x == 9
        assert expected.moves == [(pushed, 11)]
        evaluator = vector._vector
        sides = evaluator._push(0, (gap,), math.inf)
        assert sides is not None and math.ceil(sides[3]) == 9
        assert evaluator._target_floor(0, 9, math.floor(sides[1])) == 0.0
        assert evaluator._cost_floor(0, sides) == pytest.approx(expected.cost)

        def unreachable(*args):
            raise AssertionError("the finish ran for a provable loser")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(VectorEvaluator, "_finish_fast", unreachable)
            assert evaluator.evaluate(
                0, (gap,), vector.target_cost_lower_bound(0, (gap,)),
                expected.cost - 1e-3, PRUNE_MARGIN,
            ) is None

    def test_post_push_bound_caps_savings_at_the_reach(self):
        """The right neighbour sits 20 sites left of its GP, but a fixed
        wall stops it at 14, where the target's range ends at 12: it can
        save 4 sites, not 20.  The bound credits exactly those 4, equals
        the scalar cost, and at a tied incumbent the candidate must be
        finished."""
        cell_type = CellType("S", 2, 1)
        design = Design(Technology(cell_types=[cell_type]), num_rows=1,
                        num_sites=40)
        pushed = design.add_cell("p", cell_type, 30, 0)
        wall = design.add_cell("w", cell_type, 16, 0, fixed=True)
        target = design.add_cell("t", cell_type, 12, 0)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        placement.move(pushed, 10, 0)
        placement.move(wall, 16, 0)
        for cell in (pushed, wall):
            occupancy.add(cell)
        _, vector = _context_pair(design, occupancy, target)
        (gap,) = [g for g in vector.gaps_in_row(0) if g.right_cell == pushed]
        expected = vector.evaluate_scalar(0, (gap,))
        assert expected is not None and expected.x == 12
        assert expected.moves == [(pushed, 14)]
        assert expected.cost == pytest.approx(-4 * design.x_unit_rows)
        evaluator = vector._vector
        sides = evaluator._push(0, (gap,), math.inf)
        assert sides is not None and math.floor(sides[1]) == 12
        assert evaluator._cost_floor(0, sides) == pytest.approx(expected.cost)
        got = evaluator.evaluate(
            0, (gap,), vector.target_cost_lower_bound(0, (gap,)),
            expected.cost, PRUNE_MARGIN,
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
            0, (gap,), bound, expected.cost, PRUNE_MARGIN
        )
        _assert_same(got, expected)


def _hand_built(
    tech: Technology,
    layout: "list[tuple[CellType, int, int, float, bool]]",
    target: "tuple[CellType, float, int]",
    blockage: "Rect | None" = None,
) -> "tuple[InsertionContext, list[int]]":
    """The vector context of a 2-row, 40-site design with ``layout``.

    ``layout`` holds ``(type, x, row, gp_x, fixed)`` per cell, each
    registered straight into the occupancy at ``(x, row)`` with its GP
    in the same row; ``target`` is ``(type, gp_x, gp_y)``.
    """
    design = Design(tech, num_rows=2, num_sites=40)
    if blockage is not None:
        design.add_blockage(blockage)
    cells = [
        design.add_cell(f"c{index}", cell_type, gp_x, row, fixed=fixed)
        for index, (cell_type, _x, row, gp_x, fixed) in enumerate(layout)
    ]
    target_type, gp_x, gp_y = target
    target_cell = design.add_cell("t", target_type, gp_x, gp_y)
    placement = Placement(design)
    occupancy = Occupancy(design, placement)
    for cell, (_type, x, row, _gp_x, _fixed) in zip(cells, layout):
        placement.move(cell, x, row)
        occupancy.add(cell)
    _, vector = _context_pair(design, occupancy, target_cell)
    return vector, cells


def _assert_matches_scalar(context: InsertionContext, bottom_row, gaps):
    """The vector candidate equals ``evaluate_scalar``, without an
    incumbent and at a tied one; returns the scalar result."""
    expected = context.evaluate_scalar(bottom_row, gaps)
    _assert_same(context.evaluate(bottom_row, gaps), expected)
    bound = context.target_cost_lower_bound(bottom_row, gaps)
    got = context._vector.evaluate(
        bottom_row, gaps, bound,
        bound if expected is None else expected.cost,
        PRUNE_MARGIN,
    )
    _assert_same(got, expected)
    return expected


class TestPushSummaries:
    """Candidates off the run tables, decided from the push summaries."""

    single = CellType("S", 2, 1)
    double = CellType("D", 2, 2)

    def test_savings_reached_through_both_rows_of_a_seed(self):
        """The 2-row seed's rows reach the 2-row cell ``q`` through two
        neighbors, so the summed savings bound counts ``q`` twice.  All
        four pushed cells sit 4 sites left of their GP; the candidate
        costs 1.4 rows less than the target alone, and at a tied
        incumbent it must still finish."""
        tech = Technology(cell_types=[self.single, self.double])
        vector, (seed, _a, _b, q) = _hand_built(tech, [
            (self.double, 10, 0, 14.0, False),
            (self.single, 12, 0, 16.0, False),
            (self.single, 12, 1, 16.0, False),
            (self.double, 14, 0, 18.0, False),
        ], (self.single, 10.0, 0))
        (gap,) = [g for g in vector.gaps_in_row(0) if g.right_cell == seed]
        expected = _assert_matches_scalar(vector, 0, (gap,))
        assert expected is not None and expected.cost < -1.0
        assert expected.x == 12 and (q, 18) in expected.moves
        summary = vector._vector._summaries[+1][seed]
        assert summary is not None
        assert summary.savings == pytest.approx(2.0)  # q counted twice

    def test_cell_pushed_both_ways_by_a_two_row_target(self):
        tech = Technology(cell_types=[self.single, self.double])
        vector, (middle,) = _hand_built(
            tech, [(self.double, 10, 0, 10.0, False)], (self.double, 10.0, 0)
        )
        candidates = [
            gaps for row, gaps in vector.enumerate_insertion_points()
            if row == 0
            and gaps[0].right_cell == middle
            and gaps[1].left_cell == middle
        ]
        assert candidates
        for gaps in candidates:
            assert _assert_matches_scalar(vector, 0, gaps) is None
        assert vector._vector._summaries[+1][middle] is not None

    def test_pushed_cell_with_a_row_outside_every_segment(self):
        """The 2-row cell at x 10 is registered across a blockage that
        leaves row 1 without a segment there."""
        tech = Technology(cell_types=[self.single, self.double])
        vector, (seed, blocked) = _hand_built(tech, [
            (self.single, 8, 0, 8.0, False),
            (self.double, 10, 0, 10.0, False),
        ], (self.single, 6.0, 0), blockage=Rect(10, 1, 14, 2))
        (gap,) = [g for g in vector.gaps_in_row(0) if g.right_cell == seed]
        assert _assert_matches_scalar(vector, 0, (gap,)) is None
        assert vector._vector._summaries[+1][blocked] is None

    def test_far_cell_already_past_its_wall_extreme(self):
        """``far`` abuts the fixed wall, whose edge rule needs 2 sites."""
        ruled = CellType("R", 2, 1, left_edge=1, right_edge=1)
        tech = Technology(
            cell_types=[self.single, self.double, ruled],
            edge_spacing=EdgeSpacingTable([(1, 1, 2)]),
        )
        vector, (seed, far, _wall) = _hand_built(tech, [
            (self.double, 10, 0, 10.0, False),
            (ruled, 12, 0, 12.0, False),
            (ruled, 14, 0, 14.0, True),
        ], (self.single, 8.0, 0))
        (gap,) = [g for g in vector.gaps_in_row(0) if g.right_cell == seed]
        assert _assert_matches_scalar(vector, 0, (gap,)) is None
        assert vector._vector._summaries[+1][far] is None
