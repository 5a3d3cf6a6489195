"""Tests for the routability guard (paper §3.4)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.curves import CurveSet
from repro.core.params import LegalizerParams
from repro.core.refine import BLOCKED_PENALTY, RoutabilityGuard
from repro.model.design import Design
from repro.model.geometry import Interval, Rect
from repro.model.placement import Placement
from repro.model.rails import HORIZONTAL, IOPin, Rail, VERTICAL
from repro.model.technology import CellType, PinShape, Technology

from tests.test_perf_equivalence import random_curves


@pytest.fixture
def guarded():
    tech = Technology(
        cell_types=[
            CellType("P", 3, 1, pins=(
                PinShape("a", 1, Rect(0.05, 0.2, 0.25, 0.6)),
                PinShape("z", 2, Rect(0.3, 1.0, 0.45, 1.5)),
            )),
            CellType("NOPIN", 2, 1),
        ]
    )
    design = Design(tech, num_rows=8, num_sites=40, name="guarded")
    # Horizontal M2 stripe crossing row 2's M1 pin band.
    design.rails.add_rail(
        Rail(2, HORIZONTAL, offset=4.2, pitch=1000.0, width=0.2,
             span=Interval(0, 16), extent=Interval(0, 8))
    )
    # Vertical M3 stripes every 2.0 length units (10 sites).
    design.rails.add_rail(
        Rail(3, VERTICAL, offset=1.3, pitch=2.0, width=0.1,
             span=Interval(0, 8), extent=Interval(0, 16))
    )
    return design, RoutabilityGuard(design, LegalizerParams())


@pytest.fixture
def guarded_io(guarded):
    """The guarded design plus IO pins over row 0 (M1) and rows 1-2 (M3)."""
    design, guard = guarded
    design.rails.add_io_pin(IOPin("io", 1, Rect(1.0, 0.1, 1.3, 0.9)))
    design.rails.add_io_pin(IOPin("io3", 3, Rect(3.0, 2.2, 3.4, 5.8)))
    return design, guard


class TestRowOk:
    def test_blocked_row_detected(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        assert not guard.row_ok(p, 2)  # M1 pin under the M2 stripe
        assert guard.row_ok(p, 0)

    def test_pinless_type_always_ok(self, guarded):
        design, guard = guarded
        nopin = design.technology.type_named("NOPIN")
        assert guard.row_ok(nopin, 2)

    def test_cache_consistency(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        assert guard.row_ok(p, 2) == guard.row_ok(p, 2)


class TestXBlocked:
    def test_vertical_rail_blocks_some_x(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        blocked = [x for x in range(0, 30) if guard.x_blocked(p, 0, x)]
        clear = [x for x in range(0, 30) if not guard.x_blocked(p, 0, x)]
        assert blocked and clear  # stripes block periodically, not always

    def test_adjust_x_moves_off_rail(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        blocked = next(x for x in range(5, 25) if guard.x_blocked(p, 0, x))
        new_x, extra = guard.adjust_x(p, 0, blocked, 0, 39, lambda x: abs(x - blocked))
        assert not guard.x_blocked(p, 0, new_x)
        assert new_x != blocked

    def test_adjust_x_keeps_clean_optimum(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        clear = next(x for x in range(5, 25) if not guard.x_blocked(p, 0, x))
        new_x, extra = guard.adjust_x(p, 0, clear, 0, 39, lambda x: abs(x - clear))
        assert new_x == clear
        assert extra == pytest.approx(0.0)

    def test_adjust_x_penalty_when_everywhere_blocked(self):
        tech = Technology(cell_types=[
            CellType("P", 2, 1, pins=(PinShape("a", 2, Rect(0.0, 0.5, 0.4, 0.9)),))
        ])
        design = Design(tech, num_rows=4, num_sites=20, name="wall")
        design.rails.add_rail(  # M3 vertical stripes denser than the pin
            Rail(3, VERTICAL, offset=0.0, pitch=0.3, width=0.25,
                 span=Interval(0, 4), extent=Interval(0, 8))
        )
        guard = RoutabilityGuard(design, LegalizerParams())
        p = tech.type_named("P")
        x, extra = guard.adjust_x(p, 0, 5, 0, 18, lambda x: 0.0)
        assert x == 5  # kept
        assert extra >= BLOCKED_PENALTY


class TestIOPenalty:
    def test_penalty_counted(self, guarded):
        design, guard = guarded
        design.rails.add_io_pin(IOPin("io", 1, Rect(1.0, 0.1, 1.3, 0.9)))
        p = design.technology.type_named("P")
        # At x=5 the M1 pin spans x [1.05, 1.25): overlaps the IO pin.
        assert guard.io_penalty_at(p, 0, 5) > 0
        assert guard.io_penalty_at(p, 0, 20) == 0.0


def reference_feasible_range(guard, cell_type, row, x, segment_lo, segment_hi):
    """Reference :meth:`RoutabilityGuard.feasible_range`: probe every site.

    The plain site-by-site walk, with each probe asked of ``x_blocked``
    and of every (pin, IO pin) pair through ``Rect.overlaps``.  An IO
    overlap bounds the range whatever ``io_penalty`` is.
    """
    if not guard.params.routability or not cell_type.pins:
        return segment_lo, segment_hi
    io_pins = guard.design.rails.io_pins

    def conflicted(site):
        if guard.x_blocked(cell_type, row, site):
            return True
        return any(
            io.layer in (layer, layer + 1) and io.rect.overlaps(rect)
            for layer, rect in guard.pin_rects_at(cell_type, row, site)
            for io in io_pins
        )

    if conflicted(x):
        return x, x
    limit = guard.params.feasible_range_limit
    left = x
    while left > max(segment_lo, x - limit) and not conflicted(left - 1):
        left -= 1
    right = x
    while right < min(segment_hi, x + limit) and not conflicted(right + 1):
        right += 1
    return left, right


def tenths(lo, hi):
    """Coordinates on a 0.1 grid, so stripe edges can graze pin edges."""
    return st.integers(lo, hi).map(lambda k: k / 10)


@st.composite
def grid_rect(draw, x_hi, y_hi, max_width, max_height):
    """A rect on the 0.1 grid, empty (zero width or height) on some draws."""
    xlo, ylo = draw(st.integers(0, x_hi)), draw(st.integers(0, y_hi))
    width = draw(st.sampled_from(range(max_width + 1)))  # 0: empty
    height = draw(st.sampled_from(range(max_height + 1)))
    return Rect(xlo / 10, ylo / 10, (xlo + width) / 10, (ylo + height) / 10)


@st.composite
def pinned_designs(draw, with_io):
    """A small design with a pinned type and random vertical rails.

    Pins sit on layers 1-3 (some with empty rects); each rail family has
    a random offset, pitch and width on a 0.1 grid, on layers 1-4, and
    an extent that spans the chip (the walk-plan case) or only part of
    it.  With ``with_io``, IO pins on layers 1-4 cover parts of a few
    rows.
    """
    num_rows, num_sites = 8, draw(st.integers(12, 40))
    height = draw(st.integers(1, 3))
    pins = tuple(
        PinShape(f"p{index}", draw(st.integers(1, 3)),
                 draw(grid_rect(6, 20 * height - 4, 5, 5)))
        for index in range(draw(st.integers(1, 3)))
    )
    tech = Technology(cell_types=[CellType("P", 4, height, pins=pins)])
    design = Design(tech, num_rows=num_rows, num_sites=num_sites,
                    power_parity=draw(st.integers(0, 1)), name="drawn")
    chip_x, chip_y = num_sites * design.site_width, num_rows * design.row_height
    for _ in range(draw(st.integers(1, 3))):
        pitch = draw(st.integers(1, 30))
        extent = Interval(0, chip_y)
        if draw(st.integers(0, 3)) == 0:
            extent = Interval(*sorted((draw(tenths(0, 160)), draw(tenths(0, 160)))))
        design.rails.add_rail(Rail(
            draw(st.integers(1, 4)), VERTICAL,
            offset=draw(tenths(-20, 40)), pitch=pitch / 10,
            width=draw(tenths(1, pitch)),
            span=Interval(draw(tenths(-20, 20)), chip_x), extent=extent,
        ))
    if with_io:
        for index in range(draw(st.integers(0, 4))):
            rect = draw(grid_rect(2 * num_sites, 20 * num_rows - 1, 10, 60))
            design.rails.add_io_pin(
                IOPin(f"io{index}", draw(st.integers(1, 4)), rect)
            )
    return design


class TestGuardTables:
    @settings(max_examples=200, deadline=None)
    @given(design=pinned_designs(with_io=False), data=st.data())
    def test_blocked_sites_match_x_blocked(self, design, data):
        cell_type = design.technology.type_named("P")
        row = data.draw(st.integers(0, design.num_rows - cell_type.height))
        guard = RoutabilityGuard(design, LegalizerParams())
        reference = RoutabilityGuard(design, LegalizerParams())
        expected = [
            reference.x_blocked(cell_type, row, x)
            for x in range(design.num_sites + 1)
        ]
        assert guard._blocked_sites(cell_type, row) == expected
        plan = guard._walk_plan(cell_type, row)
        if plan is not None:
            assert plan[0] == expected

    @settings(max_examples=200, deadline=None)
    @given(design=pinned_designs(with_io=True), data=st.data())
    def test_feasible_range_matches_reference(self, design, data):
        cell_type = design.technology.type_named("P")
        num_sites = design.num_sites
        io_penalty = data.draw(st.sampled_from([0.0, 10.0]))
        limit = data.draw(st.integers(0, 50))
        params = LegalizerParams(io_penalty=io_penalty, feasible_range_limit=limit)
        guard = RoutabilityGuard(design, params)
        reference = RoutabilityGuard(design, params)
        for _ in range(4):
            row = data.draw(st.integers(0, design.num_rows - cell_type.height))
            x = data.draw(st.integers(-6, num_sites + 6))
            bound = st.one_of(
                st.sampled_from([0, num_sites]), st.integers(-6, num_sites + 6)
            )
            lo, hi = sorted((data.draw(bound), data.draw(bound)))
            assert guard.feasible_range(cell_type, row, x, lo, hi) == (
                reference_feasible_range(reference, cell_type, row, x, lo, hi)
            )


class TestPlannedWalk:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 100_000), count=st.integers(0, 8),
           row=st.integers(0, 7), type_name=st.sampled_from(["P", "NOPIN"]),
           sites=st.lists(st.integers(-3, 43), min_size=3, max_size=3))
    def test_matches_adjust_x(self, guarded_io, seed, count, row, type_name,
                              sites):
        design, guard = guarded_io
        cell_type = design.technology.type_named(type_name)
        lo, x_opt, hi = sorted(sites)
        cost_at = CurveSet(random_curves(random.Random(seed), count)).value
        assert guard.adjust_x_planned(
            cell_type, row, x_opt, lo, hi, cost_at
        ) == guard.adjust_x(cell_type, row, x_opt, lo, hi, cost_at)

    def test_walk_meets_rails_and_io(self, guarded_io):
        design, guard = guarded_io
        p = design.technology.type_named("P")
        sites = range(design.num_sites + 1)
        assert any(guard.x_blocked(p, 0, x) for x in sites)
        assert any(guard.io_penalty_at(p, 0, x) > 0 for x in sites)
        assert any(guard.io_penalty_at(p, 1, x) > 0 for x in sites)


class TestFeasibleRange:
    def test_range_contains_current_and_is_clean(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        x = next(x for x in range(5, 25) if not guard.x_blocked(p, 0, x))
        lo, hi = guard.feasible_range(p, 0, x, 0, 37)
        assert lo <= x <= hi
        for candidate in range(lo, hi + 1):
            assert not guard.x_blocked(p, 0, candidate)

    def test_blocked_current_pins_cell(self, guarded):
        design, guard = guarded
        p = design.technology.type_named("P")
        x = next(x for x in range(5, 25) if guard.x_blocked(p, 0, x))
        assert guard.feasible_range(p, 0, x, 0, 37) == (x, x)

    def test_pinless_gets_full_segment(self, guarded):
        design, guard = guarded
        nopin = design.technology.type_named("NOPIN")
        assert guard.feasible_range(nopin, 0, 10, 2, 30) == (2, 30)

    def test_growth_cap(self, guarded):
        design, guard = guarded
        guard.params.feasible_range_limit = 2
        nopin_tech = Technology(cell_types=[CellType("Q", 2, 1, pins=(
            PinShape("a", 1, Rect(0.0, 0.2, 0.1, 0.4)),))])
        q = nopin_tech.cell_types[0]
        lo, hi = guard.feasible_range(q, 1, 10, 0, 37)
        assert lo >= 8 and hi <= 12

    @pytest.mark.parametrize("segment_lo", [0, -5])  # planned, fallback walk
    def test_io_pins_bound_range_at_zero_penalty(self, guarded_io, segment_lo):
        design, _ = guarded_io
        p = design.technology.type_named("P")
        free = RoutabilityGuard(design, LegalizerParams(io_penalty=0.0))
        # Sites 4-6 put the M1 pin on the M1 IO pin; 5 and 15 are also
        # rail-blocked.  A zero penalty still keeps the cell off the pin.
        assert free.feasible_range(p, 0, 3, segment_lo, 37) == (segment_lo, 3)
        assert free.feasible_range(p, 0, 8, segment_lo, 37) == (7, 14)
        assert free.feasible_range(p, 0, 4, segment_lo, 37) == (4, 4)
