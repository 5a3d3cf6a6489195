"""Tests for the routability guard (paper §3.4)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.curves import CurveSet
from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
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
        assert extra >= guard.params.blocked_penalty


class TestIOPenalty:
    def test_penalty_counted(self, guarded):
        design, guard = guarded
        design.rails.add_io_pin(IOPin("io", 1, Rect(1.0, 0.1, 1.3, 0.9)))
        p = design.technology.type_named("P")
        # At x=5 the M1 pin spans x [1.05, 1.25): overlaps the IO pin.
        assert guard.io_penalty_at(p, 0, 5) > 0
        assert guard.io_penalty_at(p, 0, 20) == 0.0


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
