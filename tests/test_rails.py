"""Unit tests for P/G rail grids and pin short/access queries."""

import pytest
from hypothesis import given, strategies as st

from repro.model.geometry import Interval, Rect
from repro.model.rails import (
    HORIZONTAL,
    IOPin,
    Rail,
    RailGrid,
    VERTICAL,
    standard_pg_grid,
)


def h_rail(layer=2, offset=0.0, pitch=8.0, width=0.5, span=(0.0, 40.0),
           extent=(0.0, 100.0)):
    return Rail(layer, HORIZONTAL, offset, pitch, width,
                Interval(*span), Interval(*extent))


class TestRail:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            h_rail(pitch=0)
        with pytest.raises(ValueError):
            h_rail(width=0)
        with pytest.raises(ValueError):
            Rail(1, "x", 0, 1, 1, Interval(0, 1), Interval(0, 1))

    def test_overlaps_interval_on_stripe(self):
        rail = h_rail()  # stripes at [0, .5), [8, 8.5), [16, 16.5) ...
        assert rail.overlaps_interval(0.2, 0.3)
        assert rail.overlaps_interval(7.9, 8.1)
        assert not rail.overlaps_interval(1.0, 7.9)
        assert not rail.overlaps_interval(8.5, 15.9)

    def test_overlaps_interval_outside_span(self):
        rail = h_rail(span=(0.0, 10.0))
        assert not rail.overlaps_interval(15.9, 16.2)  # stripe beyond span

    def test_empty_interval(self):
        assert not h_rail().overlaps_interval(5.0, 5.0)

    def test_overlaps_rect_respects_extent(self):
        rail = h_rail(extent=(0.0, 50.0))
        assert rail.overlaps_rect(Rect(10, 7.9, 11, 8.2))
        assert not rail.overlaps_rect(Rect(60, 7.9, 61, 8.2))  # past extent

    def test_overlaps_rect_empty_rect(self):
        rail = h_rail()
        assert not rail.overlaps_extent(10.0, 10.0)
        assert not rail.overlaps_rect(Rect(10, 8.0, 10, 8.2))  # zero width
        assert not rail.overlaps_rect(Rect(10, 8.1, 11, 8.1))  # zero height

    def test_stripes_in(self):
        rail = h_rail()
        stripes = list(rail.stripes_in(0.0, 20.0))
        assert stripes == [
            Interval(0.0, 0.5),
            Interval(8.0, 8.5),
            Interval(16.0, 16.5),
        ]

    def test_stripes_in_clipped(self):
        rail = h_rail()
        stripes = list(rail.stripes_in(8.2, 8.4))
        assert stripes == [Interval(8.2, 8.4)]

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.05, max_value=5),
        st.floats(min_value=-30, max_value=60),
        st.floats(min_value=0.01, max_value=10),
    )
    def test_property_matches_bruteforce(self, offset, pitch, width, lo, length):
        width = min(width, pitch)
        rail = h_rail(offset=offset, pitch=pitch, width=width,
                      span=(-100.0, 100.0))
        hi = lo + length
        # Brute force over stripe indices.
        import math
        first = math.floor((lo - offset - width) / pitch) - 2
        brute = any(
            (offset + i * pitch) < hi and (offset + i * pitch + width) > lo
            for i in range(first, first + int(length / pitch) + 6)
        )
        assert rail.overlaps_interval(lo, hi) == brute


class TestRailGrid:
    def test_pin_short_and_access(self):
        grid = RailGrid()
        grid.add_rail(h_rail(layer=2))
        pin_on_stripe = Rect(5, 8.0, 5.3, 8.3)
        assert grid.pin_short(pin_on_stripe, 2)
        assert grid.pin_access_blocked(pin_on_stripe, 1)
        assert not grid.pin_short(pin_on_stripe, 1)
        assert not grid.pin_access_blocked(pin_on_stripe, 2)

    def test_io_pin_blocking(self):
        grid = RailGrid()
        grid.add_io_pin(IOPin("io", 3, Rect(1, 1, 2, 2)))
        assert grid.pin_short(Rect(1.5, 1.5, 1.8, 1.8), 3)
        assert grid.pin_access_blocked(Rect(1.5, 1.5, 1.8, 1.8), 2)
        assert not grid.pin_short(Rect(1.5, 1.5, 1.8, 1.8), 2)

    def test_rails_on_and_io_pins_on(self):
        grid = RailGrid()
        grid.add_rail(h_rail(layer=2))
        grid.add_io_pin(IOPin("io", 3, Rect(0, 0, 1, 1)))
        assert len(grid.rails_on(2)) == 1
        assert grid.rails_on(3) == []
        assert len(grid.io_pins_on(3)) == 1

    def test_blocked_x_intervals_vertical(self):
        grid = RailGrid()
        grid.add_rail(
            Rail(3, VERTICAL, offset=2.0, pitch=10.0, width=0.4,
                 span=Interval(0, 100), extent=Interval(0, 50))
        )
        grid.add_io_pin(IOPin("io", 3, Rect(5.0, 1.0, 6.0, 2.0)))
        blocked = grid.blocked_x_intervals(3, 0.5, 1.5, 0.0, 30.0)
        assert (2.0, 2.4) in blocked
        assert (12.0, 12.4) in blocked
        assert (5.0, 6.0) in blocked

    def test_horizontal_blocked(self):
        grid = RailGrid()
        grid.add_rail(h_rail(layer=2))
        assert grid.horizontal_blocked(2, 7.9, 8.1)
        assert not grid.horizontal_blocked(2, 1.0, 7.0)
        assert not grid.horizontal_blocked(3, 7.9, 8.1)


class TestStandardGrid:
    def test_structure(self):
        chip = Rect(0, 0, 100, 40)
        grid = standard_pg_grid(chip, row_height=2.0, m2_pitch_rows=4,
                                m3_pitch=12.0)
        layers = sorted(r.layer for r in grid.rails)
        assert layers == [2, 3]
        m2 = grid.rails_on(2)[0]
        assert m2.orientation == HORIZONTAL
        assert m2.pitch == 8.0
        m3 = grid.rails_on(3)[0]
        assert m3.orientation == VERTICAL
        assert m3.pitch == 12.0

    def test_m2_stripe_every_four_rows(self):
        chip = Rect(0, 0, 100, 40)
        grid = standard_pg_grid(chip, row_height=2.0, m2_pitch_rows=4)
        # A band covering rows 0..1 in y hits the stripe at y=0.
        assert grid.horizontal_blocked(2, 0.0, 0.1)
        assert not grid.horizontal_blocked(2, 2.0, 6.0)
        assert grid.horizontal_blocked(2, 7.9, 8.2)
