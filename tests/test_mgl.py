"""Tests for the MGL legalizer (paper §3.1, Algorithm 1)."""

import pytest

from repro.checker import check_legal
from repro.core.mgl import (
    LegalizationError,
    MGLegalizer,
    height_weights,
    mgl_cell_order,
)
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology


def no_routability(**kwargs) -> LegalizerParams:
    return LegalizerParams(routability=False, scheduler_capacity=1, **kwargs)


class TestRun:
    def test_small_design_legal(self, small_design):
        placement = MGLegalizer(small_design, no_routability()).run()
        assert check_legal(placement).is_legal

    def test_fence_design_legal(self, fence_design):
        placement = MGLegalizer(fence_design, no_routability()).run()
        assert check_legal(placement).is_legal

    def test_deterministic(self, small_design):
        a = MGLegalizer(small_design, no_routability()).run()
        b = MGLegalizer(small_design, no_routability()).run()
        assert a.x == b.x and a.y == b.y

    def test_fixed_cells_untouched(self, basic_tech):
        design = Design(basic_tech, num_rows=10, num_sites=50, name="fx")
        design.add_cell("f", basic_tech.type_named("S4"), 10, 3, fixed=True)
        design.add_cell("m", basic_tech.type_named("S4"), 11.2, 3.4)
        placement = MGLegalizer(design, no_routability()).run()
        assert placement.position(0) == (10, 3)
        assert check_legal(placement).is_legal
        # The movable cell must not overlap the fixed one.
        assert placement.position(1) != (10, 3)

    def test_stats_populated(self, small_design):
        legalizer = MGLegalizer(small_design, no_routability())
        legalizer.run()
        assert legalizer.stats["cells_placed"] == small_design.num_cells
        assert legalizer.stats["insertions_evaluated"] > 0

    @pytest.mark.parametrize(
        "path",
        [
            dict(scheduler_capacity=1),
            dict(scheduler_capacity=4),
            dict(shards=2),
        ],
        ids=["capacity1", "capacity4", "shards2"],
    )
    def test_overfull_fence_raises(self, basic_tech, path):
        from repro.model.fence import FenceRegion
        from repro.model.geometry import Rect

        design = Design(basic_tech, num_rows=10, num_sites=50, name="full")
        design.add_fence(FenceRegion(1, "tiny", [Rect(0, 0, 4, 1)]))
        for index in range(3):  # 3 x 2-wide cells into 4 sites
            design.add_cell(
                f"c{index}", basic_tech.type_named("S2"), 1, 0, fence_id=1
            )
        params = LegalizerParams(routability=False, **path)
        with pytest.raises(LegalizationError, match="'c2'.*fence 1"):
            MGLegalizer(design, params).run()


class TestWindow:
    def test_window_centered_on_gp(self, small_design):
        legalizer = MGLegalizer(small_design, no_routability())
        window = legalizer.initial_window(0)
        gp_x = small_design.gp_x[0]
        assert window.xlo <= gp_x <= window.xhi

    def test_window_clipped_to_chip(self, small_design):
        legalizer = MGLegalizer(small_design, no_routability())
        window = legalizer.initial_window(0, scale=100.0)
        assert small_design.chip_rect.contains_rect(window)

    def test_window_clamped_into_fence(self, basic_tech):
        from repro.model.fence import FenceRegion
        from repro.model.geometry import Rect

        design = Design(basic_tech, num_rows=20, num_sites=100, name="farfence")
        design.add_fence(FenceRegion(1, "f", [Rect(80, 14, 100, 20)]))
        # GP is far from the fence; the window must still reach it.
        design.add_cell("c", basic_tech.type_named("S2"), 2.0, 1.0, fence_id=1)
        legalizer = MGLegalizer(design, no_routability())
        window = legalizer.initial_window(0)
        assert window.overlaps(Rect(80, 14, 100, 20))
        placement = legalizer.run()
        assert check_legal(placement).is_legal

    def test_window_grows_on_failure(self, basic_tech):
        design = Design(basic_tech, num_rows=1, num_sites=36, name="grow")
        # Fill the left side; free space only at [28, 36).
        for index in range(7):
            design.add_cell("b%d" % index, basic_tech.type_named("S4"),
                            index * 4, 0, fixed=True)
        design.add_cell("t", basic_tech.type_named("S4"), 2.0, 0.0)
        legalizer = MGLegalizer(
            design, no_routability(window_width=4, window_height=1)
        )
        placement = legalizer.run()
        assert check_legal(placement).is_legal
        assert placement.x[7] >= 28
        assert legalizer.stats["window_expansions"] > 0


class TestOrdering:
    def test_height_first_order(self, small_design):
        order = mgl_cell_order(small_design)
        heights = [small_design.cell_type_of(c).height for c in order]
        assert heights == sorted(heights, reverse=True)


class TestHeightWeights:
    def test_inverse_group_size(self, small_design):
        weight = height_weights(small_design)
        groups = small_design.cells_by_height()
        for height, cells in groups.items():
            assert weight(cells[0]) == pytest.approx(1.0 / len(cells))

    def test_height_weighted_run_legal(self, small_design):
        placement = MGLegalizer(
            small_design, no_routability(height_weighted=True)
        ).run()
        assert check_legal(placement).is_legal


class TestMaxDisplacementBehaviour:
    def test_displacement_reasonable(self, small_design):
        """At 55% density cells should land near their GP positions."""
        placement = MGLegalizer(small_design, no_routability()).run()
        disps = placement.displacements()
        assert disps.mean() < 2.0
        assert disps.max() < 12.0
