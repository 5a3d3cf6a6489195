"""Tests for the max-displacement matching stage (paper §3.2)."""

import itertools
import random

import pytest

from repro.checker import check_legal, count_routability_violations
from repro.core.matching import (
    MatchingStats,
    adaptive_delta0,
    optimize_max_displacement,
    phi,
)
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology


class TestPhi:
    def test_linear_below_threshold(self):
        assert phi(3.0, 5.0) == 3.0
        assert phi(5.0, 5.0) == 5.0

    def test_quintic_above_threshold(self):
        assert phi(10.0, 5.0) == pytest.approx(10.0**5 / 5.0**4)

    def test_continuous_at_threshold(self):
        assert phi(5.0 + 1e-12, 5.0) == pytest.approx(5.0, rel=1e-6)

    def test_strictly_increasing(self):
        values = [phi(d / 10.0, 3.0) for d in range(0, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))


def swap_test_design():
    """Two same-type cells whose GPs are swapped relative to placement."""
    tech = Technology(cell_types=[CellType("X", 2, 1)])
    design = Design(tech, num_rows=4, num_sites=30, name="swap")
    design.add_cell("a", tech.type_named("X"), 20.0, 0.0)
    design.add_cell("b", tech.type_named("X"), 2.0, 0.0)
    return design


class TestMatching:
    def test_swaps_crossed_cells(self):
        design = swap_test_design()
        placement = Placement(design)
        placement.move(0, 2, 0)   # far from its GP (20)
        placement.move(1, 20, 0)  # far from its GP (2)
        stats = optimize_max_displacement(placement)
        assert placement.position(0) == (20, 0)
        assert placement.position(1) == (2, 0)
        assert stats.cells_moved == 2
        assert stats.max_disp_after < stats.max_disp_before

    def test_different_types_not_swapped(self):
        tech = Technology(cell_types=[CellType("X", 2, 1), CellType("Y", 2, 1)])
        design = Design(tech, num_rows=2, num_sites=30, name="types")
        design.add_cell("a", tech.type_named("X"), 20.0, 0.0)
        design.add_cell("b", tech.type_named("Y"), 2.0, 0.0)
        placement = Placement(design)
        placement.move(0, 2, 0)
        placement.move(1, 20, 0)
        optimize_max_displacement(placement)
        assert placement.position(0) == (2, 0)  # unchanged

    def test_different_fences_not_swapped(self):
        from repro.model.fence import FenceRegion
        from repro.model.geometry import Rect

        tech = Technology(cell_types=[CellType("X", 2, 1)])
        design = Design(tech, num_rows=2, num_sites=40, name="fences")
        design.add_fence(FenceRegion(1, "f", [Rect(0, 0, 10, 2)]))
        design.add_cell("a", tech.type_named("X"), 30.0, 0.0, fence_id=0)
        design.add_cell("b", tech.type_named("X"), 2.0, 0.0, fence_id=1)
        placement = Placement(design)
        placement.move(0, 12, 0)
        placement.move(1, 2, 0)
        optimize_max_displacement(placement)
        assert placement.position(0) == (12, 0)

    def test_legality_preserved(self, small_design):
        placement = MGLegalizer(
            small_design, LegalizerParams(routability=False, scheduler_capacity=1)
        ).run()
        assert check_legal(placement).is_legal
        optimize_max_displacement(placement)
        assert check_legal(placement).is_legal

    def test_routability_preserved(self, rail_design):
        params = LegalizerParams(scheduler_capacity=1)
        placement = MGLegalizer(rail_design, params).run()
        before = count_routability_violations(placement).total
        optimize_max_displacement(placement, params)
        after = count_routability_violations(placement).total
        assert after == before

    def test_max_displacement_not_increased_much(self, small_design):
        placement = MGLegalizer(
            small_design, LegalizerParams(routability=False, scheduler_capacity=1)
        ).run()
        before = max(placement.displacements())
        optimize_max_displacement(placement)
        after = max(placement.displacements())
        assert after <= before + 1e-9

    def test_min_sum_never_raises_max(self):
        """The bare Eq. 3 optimum here moves c0 8 rows; the max is 7."""
        tech = Technology(cell_types=[CellType("X", 1, 1)])
        design = Design(tech, num_rows=4, num_sites=12, name="bound",
                        site_width=1.0, row_height=1.0)
        for index, (x, y) in enumerate(((8, 0), (5, 2), (1, 2))):
            design.add_cell(f"c{index}", tech.type_named("X"), float(x), float(y))
        positions = [(6, 3), (0, 0), (1, 3)]
        placement = Placement(design)
        for cell, (x, y) in enumerate(positions):
            placement.move(cell, x, y)
        assert max(placement.displacements()) == 7.0
        stats = optimize_max_displacement(
            placement, LegalizerParams(matching_delta0=10.0)
        )
        after = [placement.position(c) for c in range(3)]
        assert sorted(after) == sorted(positions)
        assert stats.max_disp_after <= 7.0
        # Both permutations within the bound cost 13; the bare optimum, 11.
        assert sum(placement.displacements()) == 13.0

    @pytest.mark.parametrize("seed", range(40))
    def test_permutation_minimizes_phi_sum(self, seed):
        """Eq. 3's sum after the stage is the brute-force minimum over the
        permutations that keep every cell within the incoming max."""
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        delta0 = rng.choice((0.5, 1.5, 4.0))
        tech = Technology(cell_types=[CellType("X", 2, 1)])
        design = Design(tech, num_rows=6, num_sites=30, name="brute")
        for index in range(n):
            design.add_cell(
                f"c{index}", tech.type_named("X"),
                rng.uniform(0.0, 28.0), rng.uniform(0.0, 5.0),
            )
        sites = [(x, y) for y in range(6) for x in range(0, 30, 2)]
        positions = rng.sample(sites, n)
        placement = Placement(design)
        for cell, (x, y) in enumerate(positions):
            placement.move(cell, x, y)

        def displacements(assigned):
            trial = Placement(design)
            for cell, (x, y) in enumerate(assigned):
                trial.move(cell, x, y)
            return [trial.displacement(c) for c in range(n)]

        def phi_sum(assigned):
            return sum(phi(d, delta0) for d in displacements(assigned))

        limit = max(displacements(positions))
        best = min(
            phi_sum(p) for p in itertools.permutations(positions)
            if max(displacements(p)) <= limit
        )
        optimize_max_displacement(
            placement, LegalizerParams(matching_delta0=delta0)
        )
        after = [placement.position(c) for c in range(n)]
        assert sorted(after) == sorted(positions)
        assert phi_sum(after) == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_chunking_large_groups(self):
        tech = Technology(cell_types=[CellType("X", 1, 1)])
        design = Design(tech, num_rows=1, num_sites=100, name="big")
        for index in range(30):
            design.add_cell(f"c{index}", tech.type_named("X"), float(index), 0.0)
        placement = Placement(design)
        for index in range(30):
            placement.move(index, 29 - index, 0)  # fully reversed
        params = LegalizerParams(matching_max_group=8)
        stats = optimize_max_displacement(placement, params)
        assert stats.groups >= 4  # split into ceil(30/8) chunks
        assert stats.max_disp_after <= stats.max_disp_before


class TestAdaptiveDelta0:
    def test_p90_of_displacements(self):
        design = swap_test_design()
        placement = Placement(design)
        placement.move(0, 20, 0)
        placement.move(1, 2, 0)
        assert adaptive_delta0(placement) == 1.0  # all zero -> floor of 1

    def test_floor_of_one(self, small_design):
        placement = Placement.from_gp_rounded(small_design)
        assert adaptive_delta0(placement) >= 1.0
