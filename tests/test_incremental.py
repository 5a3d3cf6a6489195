"""Tests for ECO-style incremental legalization."""

import copy

import pytest

from repro.checker import check_legal
from repro.core.incremental import IncrementalLegalizer
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.model.placement import Placement


@pytest.fixture
def legal_state(small_design):
    params = LegalizerParams(routability=False, scheduler_capacity=1)
    placement = MGLegalizer(small_design, params).run()
    assert check_legal(placement).is_legal
    return small_design, placement, params


class TestRelegalize:
    def test_ripup_reinsert_stays_legal(self, legal_state):
        design, placement, params = legal_state
        eco = IncrementalLegalizer(design, placement, params)
        victims = design.movable_cells()[:5]
        result = eco.relegalize(victims)
        assert sorted(result.placed) == sorted(victims)
        assert check_legal(placement).is_legal

    def test_untouched_cells_mostly_stay(self, legal_state):
        design, placement, params = legal_state
        before = list(placement.x)
        eco = IncrementalLegalizer(design, placement, params)
        victims = design.movable_cells()[:3]
        result = eco.relegalize(victims)
        moved_others = len(result.disturbed)
        # Spreads may nudge neighbors, but the vast majority must stay.
        assert moved_others <= design.num_cells // 10
        unchanged = sum(
            1 for c in range(design.num_cells)
            if placement.x[c] == before[c] and c not in victims
        )
        assert unchanged >= design.num_cells - len(victims) - moved_others

    def test_fixed_cell_rejected(self, basic_tech):
        from repro.model.design import Design

        design = Design(basic_tech, num_rows=4, num_sites=30, name="fx")
        design.add_cell("f", basic_tech.type_named("S2"), 3, 1, fixed=True)
        placement = Placement(design)
        placement.move(0, 3, 1)
        eco = IncrementalLegalizer(design, placement)
        with pytest.raises(ValueError):
            eco.relegalize([0])

    def test_verify_helper(self, legal_state):
        design, placement, params = legal_state
        eco = IncrementalLegalizer(design, placement, params)
        assert eco.verify()


class TestInsertNew:
    def test_new_cell_added_and_placed(self, legal_state):
        design, placement, params = legal_state
        new = design.add_cell(
            "eco_new", design.technology.type_named("S3"), 50.0, 10.0
        )
        placement.x.append(0)
        placement.y.append(0)
        eco = IncrementalLegalizer(design, placement, params)
        result = eco.insert_new(new)
        assert result.placed == [new]
        assert check_legal(placement).is_legal
        # Lands near its GP on a half-empty chip.
        assert placement.displacement(new) < 5.0

    def test_multirow_eco(self, legal_state):
        design, placement, params = legal_state
        new = design.add_cell(
            "eco_tall", design.technology.type_named("T3"), 30.0, 8.0
        )
        placement.x.append(0)
        placement.y.append(0)
        eco = IncrementalLegalizer(design, placement, params)
        eco.insert_new(new)
        assert check_legal(placement).is_legal

    def test_cells_added_after_an_evaluation(self, small_design):
        """Cells added once the legalizer has evaluated still get placed.

        ``relegalize`` builds the vector backend's design tables before
        the cells exist; inserting the second new cell then evaluates a
        window holding the first.  The vector backend must place them
        exactly where the scalar oracle does.
        """
        placements = {}
        for backend in ("vector", "scalar"):
            design = copy.deepcopy(small_design)
            params = LegalizerParams(
                routability=False, scheduler_capacity=1, eval_backend=backend
            )
            placement = MGLegalizer(design, params).run()
            eco = IncrementalLegalizer(design, placement, params)
            eco.relegalize(design.movable_cells()[:3])
            new_cells = [
                design.add_cell(
                    f"eco_add{index}", design.technology.type_named("S2"),
                    40.0 + 2 * index, 9.0,
                )
                for index in range(2)
            ]
            for _ in new_cells:
                placement.x.append(0)
                placement.y.append(0)
            for cell in new_cells:
                assert eco.insert_new(cell).placed == [cell]
            assert check_legal(placement).is_legal
            placements[backend] = (list(placement.x), list(placement.y))
        assert placements["vector"] == placements["scalar"]
