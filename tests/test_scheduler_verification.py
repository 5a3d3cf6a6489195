"""Direct tests for the scheduler's apply-time verification."""

import pytest

from repro.core.insertion import EvaluatedInsertion
from repro.core.mgl import MGLegalizer
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.core.scheduler import WindowScheduler
from repro.model.design import Design
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology


@pytest.fixture
def setup(basic_tech):
    design = Design(basic_tech, num_rows=6, num_sites=40, name="ver")
    design.add_cell("a", basic_tech.type_named("S4"), 10.0, 2.0)
    design.add_cell("b", basic_tech.type_named("S4"), 20.0, 2.0)
    design.add_cell("t", basic_tech.type_named("S4"), 15.0, 2.0)
    placement = Placement(design)
    occupancy = Occupancy(design, placement)
    placement.move(0, 10, 2)
    occupancy.add(0)
    placement.move(1, 20, 2)
    occupancy.add(1)
    legalizer = MGLegalizer(
        design, LegalizerParams(routability=False, scheduler_capacity=2)
    )
    scheduler = WindowScheduler(legalizer, occupancy)
    return design, placement, occupancy, scheduler


class TestStillValid:
    def test_clean_insertion_valid(self, setup):
        design, placement, occupancy, scheduler = setup
        insertion = EvaluatedInsertion(x=14, y=2, cost=0.0, moves=[])
        assert scheduler._still_valid(2, insertion)

    def test_overlap_with_existing_detected(self, setup):
        design, placement, occupancy, scheduler = setup
        insertion = EvaluatedInsertion(x=12, y=2, cost=0.0, moves=[])
        assert not scheduler._still_valid(2, insertion)  # overlaps cell 0

    def test_moves_relocate_conflicts(self, setup):
        design, placement, occupancy, scheduler = setup
        # Target at 12 works if cell 0 moves left to 6.
        insertion = EvaluatedInsertion(x=12, y=2, cost=0.0, moves=[(0, 6)])
        assert scheduler._still_valid(2, insertion)

    def test_planned_cells_checked_against_outsiders(self, setup):
        design, placement, occupancy, scheduler = setup
        # Moving cell 0 onto cell 1 is invalid even though the target fits.
        insertion = EvaluatedInsertion(x=2, y=2, cost=0.0, moves=[(0, 18)])
        assert not scheduler._still_valid(2, insertion)

    def test_edge_spacing_respected(self, edge_tech):
        design = Design(edge_tech, num_rows=4, num_sites=30, name="edge")
        design.add_cell("a", edge_tech.type_named("A"), 10.0, 1.0)
        design.add_cell("t", edge_tech.type_named("A"), 13.0, 1.0)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        placement.move(0, 10, 1)
        occupancy.add(0)
        legalizer = MGLegalizer(
            design, LegalizerParams(routability=False, scheduler_capacity=2)
        )
        scheduler = WindowScheduler(legalizer, occupancy)
        # A-A pairs need 1 site of spacing: x=12 abuts, invalid; x=13 ok.
        assert not scheduler._still_valid(
            1, EvaluatedInsertion(x=12, y=1, cost=0.0, moves=[])
        )
        assert scheduler._still_valid(
            1, EvaluatedInsertion(x=13, y=1, cost=0.0, moves=[])
        )


class TestReevaluationCounter:
    def test_counter_reported(self, small_design):
        from repro.model.placement import Placement as P

        legalizer = MGLegalizer(
            small_design, LegalizerParams(routability=False, scheduler_capacity=6)
        )
        placement = P(small_design)
        occupancy = Occupancy(small_design, placement)
        scheduler = WindowScheduler(legalizer, occupancy)
        scheduler.run()
        assert scheduler.reevaluations >= 0  # populated, non-negative
        from repro.checker import check_legal

        assert check_legal(placement).is_legal


class TestUnchangedRowsSkipTheScan:
    def test_skipped_scans_agree_with_the_scan(self, monkeypatch):
        """During a run, every plan whose rows no earlier batch member
        changed passes the full scan too, so skipping it changes nothing."""
        from repro.benchgen.synthetic import SyntheticSpec, generate_design

        original = WindowScheduler._still_valid
        counts = {"checks": 0, "skipped": 0, "invalid": 0}

        def checked(self, target, insertion):
            scanned = []
            scan = self._scan_valid

            def counting_scan(planned):
                scanned.append(True)
                return scan(planned)

            self._scan_valid = counting_scan
            try:
                valid = original(self, target, insertion)
            finally:
                del self._scan_valid
            start, self._batch_versions = self._batch_versions, None
            try:
                assert original(self, target, insertion) == valid
            finally:
                self._batch_versions = start
            counts["checks"] += 1
            counts["skipped"] += not scanned
            counts["invalid"] += not valid
            return valid

        monkeypatch.setattr(WindowScheduler, "_still_valid", checked)
        reevaluations = 0
        for seed in range(12):
            design = generate_design(SyntheticSpec(
                name=f"skip{seed}", cells_by_height={1: 120, 2: 20, 3: 6},
                density=0.85, seed=seed, with_edge_rules=True,
                with_rails=True,
            ))
            legalizer = MGLegalizer(design, LegalizerParams(
                scheduler_capacity=32, window_width=8, window_height=3,
            ))
            legalizer.run()
            reevaluations += legalizer.stats["scheduler_reevaluations"]
        assert 0 < counts["skipped"] < counts["checks"]
        assert counts["invalid"] == reevaluations > 0
