"""Cross-stage invariants the paper's flow guarantees.

* MGL with edge rules active never creates edge-spacing violations
  (fillers are part of the insertion math, §3.4);
* the matching stage changes neither the violation counts nor the
  multiset of occupied positions (§3.2);
* stage 3 with the guard never increases pin violations (§3.4);
* a batched (capacity-4) scheduler run stays legal (§3.5).
"""

import pytest

from repro import LegalizerParams, legalize
from repro.benchgen import SyntheticSpec, generate_design
from repro.checker import check_legal, count_routability_violations
from repro.core.flowopt import optimize_fixed_row_order
from repro.core.matching import optimize_max_displacement
from repro.core.mgl import MGLegalizer
from repro.core.refine import RoutabilityGuard


@pytest.fixture(scope="module")
def edge_rule_design():
    return generate_design(
        SyntheticSpec(
            name="edges",
            cells_by_height={1: 240, 2: 24, 3: 10},
            density=0.6,
            seed=31,
            with_edge_rules=True,
        )
    )


@pytest.fixture(scope="module")
def rails_design():
    return generate_design(
        SyntheticSpec(
            name="rails",
            cells_by_height={1: 220, 2: 20},
            density=0.5,
            seed=37,
            with_rails=True,
            num_io_pins=8,
        )
    )


class TestEdgeSpacing:
    def test_mgl_creates_no_edge_violations(self, edge_rule_design):
        placement = MGLegalizer(
            edge_rule_design,
            LegalizerParams(routability=False, scheduler_capacity=1),
        ).run()
        assert check_legal(placement).is_legal
        report = count_routability_violations(placement)
        assert report.edge_violations == 0

    def test_full_flow_keeps_zero_edge_violations(self, edge_rule_design):
        result = legalize(edge_rule_design, LegalizerParams(scheduler_capacity=1))
        report = count_routability_violations(result.placement)
        assert report.edge_violations == 0


class TestMatchingNeutrality:
    def test_violation_counts_unchanged(self, rails_design):
        params = LegalizerParams(scheduler_capacity=1)
        placement = MGLegalizer(rails_design, params).run()
        before = count_routability_violations(placement)
        optimize_max_displacement(placement, params)
        after = count_routability_violations(placement)
        assert (after.pin_short, after.pin_access, after.edge_violations) == (
            before.pin_short, before.pin_access, before.edge_violations
        )


class TestStage3Guard:
    def test_pin_violations_never_increase(self, rails_design):
        params = LegalizerParams(scheduler_capacity=1)
        guard = RoutabilityGuard(rails_design, params)
        placement = MGLegalizer(rails_design, params, guard=guard).run()
        before = count_routability_violations(placement).pin_violations
        optimize_fixed_row_order(placement, params, guard=guard)
        after = count_routability_violations(placement).pin_violations
        assert after <= before
        assert check_legal(placement).is_legal


class TestSchedulerThreads:
    def test_threaded_run_legal(self, rails_design):
        """A capacity-4 scheduler run on the rails fixture stays legal."""
        params = LegalizerParams(scheduler_capacity=4)
        placement = MGLegalizer(rails_design, params).run()
        assert check_legal(placement).is_legal
