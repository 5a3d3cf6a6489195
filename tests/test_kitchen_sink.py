"""Kitchen-sink property test: every feature at once, random instances.

Generates small designs exercising fences (multi-rect), blockages,
macros, rails, IO pins, and edge rules simultaneously, runs the full
flow, and asserts the system invariants.  This is the crash-finder that
guards feature interactions.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import LegalizerParams, legalize
from repro.benchgen import SyntheticSpec, generate_design
from repro.checker import check_legal, contest_score, count_routability_violations


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    density=st.floats(0.35, 0.7),
    fences=st.integers(0, 2),
    blockages=st.integers(0, 2),
    macros=st.integers(0, 2),
    rails=st.booleans(),
)
# A draw on which the unbounded Eq. 8 optimum raised the max.
@example(seed=142, density=0.372, fences=1, blockages=1, macros=2, rails=False)
def test_full_flow_all_features(seed, density, fences, blockages, macros, rails):
    design = generate_design(
        SyntheticSpec(
            name=f"sink{seed}",
            cells_by_height={1: 150, 2: 14, 3: 6},
            density=density,
            seed=seed,
            num_fences=fences,
            multi_rect_fences=True,
            num_blockages=blockages,
            num_macros=macros,
            with_rails=rails,
            num_io_pins=4 if rails else 0,
            with_edge_rules=True,
            nets_per_cell=0.5,
        )
    )
    design.validate()
    result = legalize(design, LegalizerParams(scheduler_capacity=1))

    report = check_legal(result.placement)
    assert report.is_legal, report.summary()

    routability = count_routability_violations(result.placement)
    assert routability.edge_violations == 0  # fillers are exact

    score = contest_score(result.placement)
    assert score.score >= 0

    # Post-processing contract: max displacement never regresses MGL's.
    final = result.after_flow or result.after_matching or result.after_mgl
    assert final.max_disp <= result.after_mgl.max_disp + 1e-9


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_scheduler_capacity_invariance_of_legality(seed):
    design = generate_design(
        SyntheticSpec(
            name=f"cap{seed}",
            cells_by_height={1: 120, 2: 10},
            density=0.6,
            seed=seed,
            num_fences=1,
        )
    )
    for capacity in (1, 3):
        result = legalize(
            design,
            LegalizerParams(routability=False, scheduler_capacity=capacity),
        )
        assert check_legal(result.placement).is_legal
