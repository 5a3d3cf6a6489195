"""Tests for the fixed-row-fixed-order dual-MCF stage (paper §3.3)."""

import random

import pytest

from repro.checker import check_legal
from repro.core import flowopt
from repro.core.flowopt import (
    FixedRowOrderProblem,
    build_dual_graph,
    build_problem,
    optimize_fixed_row_order,
    solve_lp,
    solve_mcf,
)
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology


def chain_problem(gps, widths=None, lo=0, hi=100, weights=None, dys=None):
    """A single-row chain of cells in the given order."""
    n = len(gps)
    widths = widths or [2] * n
    return FixedRowOrderProblem(
        cells=list(range(n)),
        weights=weights or [1] * n,
        widths=widths,
        gp_x=list(gps),
        dy=dys or [0] * n,
        lower=[lo] * n,
        upper=[hi - w for w in widths],
        pairs=[(i, i + 1, widths[i]) for i in range(n - 1)],
    )


class TestSolvers:
    def test_separated_cells_reach_gp(self):
        problem = chain_problem([10, 20, 30])
        assert solve_mcf(problem, 0) == [10, 20, 30]
        assert solve_lp(problem, 0) == [10, 20, 30]

    def test_overlapping_gps_cluster(self):
        # Both want x=10 but must be 2 apart: optimum is {9,11},{10,12},{8,10}.
        problem = chain_problem([10, 10])
        xs = solve_mcf(problem, 0)
        assert xs[1] - xs[0] >= 2
        assert problem.objective(xs, 0) == 2

    def test_weights_break_ties(self):
        # Heavy first cell: it should sit exactly at its GP.
        problem = chain_problem([10, 10], weights=[5, 1])
        xs = solve_mcf(problem, 0)
        assert xs[0] == 10
        assert xs[1] == 12

    def test_bounds_respected(self):
        problem = chain_problem([0, 50], lo=5, hi=30)
        xs = solve_mcf(problem, 0)
        assert xs[0] >= 5
        assert xs[1] <= 28
        assert problem.check_feasible(xs) == []

    def test_max_disp_term_flattens_outlier(self):
        # Large n0 should trade total displacement for the worst cell.
        problem = chain_problem([0, 2, 4, 30], hi=200)
        plain = solve_mcf(problem, 0)
        weighted = solve_mcf(problem, 50)
        worst_plain = max(abs(x - g) for x, g in zip(plain, problem.gp_x))
        worst_weighted = max(abs(x - g) for x, g in zip(weighted, problem.gp_x))
        assert worst_weighted <= worst_plain

    @pytest.mark.parametrize("n0", [0, 1, 4])
    def test_mcf_equals_lp_random_chains(self, n0):
        rng = random.Random(31 + n0)
        for _ in range(15):
            n = rng.randint(1, 12)
            gps = sorted(rng.randint(0, 60) for _ in range(n))
            widths = [rng.randint(1, 4) for _ in range(n)]
            dys = [rng.randint(0, 3) for _ in range(n)]
            problem = chain_problem(gps, widths=widths, hi=80, dys=dys)
            mcf = solve_mcf(problem, n0)
            lp = solve_lp(problem, n0)
            assert problem.check_feasible(mcf) == []
            assert problem.check_feasible(lp) == []
            assert problem.objective(mcf, n0) == problem.objective(lp, n0)

    def test_dual_graph_size_matches_paper(self):
        """m+1 nodes and 4m+|E| edges without the max-disp extension."""
        problem = chain_problem([0, 10, 20])
        graph, v_z = build_dual_graph(problem, 0)
        assert graph.num_nodes == 4  # m + v_z
        assert graph.num_edges == 4 * 3 + 2  # f+/f-/fl/fr per cell + pairs
        # With the extension: + v_p + v_n, 2 edges per cell + 2.
        graph2, _ = build_dual_graph(problem, 5)
        assert graph2.num_nodes == 6
        assert graph2.num_edges == graph.num_edges + 2 * 3 + 2


class TestBuildProblem:
    def test_extracts_neighbors_and_bounds(self, basic_tech):
        design = Design(basic_tech, num_rows=2, num_sites=30, name="bp")
        design.add_cell("a", basic_tech.type_named("S2"), 3.0, 0.0)
        design.add_cell("b", basic_tech.type_named("S3"), 8.0, 0.0)
        placement = Placement(design)
        placement.move(0, 3, 0)
        placement.move(1, 8, 0)
        problem = build_problem(placement)
        assert problem.pairs == [(0, 1, 2)]
        assert problem.lower == [0, 0]
        assert problem.upper == [28, 27]

    def test_fixed_cells_become_bounds(self, basic_tech):
        design = Design(basic_tech, num_rows=1, num_sites=30, name="fx")
        design.add_cell("f", basic_tech.type_named("S4"), 10, 0, fixed=True)
        design.add_cell("m", basic_tech.type_named("S2"), 16.0, 0.0)
        placement = Placement(design)
        placement.move(0, 10, 0)
        placement.move(1, 16, 0)
        problem = build_problem(placement)
        assert problem.cells == [1]
        assert problem.lower[0] == 14  # fixed right edge at 14
        assert problem.pairs == []

    def test_multirow_pair_deduplicated(self, basic_tech):
        design = Design(basic_tech, num_rows=2, num_sites=30, name="mr")
        design.add_cell("d", basic_tech.type_named("D3"), 0.0, 0.0)
        design.add_cell("e", basic_tech.type_named("D3"), 10.0, 0.0)
        placement = Placement(design)
        placement.move(0, 0, 0)
        placement.move(1, 10, 0)
        problem = build_problem(placement)
        # Adjacent on two rows but only one constraint.
        assert problem.pairs == [(0, 1, 3)]

    def test_edge_gap_in_separation(self, edge_tech):
        design = Design(edge_tech, num_rows=1, num_sites=30, name="eg")
        design.add_cell("a", edge_tech.type_named("A"), 0.0, 0.0)
        design.add_cell("b", edge_tech.type_named("A"), 5.0, 0.0)
        placement = Placement(design)
        placement.move(0, 0, 0)
        placement.move(1, 5, 0)
        problem = build_problem(placement)
        assert problem.pairs == [(0, 1, 2 + 1)]  # width 2 + rule 1


class TestOptimize:
    def test_never_worsens_and_stays_legal(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=1)
        placement = MGLegalizer(small_design, params).run()
        before = placement.total_displacement_sites()
        stats = optimize_fixed_row_order(placement, params)
        after = placement.total_displacement_sites()
        assert check_legal(placement).is_legal
        assert stats.objective_after <= stats.objective_before

    def test_rows_and_order_preserved(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=1)
        placement = MGLegalizer(small_design, params).run()
        rows_before = list(placement.y)
        order_before = sorted(
            range(small_design.num_cells), key=lambda c: (placement.y[c], placement.x[c])
        )
        optimize_fixed_row_order(placement, params)
        assert placement.y == rows_before
        order_after = sorted(
            range(small_design.num_cells), key=lambda c: (placement.y[c], placement.x[c])
        )
        assert order_after == order_before

    def test_lp_backend(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=1)
        a = MGLegalizer(small_design, params).run()
        b = a.copy()
        stats_mcf = optimize_fixed_row_order(a, params, backend="mcf")
        stats_lp = optimize_fixed_row_order(b, params, backend="lp")
        assert stats_mcf.objective_after == stats_lp.objective_after

    @pytest.mark.parametrize("declined", ["infeasible", "worse"])
    def test_declined_solution_reports_before_values(
        self, small_design, monkeypatch, declined
    ):
        params = LegalizerParams(routability=False, scheduler_capacity=1)
        placement = MGLegalizer(small_design, params).run()
        original = list(placement.x)

        def forced(problem, n0):
            xs = problem.current_x(placement)
            if declined == "infeasible":
                xs[0] = problem.upper[0] + 1
                return xs
            # One cell one site farther from its GP, still feasible.
            for k in range(len(xs)):
                trial = list(xs)
                trial[k] += 1 if xs[k] >= problem.gp_x[k] else -1
                if not problem.check_feasible(trial):
                    assert problem.objective(trial, n0) > problem.objective(xs, n0)
                    return trial
            raise AssertionError("no cell can move away from its GP")

        monkeypatch.setattr(flowopt, "solve_mcf", forced)
        stats = optimize_fixed_row_order(placement, params, backend="mcf")
        assert list(placement.x) == original
        assert stats.moved == 0
        assert stats.objective_before > 0 and stats.max_disp_before > 0
        assert (
            stats.objective_after, stats.avg_disp_after, stats.max_disp_after
        ) == (
            stats.objective_before, stats.avg_disp_before, stats.max_disp_before
        )

    def test_never_raises_max(self):
        """Eq. 8 ties a=3, c=6 with the current a=1, c=4 on rounded GPs;
        c would then sit 2.62 sites from its GP, above the 1.67 max."""
        tech = Technology(cell_types=[CellType("S3", 3, 1), CellType("S2", 2, 1)])
        design = Design(tech, num_rows=1, num_sites=12, name="max",
                        site_width=1.0, row_height=1.0)
        design.add_cell("a", tech.type_named("S3"), 2.67, 0.0)
        design.add_cell("b", tech.type_named("S2"), 8.67, 0.0)
        design.add_cell("c", tech.type_named("S2"), 3.38, 0.0)
        placement = Placement(design)
        for cell, x in enumerate((1, 9, 4)):
            placement.move(cell, x, 0)
        params = LegalizerParams(routability=False)
        before = max(placement.displacements())
        problem = build_problem(placement, params)
        unbounded = solve_mcf(problem, params.flow_n0 * max(problem.weights))
        assert abs(unbounded[2] - 3.38) > before

        stats = optimize_fixed_row_order(placement, params)
        assert check_legal(placement).is_legal
        assert stats.objective_after <= stats.objective_before
        assert max(placement.displacements()) <= before

    def test_unknown_backend(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=1)
        placement = MGLegalizer(small_design, params).run()
        with pytest.raises(ValueError):
            optimize_fixed_row_order(placement, params, backend="huh")
