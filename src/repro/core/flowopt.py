"""Fixed-row-fixed-order optimization (paper §3.3, Eqs. 4-9).

With rows and per-row cell order frozen, the remaining freedom is a
horizontal shift per cell.  Minimizing the weighted total displacement
(plus, optionally, a weighted maximum-displacement term) subject to
ordering and boundary constraints is the LP of Eq. 4 / Eq. 8; the paper
solves its dual, a min-cost circulation on a graph with one node per cell
plus ``v_z`` (and ``v_p``/``v_n`` for the max-displacement extension,
Eq. 9).  The optimal node potentials *are* the primal positions:
``x_i = pi[v_z] - pi[v_i]``.

Compared to MrDP's formulation this graph has ``m + 3`` nodes instead of
``3m + 2`` (the per-cell auxiliary nodes are eliminated into single
edges), carries the height weights ``n_i`` of Eq. 2, and optimizes the
weighted max displacement simultaneously — the paper's three claimed
strengths.

Two backends are provided:

* ``"mcf"`` — our network simplex on the dual graph (the paper's method);
  all data is integer, so the recovered positions are exact sites.
* ``"lp"`` — ``scipy.optimize.linprog`` (HiGHS) on the primal, used for
  cross-validation and as a fallback for very large instances.

Edge-spacing requirements are folded into the pair constraints
(``x_i + w_i + gap_ij <= x_j``) and the §3.4 feasible ranges
``[l_i, r_i]`` keep cells clear of vertical rails and IO pins, with
``C_L = C_R = C`` as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
from repro.flow.graph import FlowGraph, INFINITE
from repro.flow.network_simplex import NetworkSimplex
from repro.model.placement import Placement

#: Integer scale for the height weights n_i = 1 / |C_h|.
WEIGHT_SCALE = 1 << 16


@dataclass
class FixedRowOrderProblem:
    """The frozen-row-and-order shift problem extracted from a placement.

    All x data is in integer sites.  ``cells[k]`` is the design cell index
    of variable ``k``; every other list is indexed by ``k``.
    """

    cells: List[int]
    weights: List[int]  # n_i, integer-scaled
    widths: List[int]
    gp_x: List[int]  # GP targets rounded to sites
    dy: List[int]  # y displacement in site-equivalents (constant here)
    lower: List[int]  # l_i
    upper: List[int]  # r_i (left-edge upper bound)
    pairs: List[Tuple[int, int, int]]  # (k_left, k_right, min_separation)

    def index_of(self) -> Dict[int, int]:
        return {cell: k for k, cell in enumerate(self.cells)}

    def current_x(self, placement: Placement) -> List[int]:
        return [placement.x[cell] for cell in self.cells]

    def objective(self, xs: List[int], n0: int) -> int:
        """Exact objective value of Eq. 8 (minimization form) at ``xs``."""
        total = 0
        max_right = 0
        max_left = 0
        for k, x in enumerate(xs):
            dx = x - self.gp_x[k]
            total += self.weights[k] * abs(dx)
            max_right = max(max_right, max(0, dx) + self.dy[k])
            max_left = max(max_left, max(0, -dx) + self.dy[k])
        return total + n0 * (max_right + max_left)

    def check_feasible(self, xs: List[int]) -> List[str]:
        """Constraint violations of a candidate solution (for tests)."""
        problems = []
        for k, x in enumerate(xs):
            if not (self.lower[k] <= x <= self.upper[k]):
                problems.append(f"var {k}: {x} outside [{self.lower[k]}, {self.upper[k]}]")
        for left, right, sep in self.pairs:
            if xs[left] + sep > xs[right]:
                problems.append(
                    f"pair ({left}, {right}): {xs[left]} + {sep} > {xs[right]}"
                )
        return problems


def build_problem(
    placement: Placement,
    params: Optional[LegalizerParams] = None,
    guard: Optional[RoutabilityGuard] = None,
) -> FixedRowOrderProblem:
    """Extract the stage-3 problem from a legal placement.

    Pair constraints come from row adjacency (deduplicated over rows,
    keeping the tightest separation); bounds start at segment limits,
    are tightened by adjacent fixed cells, and — when a guard is given —
    intersected with the violation-free feasible range of §3.4.
    """
    design = placement.design
    params = params or LegalizerParams()

    movable = design.movable_cells()
    index = {cell: k for k, cell in enumerate(movable)}
    n = len(movable)

    if params.height_weighted:
        counts: Dict[int, int] = {}
        for height, cells in design.cells_by_height().items():
            counts[height] = len(cells)
        weights = [
            max(1, round(WEIGHT_SCALE / counts[design.cell_type_of(c).height]))
            for c in movable
        ]
    else:
        weights = [1] * n

    y_to_sites = design.row_height / design.site_width
    widths = [design.cell_type_of(c).width for c in movable]
    gp_x = [int(round(design.gp_x[c])) for c in movable]
    dy = [
        int(round(abs(placement.y[c] - design.gp_y[c]) * y_to_sites))
        for c in movable
    ]
    lower = [0] * n
    upper = [0] * n

    # Row-wise sweep: ordering pairs and boundary bounds.
    pair_sep: Dict[Tuple[int, int], int] = {}
    per_row: Dict[int, List[Tuple[int, int]]] = {}
    for cell in range(design.num_cells):
        cell_type = design.cell_type_of(cell)
        x, y = placement.x[cell], placement.y[cell]
        for row in range(y, y + cell_type.height):
            per_row.setdefault(row, []).append((x, cell))

    seg_lo: Dict[int, int] = {}
    seg_hi: Dict[int, int] = {}
    for k, cell in enumerate(movable):
        lo = -(1 << 30)
        hi = 1 << 30
        x, y = placement.x[cell], placement.y[cell]
        for row in range(y, y + design.cell_type_of(cell).height):
            segment = design.segment_at(row, x)
            if segment is None:
                raise ValueError(
                    f"cell {cell} is not on a segment; legalize before stage 3"
                )
            lo = max(lo, segment.x_lo)
            hi = min(hi, segment.x_hi - widths[k])
        seg_lo[cell] = lo
        seg_hi[cell] = hi
        lower[k] = lo
        upper[k] = hi

    from repro.checker.routability import required_gap

    for row, spans in per_row.items():
        spans.sort()
        for (x_a, cell_a), (x_b, cell_b) in zip(spans, spans[1:]):
            gap = required_gap(design, cell_a, cell_b)
            sep_a = design.cell_type_of(cell_a).width + gap
            movable_a = not design.cells[cell_a].fixed
            movable_b = not design.cells[cell_b].fixed
            seg = design.segment_at(row, x_a)
            if seg is None or not (seg.x_lo <= x_b < seg.x_hi):
                # Cross-segment neighbors (sites are contiguous across a
                # fence boundary): freeze the boundary gap conservatively
                # so no new edge violation can appear there.
                if movable_a:
                    upper[index[cell_a]] = min(upper[index[cell_a]], x_b - sep_a)
                if movable_b:
                    lower[index[cell_b]] = max(lower[index[cell_b]], x_a + sep_a)
                continue
            if movable_a and movable_b:
                key = (index[cell_a], index[cell_b])
                pair_sep[key] = max(pair_sep.get(key, 0), sep_a)
            elif movable_a and not movable_b:
                k = index[cell_a]
                upper[k] = min(upper[k], x_b - sep_a)
            elif movable_b and not movable_a:
                k = index[cell_b]
                lower[k] = max(lower[k], x_a + sep_a)

    if guard is not None and params.routability:
        for k, cell in enumerate(movable):
            cell_type = design.cell_type_of(cell)
            left, right = guard.feasible_range(
                cell_type,
                placement.y[cell],
                placement.x[cell],
                seg_lo[cell],
                seg_hi[cell],
            )
            lower[k] = max(lower[k], left)
            upper[k] = min(upper[k], right)

    # The current placement must stay feasible (it is our fallback).
    for k, cell in enumerate(movable):
        lower[k] = min(lower[k], placement.x[cell])
        upper[k] = max(upper[k], placement.x[cell])

    pairs = [(a, b, sep) for (a, b), sep in sorted(pair_sep.items())]
    return FixedRowOrderProblem(
        cells=list(movable),
        weights=weights,
        widths=widths,
        gp_x=gp_x,
        dy=dy,
        lower=lower,
        upper=upper,
        pairs=pairs,
    )


# ----------------------------------------------------------------------
# MCF backend (the paper's dual formulation)
# ----------------------------------------------------------------------


def build_dual_graph(
    problem: FixedRowOrderProblem, n0: int
) -> Tuple[FlowGraph, int]:
    """Construct the Eq. 6/Eq. 9 min-cost circulation.

    Returns the graph and the node id of ``v_z``.  Node ``k`` is cell
    variable ``k``; ``v_z`` follows, then ``v_p`` and ``v_n`` when
    ``n0 > 0``.
    """
    n = len(problem.cells)
    graph = FlowGraph()
    for k in range(n):
        graph.add_node()
    v_z = graph.add_node()

    for k in range(n):
        target = problem.gp_x[k]
        weight = problem.weights[k]
        graph.add_edge(k, v_z, capacity=weight, cost=target, name=f"f+{k}")
        graph.add_edge(v_z, k, capacity=weight, cost=-target, name=f"f-{k}")
        graph.add_edge(v_z, k, capacity=INFINITE, cost=-problem.lower[k], name=f"fl{k}")
        graph.add_edge(k, v_z, capacity=INFINITE, cost=problem.upper[k], name=f"fr{k}")
    for left, right, sep in problem.pairs:
        graph.add_edge(left, right, capacity=INFINITE, cost=-sep,
                       name=f"fe{left}_{right}")

    if n0 > 0 and n > 0:
        v_p = graph.add_node()
        v_n = graph.add_node()
        max_dy = max(problem.dy)
        for k in range(n):
            graph.add_edge(
                k, v_p, capacity=INFINITE,
                cost=problem.gp_x[k] - problem.dy[k], name=f"fp{k}",
            )
            graph.add_edge(
                v_n, k, capacity=INFINITE,
                cost=-problem.gp_x[k] - problem.dy[k], name=f"fn{k}",
            )
        graph.add_edge(v_p, v_z, capacity=n0, cost=max_dy, name="fP")
        graph.add_edge(v_z, v_n, capacity=n0, cost=max_dy, name="fN")
    return graph, v_z


def solve_mcf(problem: FixedRowOrderProblem, n0: int) -> List[int]:
    """Solve the dual circulation and recover positions from potentials."""
    graph, v_z = build_dual_graph(problem, n0)
    result = NetworkSimplex(graph).solve()
    pi = result.potentials
    return [pi[v_z] - pi[k] for k in range(len(problem.cells))]


# ----------------------------------------------------------------------
# LP backend (validation / fallback)
# ----------------------------------------------------------------------


def solve_lp(problem: FixedRowOrderProblem, n0: int) -> List[int]:
    """Solve the primal Eq. 8 LP with scipy (HiGHS) and round to sites.

    The constraint matrix is totally unimodular with integer data, so the
    LP optimum is integral up to solver tolerance; rounding recovers it.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n = len(problem.cells)
    if n == 0:
        return []
    # Variables: x (n), p (n), q (n), t_plus, t_minus.
    num_vars = 3 * n + 2
    cost = np.zeros(num_vars)
    cost[n : 2 * n] = problem.weights
    cost[2 * n : 3 * n] = problem.weights
    cost[3 * n] = n0
    cost[3 * n + 1] = n0

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs: List[float] = []
    row_id = 0

    def add_entry(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for k in range(n):
        # x_k - p_k <= gp_k  (p_k >= x_k - gp_k)
        add_entry(row_id, k, 1.0)
        add_entry(row_id, n + k, -1.0)
        rhs.append(problem.gp_x[k])
        row_id += 1
        # -x_k - q_k <= -gp_k (q_k >= gp_k - x_k)
        add_entry(row_id, k, -1.0)
        add_entry(row_id, 2 * n + k, -1.0)
        rhs.append(-problem.gp_x[k])
        row_id += 1
        if n0 > 0:
            # t_plus >= (x_k - gp_k) + dy_k
            add_entry(row_id, k, 1.0)
            add_entry(row_id, 3 * n, -1.0)
            rhs.append(problem.gp_x[k] - problem.dy[k])
            row_id += 1
            # t_minus >= (gp_k - x_k) + dy_k
            add_entry(row_id, k, -1.0)
            add_entry(row_id, 3 * n + 1, -1.0)
            rhs.append(-problem.gp_x[k] - problem.dy[k])
            row_id += 1
    for left, right, sep in problem.pairs:
        add_entry(row_id, left, 1.0)
        add_entry(row_id, right, -1.0)
        rhs.append(-sep)
        row_id += 1

    matrix = coo_matrix((vals, (rows, cols)), shape=(row_id, num_vars))
    bounds = (
        [(problem.lower[k], problem.upper[k]) for k in range(n)]
        + [(0, None)] * (2 * n)
        + [(max(problem.dy, default=0), None)] * 2
    )
    solution = linprog(
        cost, A_ub=matrix, b_ub=rhs, bounds=bounds, method="highs"
    )
    if not solution.success:
        raise RuntimeError(f"stage-3 LP failed: {solution.message}")
    return [int(round(v)) for v in solution.x[:n]]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


@dataclass
class FlowOptStats:
    """What the stage-3 optimization achieved."""

    cells: int = 0
    moved: int = 0
    objective_before: int = 0
    objective_after: int = 0
    backend: str = "mcf"
    avg_disp_before: float = 0.0
    avg_disp_after: float = 0.0
    max_disp_before: float = 0.0
    max_disp_after: float = 0.0


def optimize_fixed_row_order(
    placement: Placement,
    params: Optional[LegalizerParams] = None,
    guard: Optional[RoutabilityGuard] = None,
    backend: str = "auto",
) -> FlowOptStats:
    """Run the stage-3 optimization in place.

    Args:
        placement: legal placement; x positions are updated in place
            (rows and per-row order never change).
        params: supplies ``flow_n0``, ``height_weighted``, routability.
        guard: used for §3.4 feasible ranges when routability is on.
        backend: ``"mcf"``, ``"lp"``, or ``"auto"`` (mcf up to 4000 cells,
            lp beyond — the pure-Python simplex is exact but slower).

    Returns:
        Before/after statistics; the solution is only applied when it
        is feasible and does not worsen the exact objective (it cannot,
        barring solver failure).  A declined solution leaves the
        placement untouched and every "after" field equal to its
        "before" field.
    """
    params = params or LegalizerParams()
    design = placement.design
    if guard is None and params.routability:
        guard = RoutabilityGuard(design, params)
    problem = build_problem(placement, params, guard)
    stats = FlowOptStats(cells=len(problem.cells))
    if not problem.cells:
        return stats

    n0 = params.flow_n0 * (max(problem.weights) if problem.weights else 1)
    current = problem.current_x(placement)
    stats.objective_before = problem.objective(current, n0)
    movable = problem.cells
    disps = [placement.displacement(c) for c in movable]
    stats.max_disp_before = max(disps)
    stats.avg_disp_before = sum(disps) / len(disps)

    if backend == "auto":
        backend = "mcf" if len(problem.cells) <= 4000 else "lp"
    stats.backend = backend
    if backend == "mcf":
        solution = solve_mcf(problem, n0)
    elif backend == "lp":
        solution = solve_lp(problem, n0)
    else:
        raise ValueError(f"unknown stage-3 backend {backend!r}")

    # Defensive: never apply an infeasible or worse solution.  Declining
    # leaves the placement, and so every "after" figure, as it was.
    declined = bool(problem.check_feasible(solution))
    if not declined:
        stats.objective_after = problem.objective(solution, n0)
        declined = stats.objective_after > stats.objective_before
    if declined:
        stats.objective_after = stats.objective_before
        stats.avg_disp_after = stats.avg_disp_before
        stats.max_disp_after = stats.max_disp_before
        return stats

    for k, cell in enumerate(problem.cells):
        if placement.x[cell] != solution[k]:
            placement.x[cell] = solution[k]
            stats.moved += 1

    disps = [placement.displacement(c) for c in movable]
    stats.max_disp_after = max(disps)
    stats.avg_disp_after = sum(disps) / len(disps)
    return stats
