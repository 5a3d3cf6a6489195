"""Maximum-displacement optimization by bipartite matching (paper §3.2).

After MGL, cells placed late may sit far from their GP positions.  Within
each (cell type, fence region) group, any permutation of the group's
current positions is still legal and routability-neutral — same
footprint, same edges, same pin geometry, same fence — so a min-cost
perfect matching between cells and positions can cut the maximum
displacement while preserving the average.

The cost of assigning cell ``i`` to position ``j`` is ``phi(delta_ij)``
(Eq. 3): linear up to the threshold ``delta_0`` (preserving the average
displacement) and growing like ``delta^5`` beyond it (crushing outliers).
Each group's float64 cost matrix is solved by
:func:`scipy.optimize.linear_sum_assignment`.

Eq. 3 minimizes the sum of ``phi``, and below ``delta_0`` that sum is
plain total displacement, so the unconstrained optimum can trade a higher
maximum for a lower total.  Every position farther from a cell than the
stage's incoming maximum displacement is therefore forbidden.  The current
assignment meets that bound, so every chunk stays feasible, and the stage
never raises the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.placement import Placement


def phi(delta: float, delta0: float) -> float:
    """The matching cost function of Eq. 3 (row-height units)."""
    if delta <= delta0:
        return delta
    return delta**5 / delta0**4


def adaptive_delta0(placement: Placement) -> float:
    """Pick Eq. 3's threshold from the displacement distribution.

    The 90th percentile keeps ~90% of cells in the average-preserving
    linear region while the tail pays the ``delta^5`` price; never below
    one row height so near-perfect placements are left alone.
    """
    movable = placement.design.movable_cells()
    if not movable:
        return 1.0
    disps = sorted(placement.displacement(c) for c in movable)
    p90 = disps[min(len(disps) - 1, int(0.90 * len(disps)))]
    return max(1.0, p90)


@dataclass
class MatchingStats:
    """What the matching stage did."""

    groups: int = 0
    cells_considered: int = 0
    cells_moved: int = 0
    max_disp_before: float = 0.0
    max_disp_after: float = 0.0
    avg_disp_before: float = 0.0
    avg_disp_after: float = 0.0
    delta0: float = 0.0
    group_sizes: List[int] = field(default_factory=list)


def _group_cells(design: Design) -> Dict[Tuple[str, int], List[int]]:
    """Movable cells grouped by (cell type name, fence id)."""
    groups: Dict[Tuple[str, int], List[int]] = {}
    for cell in design.movable_cells():
        key = (design.cell_type_of(cell).name, design.fence_of(cell))
        groups.setdefault(key, []).append(cell)
    return groups


def _chunk_by_displacement(
    placement: Placement, cells: List[int], max_group: int
) -> List[List[int]]:
    """Split an oversized group into chunks, worst offenders first.

    Matching is cubic in the group size, so huge groups are partitioned;
    sorting by displacement keeps the cells that most need relief in the
    same chunk as the positions they want to trade for.
    """
    if len(cells) <= max_group:
        return [cells]
    ordered = sorted(cells, key=lambda c: (-placement.displacement(c), c))
    return [ordered[i : i + max_group] for i in range(0, len(ordered), max_group)]


def _match_group(
    placement: Placement, cells: Sequence[int], delta0: float, limit: float
) -> int:
    """Optimally permute one group's positions; returns #cells moved.

    No cell is assigned a position farther than ``limit`` from its GP.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    design = placement.design
    positions = [(placement.x[c], placement.y[c]) for c in cells]
    xu = design.x_unit_rows

    gx = np.array([design.gp_x[c] for c in cells])
    gy = np.array([design.gp_y[c] for c in cells])
    px = np.array([p[0] for p in positions], dtype=float)
    py = np.array([p[1] for p in positions], dtype=float)
    delta = np.abs(px[None, :] - gx[:, None]) * xu + np.abs(
        py[None, :] - gy[:, None]
    )
    matrix = np.where(delta <= delta0, delta, delta**5 / delta0**4)
    row_indices, col_indices = linear_sum_assignment(matrix)
    # The unconstrained optimum is also optimal under the bound when it
    # meets it; solving it first keeps its tie-breaking wherever it does.
    if delta[row_indices, col_indices].max() > limit:
        bounded = np.where(delta <= limit, matrix, np.inf)
        row_indices, col_indices = linear_sum_assignment(bounded)
    columns = [0] * len(cells)
    for row_index, col_index in zip(row_indices, col_indices):
        columns[int(row_index)] = int(col_index)

    moved = 0
    for index, cell in enumerate(cells):
        new_x, new_y = positions[columns[index]]
        if (new_x, new_y) != (placement.x[cell], placement.y[cell]):
            placement.move(cell, new_x, new_y)
            moved += 1
    return moved


def optimize_max_displacement(
    placement: Placement, params: Optional[LegalizerParams] = None
) -> MatchingStats:
    """Run the §3.2 matching stage in place.

    Args:
        placement: a legal placement; mutated in place.
        params: supplies ``matching_delta0`` and ``matching_max_group``.

    Returns:
        Statistics including before/after max and average displacement.

    The permutation-only structure guarantees the output is exactly as
    legal and routable as the input, and no cell ends farther from its GP
    than the input's maximum displacement.
    """
    params = params or LegalizerParams()
    design = placement.design
    stats = MatchingStats()

    movable = design.movable_cells()
    if movable:
        disps = [placement.displacement(c) for c in movable]
        stats.max_disp_before = max(disps)
        stats.avg_disp_before = sum(disps) / len(disps)

    delta0 = params.matching_delta0
    if delta0 is None:
        delta0 = adaptive_delta0(placement)
    stats.delta0 = delta0

    groups = _group_cells(design)
    for key in sorted(groups):
        cells = groups[key]
        if len(cells) < 2:
            continue
        for chunk in _chunk_by_displacement(
            placement, cells, params.matching_max_group
        ):
            if len(chunk) < 2:
                continue
            stats.groups += 1
            stats.group_sizes.append(len(chunk))
            stats.cells_considered += len(chunk)
            stats.cells_moved += _match_group(
                placement, chunk, delta0, stats.max_disp_before
            )

    if movable:
        disps = [placement.displacement(c) for c in movable]
        stats.max_disp_after = max(disps)
        stats.avg_disp_after = sum(disps) / len(disps)
    return stats
