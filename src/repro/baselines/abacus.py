"""Ordered multi-row legalizer (Wang et al., ASPDAC 2017 [7] style).

Representative of the paper's first category of prior work: algorithms
that *honor the horizontal cell order* of global placement (Abacus [8]
lineage).  Cells are processed in increasing GP x; each cell may only be
appended after the cells already placed in its rows (pushing them left to
make room, never reordering), and the best row is chosen by the resulting
displacement cost.

The insertion machinery is shared with MGL, restricted to the *rightmost*
gap of every row — that restriction is precisely the "strong and
unnecessary constraint" on cell order the paper criticizes, so the shared
core again isolates the evaluated difference.  The window extends from a
bounded distance left of the cell's GP x to the chip edge (bounding how
deep the Abacus collapse may reach, as practical implementations do).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.insertion import EvaluatedInsertion, Gap, InsertionContext
from repro.core.mgl import PRUNE_MARGIN, MGLegalizer
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.placement import Placement


class AbacusLegalizer:
    """GP-order-preserving legalizer built on the shared insertion core."""

    def __init__(self, design: Design, params: Optional[LegalizerParams] = None):
        design.validate()
        self.design = design
        if params is None:
            params = LegalizerParams(
                routability=False, use_matching=False, use_flow_opt=False
            )
        params.validate()
        self.params = params
        # The helper provides apply_insertion and shared config.
        self._mgl = MGLegalizer(design, params, guard=None)
        self.collapse_depth = 6 * params.window_width
        self.order_relaxations = 0

    def run(self) -> Placement:
        """Legalize in GP x order; returns the placement.

        Raises:
            LegalizationError: when some cell cannot be appended anywhere.
        """
        design = self.design
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        for cell in range(design.num_cells):
            if design.cells[cell].fixed:
                placement.move(cell, int(design.gp_x[cell]), int(design.gp_y[cell]))
                occupancy.add(cell)

        order = sorted(
            design.movable_cells(),
            key=lambda c: (design.gp_x[c], design.gp_y[c], c),
        )
        for cell in order:
            best = self._best_append(occupancy, cell)
            if best is None:
                # Dense designs can need the full-depth collapse.
                best = self._best_append(occupancy, cell, full_depth=True)
            if best is not None:
                self._mgl.apply_insertion(occupancy, cell, best)
                continue
            # Strict-order appending can dead-end when multi-row cells
            # couple compacted chains across rows; practical Abacus
            # variants relax the order for the stuck cell, as do we.
            self.order_relaxations += 1
            self._mgl.legalize_cell(occupancy, cell)
        return placement

    # ------------------------------------------------------------------

    def _best_append(
        self, occupancy: Occupancy, cell: int, full_depth: bool = False
    ) -> Optional[EvaluatedInsertion]:
        design = self.design
        depth = design.num_sites if full_depth else self.collapse_depth
        window = Rect(
            max(0.0, design.gp_x[cell] - depth),
            0,
            design.num_sites,
            design.num_rows,
        )
        context = InsertionContext(
            design, occupancy, cell, window,
            weight_of=self._mgl.weight_of,
            # Order preservation needs the true rightmost gap; never let
            # the nearest-to-GP gap cap drop it.
            max_gaps_per_row=1 << 30,
        )
        height = design.cell_type_of(cell).height
        best: Optional[EvaluatedInsertion] = None
        for bottom_row in context.candidate_rows():
            gaps: List[Gap] = []
            feasible = True
            for offset in range(height):
                row_gaps = context.gaps_in_row(bottom_row + offset)
                if not row_gaps:
                    feasible = False
                    break
                gaps.append(self._rightmost(row_gaps))
            if not feasible:
                continue
            if (
                best is not None
                and context.target_cost_lower_bound(bottom_row, tuple(gaps))
                > best.cost + PRUNE_MARGIN
            ):
                continue
            evaluated = context.evaluate(bottom_row, tuple(gaps))
            if evaluated is None:
                continue
            if best is None or evaluated.sort_key() < best.sort_key():
                best = evaluated
        return best

    @staticmethod
    def _rightmost(row_gaps: List[Gap]) -> Gap:
        """The gap after the last placed cell (order-preserving append)."""
        return max(row_gaps, key=lambda g: (g.left_bound, g.lo_rough))


def legalize_abacus(
    design: Design, params: Optional[LegalizerParams] = None
) -> Placement:
    """One-call ordered legalization (the [7] baseline of Table 2)."""
    return AbacusLegalizer(design, params).run()
