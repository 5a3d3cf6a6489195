"""Insertion-point enumeration and evaluation inside a window (§3.1).

Placing a target cell of height ``h`` means choosing, in ``h`` consecutive
rows, a *gap* between already-placed cells in each row — an *insertion
point* — plus an x position.  Local cells (those lying completely inside
the window) may be pushed aside; everything else is a wall.

The evaluation is exact for multi-row local cells: pushes propagate
through a neighbor DAG across **all** rows a pushed cell spans, with
longest-path offsets, so a combination is only deemed feasible when every
transitive push fits, and the displacement curves (types A-D) receive the
exact chain offsets.  Edge-spacing rules enter the offsets as mandatory
gaps ("fillers", §3.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.curves import CurveSet, DisplacementCurve
from repro.core.occupancy import Occupancy
from repro.core.refine import RoutabilityGuard
from repro.core.soa import SoAState, VectorEvaluator
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.row import Segment


@dataclass(frozen=True)
class Gap:
    """A candidate gap in one row of an insertion point.

    ``left_cell``/``right_cell`` are the *local* cells bounding the gap
    (None at a wall).  ``left_bound``/``right_bound`` are the wall x
    coordinates when there is no local cell on that side: either a segment
    boundary or the edge of a non-local cell (whose id is kept in
    ``left_wall_cell``/``right_wall_cell`` for edge-spacing rules).
    ``lo_rough``/``hi_rough`` bound the achievable target x using per-row
    compression only; the exact bound is computed during evaluation.
    """

    row: int
    segment: Segment
    left_cell: Optional[int]
    right_cell: Optional[int]
    left_bound: int
    right_bound: int
    left_wall_cell: Optional[int]
    right_wall_cell: Optional[int]
    lo_rough: float
    hi_rough: float


@dataclass
class EvaluatedInsertion:
    """A feasible, costed placement choice for the target cell."""

    x: int
    y: int
    cost: float
    moves: List[Tuple[int, int]]  # (local cell, new x) spread moves
    gaps: Tuple[Gap, ...] = ()

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.cost, self.y, self.x)


class InsertionContext:
    """Shared state for enumerating/evaluating insertions of one target.

    Args:
        design: the design.
        occupancy: current occupancy (target not yet registered).
        target: target cell index.
        window: window rectangle in site/row units.
        weight_of: displacement weight per cell (row-height units); the
            default weighs every cell equally.
        guard: optional routability guard (see
            :class:`repro.core.refine.RoutabilityGuard`); filters rows with
            horizontal-rail conflicts and steers x away from vertical
            rails / IO pins.
        reference: ``"gp"`` measures local-cell displacement from GP
            positions (MGL, the paper's method); ``"current"`` measures
            from the cells' current positions (MLL [12], reproduced as a
            baseline) — this collapses curve types C/D back into A/B.
        max_gaps_per_row: candidate gaps kept per row (see
            :meth:`gaps_in_row`); MGL passes
            :data:`repro.core.mgl.MAX_GAPS_PER_ROW`, and its exhaustive
            fallback and the Abacus baseline lift the cap.
        soa: optional shared :class:`repro.core.soa.SoAState` tables of
            the design.  When given, gap enumeration and
            :meth:`evaluate` route through the window-bounded fast path
            (``eval_backend=vector``); results are bit-identical to the
            scalar path, which remains the oracle
            (tests/test_soa_equivalence.py).
    """

    def __init__(
        self,
        design: Design,
        occupancy: Occupancy,
        target: int,
        window: Rect,
        weight_of: Optional[Callable[[int], float]] = None,
        guard: Optional[RoutabilityGuard] = None,
        reference: str = "gp",
        max_gaps_per_row: int = 12,
        soa: Optional[SoAState] = None,
    ):
        if reference not in ("gp", "current"):
            raise ValueError(f"unknown displacement reference {reference!r}")
        self.design = design
        self.occupancy = occupancy
        self.target = target
        self.window = window
        self.weight_of: Callable[[int], float] = weight_of or (lambda _cell: 1.0)
        self.guard = guard
        self.reference = reference
        self.max_gaps_per_row = max_gaps_per_row

        self.target_type = design.cell_type_of(target)
        self.fence = design.fence_of(target)
        self.gp_x = design.gp_x[target]
        self.gp_y = design.gp_y[target]
        self.x_unit = design.x_unit_rows
        self._widths = design.cell_widths
        self._heights = design.cell_heights
        self._local_cache: Dict[int, bool] = {}
        self._gap_cache: Dict[Tuple[int, int], int] = {}
        # Per-(cell, side) segment-neighbor info; the occupancy is frozen
        # for the context's lifetime, and push sets of different insertion
        # points overlap heavily, so this is shared across evaluations.
        self._neighbor_cache: Dict[
            Tuple[int, int], List[Tuple[int, Optional[int], Optional[Segment]]]
        ] = {}
        # Per-row gap lists, memoized for the context's lifetime: the
        # occupancy is frozen while the context exists, so re-enumeration
        # (multi-row targets revisit row r for bottom rows r-h+1..r) can
        # never observe a different list.
        self._row_gaps: Dict[int, List[Gap]] = {}
        self._vector: Optional[VectorEvaluator] = (
            VectorEvaluator(self, soa) if soa is not None else None
        )

    # ------------------------------------------------------------------
    # Locality and spacing helpers
    # ------------------------------------------------------------------

    def is_local(self, cell: int) -> bool:
        """Local cells lie completely inside the window and are movable."""
        cached = self._local_cache.get(cell)
        if cached is not None:
            return cached
        if self.design.cells[cell].fixed:
            result = False
        else:
            # Inlined window.contains_rect(placement.rect(cell)): cell
            # rects are never empty, so the bounds test alone decides.
            placement = self.occupancy.placement
            x = placement.x[cell]
            y = placement.y[cell]
            window = self.window
            result = (
                window.xlo <= x
                and x + self._widths[cell] <= window.xhi
                and window.ylo <= y
                and y + self._heights[cell] <= window.yhi
            )
        self._local_cache[cell] = result
        return result

    def edge_gap(self, left_cell: int, right_cell: int) -> int:
        """Required filler sites between two cells (-1 means the target)."""
        key = (left_cell, right_cell)
        cached = self._gap_cache.get(key)
        if cached is not None:
            return cached
        table = self.design.technology.edge_spacing
        left_type = (
            self.target_type if left_cell == -1
            else self.design.cell_type_of(left_cell)
        )
        right_type = (
            self.target_type if right_cell == -1
            else self.design.cell_type_of(right_cell)
        )
        gap = table.spacing(left_type.right_edge, right_type.left_edge)
        self._gap_cache[key] = gap
        return gap

    def cell_width(self, cell: int) -> int:
        return self._widths[cell]

    # ------------------------------------------------------------------
    # Gap enumeration
    # ------------------------------------------------------------------

    def candidate_rows(self) -> List[int]:
        """Bottom rows to try, nearest to the GP row first."""
        height = self.target_type.height
        lo = max(0, int(math.floor(self.window.ylo)))
        hi = min(self.design.num_rows - height, int(math.ceil(self.window.yhi)) - height)
        rows = []
        for row in range(lo, hi + 1):
            if not self.design.row_parity_ok(self.target, row):
                continue
            if self.guard is not None and not self.guard.row_ok(
                self.target_type, row
            ):
                continue
            rows.append(row)
        rows.sort(key=lambda r: (abs(r - self.gp_y), r))
        return rows

    def gaps_in_row(self, row: int) -> List[Gap]:
        """Candidate gaps of one row, within fence-matching segments.

        At most ``max_gaps_per_row`` gaps are kept, preferring those whose
        achievable x-range is nearest the target's GP x; distant gaps are
        dominated in cost and only inflate the combination search.

        Memoized on the context (the occupancy is frozen for its
        lifetime); returned lists are shared and must not be mutated.
        """
        cached = self._row_gaps.get(row)
        if cached is not None:
            return cached
        gaps: List[Gap] = []
        vector = self._vector
        for segment in self.design.segments_in_row(row):
            if segment.fence_id != self.fence:
                continue
            if segment.x_hi <= self.window.xlo or segment.x_lo >= self.window.xhi:
                continue
            if segment.width < self.target_type.width:
                continue
            if vector is not None:
                gaps.extend(vector.gaps_in_segment(row, segment))
            else:
                gaps.extend(self._gaps_in_segment(row, segment))
        if len(gaps) > self.max_gaps_per_row:
            gaps.sort(
                key=lambda g: max(
                    0.0, g.lo_rough - self.gp_x, self.gp_x - g.hi_rough
                )
            )
            gaps = gaps[: self.max_gaps_per_row]
        self._row_gaps[row] = gaps
        return gaps

    def _gaps_in_segment(self, row: int, segment: Segment) -> List[Gap]:
        """Gaps of every wall-separated run of local cells in the segment.

        Non-local cells (fixed, or poking out of the window) split the
        segment into independent runs; each run contributes its own gap
        list, bounded by the adjacent walls (or segment ends).
        """
        occupancy = self.occupancy
        placement = occupancy.placement
        cells = occupancy.cells_in_range(row, segment.x_lo, segment.x_hi)

        runs: List[Tuple[int, Optional[int], List[int], int, Optional[int]]] = []
        # Edge rules also apply across segment (fence) boundaries, where
        # sites are contiguous: a cell just beyond the boundary pushes the
        # usable bound inward by its required gap.
        left_bound = segment.x_lo
        outside_left = occupancy.left_neighbor(row, segment.x_lo)
        if outside_left is not None:
            outside_end = (
                placement.x[outside_left] + self.cell_width(outside_left)
            )
            # Unconditional: the rule reaches across the boundary even
            # when the outside cell stops short of it (no-op when it is
            # further away than the required gap).
            left_bound = max(
                left_bound, outside_end + self.edge_gap(outside_left, -1)
            )
        right_cap = segment.x_hi
        outside_right = occupancy.right_neighbor(row, segment.x_hi)
        if outside_right is not None:
            outside_x = placement.x[outside_right]
            right_cap = min(
                right_cap, outside_x - self.edge_gap(-1, outside_right)
            )
        left_wall_cell: Optional[int] = None
        local_run: List[int] = []
        for cell in cells:
            if self.is_local(cell):
                local_run.append(cell)
                continue
            runs.append(
                (left_bound, left_wall_cell, local_run, placement.x[cell], cell)
            )
            left_bound = placement.x[cell] + self.cell_width(cell)
            left_wall_cell = cell
            local_run = []
        runs.append((left_bound, left_wall_cell, local_run, right_cap, None))

        gaps: List[Gap] = []
        for run in runs:
            run_lo, lwall, run_cells, run_hi, rwall = run
            if run_hi - run_lo < self.target_type.width:
                continue
            # Skip runs that cannot intersect the window horizontally (the
            # target is searched inside the window; pushes may still exit).
            if run_hi <= self.window.xlo or run_lo >= self.window.xhi:
                continue
            entities: List[Optional[int]] = [None] + run_cells + [None]
            for index in range(len(entities) - 1):
                gap = self._make_gap(
                    row,
                    segment,
                    entities[index],
                    entities[index + 1],
                    run_lo,
                    run_hi,
                    lwall,
                    rwall,
                    run_cells,
                    index,
                )
                if gap is not None:
                    gaps.append(gap)
        return gaps

    def _make_gap(
        self,
        row: int,
        segment: Segment,
        left_cell: Optional[int],
        right_cell: Optional[int],
        left_bound: int,
        right_bound: int,
        left_wall_cell: Optional[int],
        right_wall_cell: Optional[int],
        local_run: List[int],
        gap_index: int,
    ) -> Optional[Gap]:
        """Build one gap with rough per-row compression bounds."""
        width = self.target_type.width

        # Leftmost achievable target x: compress everything left of the gap.
        position = float(left_bound)
        previous: Optional[int] = left_wall_cell
        for cell in local_run[:gap_index]:
            if previous is not None:
                position += self.edge_gap(previous, cell)
            position += self.cell_width(cell)
            previous = cell
        lo_rough = position + (self.edge_gap(previous, -1) if previous is not None else 0)

        # Rightmost achievable: compress everything right of the gap.
        position = float(right_bound)
        previous = right_wall_cell
        for cell in reversed(local_run[gap_index:]):
            if previous is not None:
                position -= self.edge_gap(cell, previous)
            position -= self.cell_width(cell)
            previous = cell
        hi_rough = position - width - (
            self.edge_gap(-1, previous) if previous is not None else 0
        )

        if lo_rough > hi_rough:
            return None
        return Gap(
            row=row,
            segment=segment,
            left_cell=left_cell,
            right_cell=right_cell,
            left_bound=left_bound,
            right_bound=right_bound,
            left_wall_cell=left_wall_cell,
            right_wall_cell=right_wall_cell,
            lo_rough=lo_rough,
            hi_rough=hi_rough,
        )

    def enumerate_insertion_points(
        self, max_points_per_row_set: int = 128
    ) -> Iterator[Tuple[int, Tuple[Gap, ...]]]:
        """Yield ``(bottom_row, gaps)`` combinations, pruned by rough bounds.

        For multi-row targets the per-row gap choices are combined by a
        depth-first product that abandons any branch whose rough x-ranges
        already fail to intersect; at most ``max_points_per_row_set``
        combinations are yielded per bottom row.
        """
        for bottom_row in self.candidate_rows():
            for gaps in self.row_combinations(bottom_row, max_points_per_row_set):
                yield bottom_row, gaps

    def row_combinations(
        self, bottom_row: int, max_points: int = 128
    ) -> Iterator[Tuple[Gap, ...]]:
        """The per-row-gap combinations of one bottom row (see above)."""
        height = self.target_type.height
        per_row = [self.gaps_in_row(bottom_row + i) for i in range(height)]
        if any(not gaps for gaps in per_row):
            return
        # Try gaps nearest the GP x first (stack => reverse order).  Each
        # row is sorted once, up front; the DFS below revisits a depth for
        # every partial combination, and the order never changes.
        per_row_desc = [
            sorted(
                gaps,
                key=lambda g: abs(
                    (g.lo_rough + g.hi_rough) / 2.0 - self.gp_x
                ),
                reverse=True,
            )
            for gaps in per_row
        ]
        yielded = 0
        stack: List[Tuple[int, Tuple[Gap, ...], float, float]] = [
            (0, (), -math.inf, math.inf)
        ]
        while stack and yielded < max_points:
            depth, chosen, lo, hi = stack.pop()
            if depth == height:
                yield chosen
                yielded += 1
                continue
            for gap in per_row_desc[depth]:
                new_lo = max(lo, gap.lo_rough)
                new_hi = min(hi, gap.hi_rough)
                if new_lo <= new_hi:
                    stack.append((depth + 1, chosen + (gap,), new_lo, new_hi))

    # ------------------------------------------------------------------
    # Candidate traversal
    # ------------------------------------------------------------------
    #
    # The winner is order-independent: walk the candidates by ``(lower
    # bound, enumeration ordinal)``, stop once a bound exceeds the
    # incumbent cost plus ``margin``, and keep the minimum ``(cost, y, x,
    # ordinal)``.  The stop rule is exact in bound order — after the
    # first failing candidate the incumbent can no longer change (nothing
    # further is evaluated), so every later candidate fails the same test
    # — which is what makes the lazy heap traversal provably identical to
    # an exhaustive replay (the oracle in tests/test_perf_equivalence.py).

    def evaluate_best_first(
        self, max_points: int, margin: float
    ) -> Tuple[Optional[EvaluatedInsertion], int]:
        """Lazy bound-ordered evaluation with row-level short-circuits.

        Candidates enter a min-heap keyed ``(lower bound, ordinal)`` one
        bottom row at a time and are popped while the heap minimum cannot
        be undercut by any not-yet-enumerated row: every candidate of row
        ``r`` has bound >= weight * |r - gp_y| (its *floor*), and
        :meth:`candidate_rows` is sorted by that distance, so the next
        row's floor is a valid drain threshold.  Pops therefore occur in
        global ``(bound, ordinal)`` order.  Rows whose floor already
        exceeds the incumbent cost plus the margin are never enumerated
        at all — their candidates would fail the stop-rule test at every
        later point of the walk too, since the incumbent only tightens.
        """
        weight = self.weight_of(self.target)
        rows = self.candidate_rows()
        heap: List[Tuple[float, int, int, Tuple[Gap, ...]]] = []
        best: Optional[EvaluatedInsertion] = None
        best_key: Optional[Tuple[float, int, int, int]] = None
        evaluated_points = 0
        seq = 0
        num_rows = len(rows)
        for index, bottom_row in enumerate(rows):
            if (
                best is not None
                and weight * abs(bottom_row - self.gp_y) > best.cost + margin
            ):
                break  # This row's floor fails; later rows' floors are higher.
            for gaps in self.row_combinations(bottom_row, max_points):
                bound = self.target_cost_lower_bound(bottom_row, gaps)
                heappush(heap, (bound, seq, bottom_row, gaps))
                seq += 1
            if index + 1 < num_rows:
                threshold = weight * abs(rows[index + 1] - self.gp_y)
            else:
                threshold = math.inf
            best, best_key, evaluated_points = self._drain_heap(
                heap, threshold, margin, best, best_key, evaluated_points
            )
        best, best_key, evaluated_points = self._drain_heap(
            heap, math.inf, margin, best, best_key, evaluated_points
        )
        return best, evaluated_points

    def _drain_heap(
        self,
        heap: List[Tuple[float, int, int, Tuple[Gap, ...]]],
        threshold: float,
        margin: float,
        best: Optional[EvaluatedInsertion],
        best_key: Optional[Tuple[float, int, int, int]],
        evaluated_points: int,
    ) -> Tuple[
        Optional[EvaluatedInsertion],
        Optional[Tuple[float, int, int, int]],
        int,
    ]:
        """Pop and evaluate heap entries whose bound is within ``threshold``.

        The vector backend also receives the entry's bound, the
        incumbent cost and ``margin``, and may return None for a
        candidate it proves costlier than the incumbent (see
        :meth:`repro.core.soa.VectorEvaluator.evaluate`).  Such a
        candidate could never replace the incumbent, so the winner and
        every later stop-rule test are unchanged, and it still counts
        as evaluated.
        """
        vector = self._vector
        while heap and heap[0][0] <= threshold:
            bound, order, bottom_row, gaps = heappop(heap)
            if best is not None and bound > best.cost + margin:
                # Bound-ordered: every remaining entry fails the same test
                # (the incumbent cannot improve without evaluations).
                heap.clear()
                break
            if vector is None:
                result = self.evaluate_scalar(bottom_row, gaps)
            else:
                result = vector.evaluate(
                    bottom_row, gaps, bound,
                    math.inf if best is None else best.cost, margin,
                )
            evaluated_points += 1
            if result is None:
                continue
            key = (result.cost, result.y, result.x, order)
            if best_key is None or key < best_key:
                best = result
                best_key = key
        return best, best_key, evaluated_points

    def target_cost_lower_bound(
        self, bottom_row: int, gaps: Sequence[Gap]
    ) -> float:
        """Cheap lower bound on the target's own contribution to the cost.

        Uses the rough per-row compression interval; local-cell deltas can
        be negative (type C/D curves), so callers must allow a margin when
        pruning with this bound (MGL and the Abacus baseline allow
        :data:`repro.core.mgl.PRUNE_MARGIN`).  Both backends compute it
        per candidate with this one formula.
        """
        lo = max(gap.lo_rough for gap in gaps)
        hi = min(gap.hi_rough for gap in gaps)
        x_dist = max(0.0, lo - self.gp_x, self.gp_x - hi)
        weight = self.weight_of(self.target)
        return weight * (abs(bottom_row - self.gp_y) + x_dist * self.x_unit)

    # ------------------------------------------------------------------
    # Exact evaluation of one insertion point
    # ------------------------------------------------------------------

    def evaluate(
        self, bottom_row: int, gaps: Sequence[Gap]
    ) -> Optional[EvaluatedInsertion]:
        """Exact feasibility, optimal x, and spread moves for a combination.

        Returns None when the combination is infeasible (a transitive push
        does not fit, or a cell would need to move both ways).  Dispatches
        to the vector backend when one is attached; candidates outside
        its fast-path shape fall back to :meth:`evaluate_scalar`, so the
        two backends are candidate-for-candidate identical.
        """
        if self._vector is not None:
            return self._vector.evaluate(bottom_row, gaps)
        return self.evaluate_scalar(bottom_row, gaps)

    def evaluate_scalar(
        self, bottom_row: int, gaps: Sequence[Gap]
    ) -> Optional[EvaluatedInsertion]:
        """The reference evaluation: per-candidate transitive push walk."""
        right_info = self._push_side(gaps, side=+1)
        if right_info is None:
            return None
        left_info = self._push_side(gaps, side=-1)
        if left_info is None:
            return None
        right_offsets, right_limit = right_info
        left_offsets, left_limit = left_info
        if set(right_offsets) & set(left_offsets):
            return None  # A cell would be pushed both left and right.
        return self.finish_evaluation(
            bottom_row, gaps,
            right_offsets, right_limit, left_offsets, left_limit,
        )

    def finish_evaluation(
        self,
        bottom_row: int,
        gaps: Sequence[Gap],
        right_offsets: Dict[int, int],
        right_limit: float,
        left_offsets: Dict[int, int],
        left_limit: float,
    ) -> Optional[EvaluatedInsertion]:
        """Scalar tail of the evaluation: curves, minimize, guard, moves.

        The offsets dicts must be in push order (right side outward-
        ascending, left side outward-descending): curve summation is a
        float accumulation in curve order, so dict order is part of the
        bit-equality contract the vector backend's one-pass twin
        (:meth:`repro.core.soa.VectorEvaluator._finish_fast`) keeps.
        """
        lo = left_limit
        hi = right_limit
        if math.ceil(lo) > math.floor(hi):
            return None

        placement = self.occupancy.placement
        curves: List[DisplacementCurve] = [
            DisplacementCurve.target(
                self.gp_x, self.weight_of(self.target) * self.x_unit
            ),
            DisplacementCurve.constant(
                self.weight_of(self.target) * abs(bottom_row - self.gp_y)
            ),
        ]
        # Costs are measured as the *change* in the local cells' summed
        # displacement: each cell's current displacement is subtracted so
        # insertion points with different push sets compare fairly.
        baseline = 0.0
        use_gp = self.reference == "gp"
        for cell, offset in right_offsets.items():
            weight = self.weight_of(cell) * self.x_unit
            anchor = self.design.gp_x[cell] if use_gp else placement.x[cell]
            curves.append(
                DisplacementCurve.pushed_right(
                    placement.x[cell], anchor, offset, weight
                )
            )
            baseline += weight * abs(placement.x[cell] - anchor)
        for cell, offset in left_offsets.items():
            weight = self.weight_of(cell) * self.x_unit
            anchor = self.design.gp_x[cell] if use_gp else placement.x[cell]
            curves.append(
                DisplacementCurve.pushed_left(
                    placement.x[cell], anchor, offset, weight
                )
            )
            baseline += weight * abs(placement.x[cell] - anchor)
        if baseline:
            curves.append(DisplacementCurve.constant(-baseline))

        # One compiled curve set serves both the site minimization and the
        # guard's repeated cost probes; its value() performs bit-identical
        # arithmetic to DisplacementCurve.value on the summed curve.
        compiled = CurveSet(curves)
        best = compiled.minimize(lo, hi)
        if best is None:
            return None
        best_x, best_cost = best

        if self.guard is not None:
            best_x, extra = self.guard.adjust_x(
                self.target_type,
                bottom_row,
                best_x,
                int(math.ceil(lo)),
                int(math.floor(hi)),
                compiled.value,
            )
            best_cost = compiled.value(best_x) + extra

        return EvaluatedInsertion(
            x=best_x,
            y=bottom_row,
            cost=best_cost,
            moves=self.spread_moves(right_offsets, left_offsets, best_x),
            gaps=tuple(gaps),
        )

    def spread_moves(
        self,
        right_offsets: Dict[int, int],
        left_offsets: Dict[int, int],
        x: int,
    ) -> List[Tuple[int, int]]:
        """``(local cell, new x)`` of every cell pushed by the target at ``x``."""
        current = self.occupancy.placement.x
        moves: List[Tuple[int, int]] = []
        for cell, offset in right_offsets.items():
            new_x = max(current[cell], x + offset)
            if new_x != current[cell]:
                moves.append((cell, new_x))
        for cell, offset in left_offsets.items():
            new_x = min(current[cell], x - offset)
            if new_x != current[cell]:
                moves.append((cell, new_x))
        return moves

    # ------------------------------------------------------------------

    def _segment_neighbors(
        self, cell: int, side: int
    ) -> List[Tuple[int, Optional[int], Optional[Segment]]]:
        """Adjacent cell per row of ``cell``, restricted to its segment.

        Returns ``(row, neighbor, segment)`` triples for every row the
        cell spans; ``neighbor`` is None when the next cell in that row
        lies beyond the segment boundary (the boundary itself is then the
        wall).
        """
        design = self.design
        placement = self.occupancy.placement
        x, y = placement.x[cell], placement.y[cell]
        height = design.cell_type_of(cell).height
        result: List[Tuple[int, Optional[int], Optional[Segment]]] = []
        for row in range(y, y + height):
            segment = design.segment_at(row, x)
            if side > 0:
                neighbor = self.occupancy.right_neighbor(row, x + 1, exclude=cell)
            else:
                neighbor = self.occupancy.left_neighbor(row, x, exclude=cell)
            if neighbor is not None:
                if segment is None or not (
                    segment.x_lo <= placement.x[neighbor] < segment.x_hi
                ):
                    neighbor = None
            result.append((row, neighbor, segment))
        return result

    def _push_side(
        self, gaps: Sequence[Gap], side: int
    ) -> Optional[Tuple[Dict[int, int], float]]:
        """Transitive push analysis on one side of the insertion point.

        Args:
            gaps: per-row gap choices.
            side: +1 for the right side, -1 for the left side.

        Returns:
            ``(offsets, limit)`` where ``offsets[cell]`` is the chain
            offset from the target and ``limit`` bounds the target's x
            (upper bound for ``side=+1``, lower bound for ``side=-1``),
            or None when some push cannot fit.
        """
        design = self.design
        placement = self.occupancy.placement
        width_t = self.target_type.width

        # Per-cell neighbor info is needed by all three passes below and
        # by every other insertion point whose push set includes the cell;
        # compute it once per (cell, side) for the context's lifetime
        # (this dominates the evaluation cost).
        neighbor_cache = self._neighbor_cache

        def info(cell: int) -> List[Tuple[int, Optional[int], Optional[Segment]]]:
            cached = neighbor_cache.get((cell, side))
            if cached is None:
                cached = self._segment_neighbors(cell, side)
                neighbor_cache[(cell, side)] = cached
            return cached

        # 1. Collect the push set by BFS through local, same-segment
        # neighbors.  A neighbor beyond a segment (fence/blockage) boundary
        # can never be touched by this cell, so pushes must not propagate
        # across it — the segment end is the wall instead.
        seeds = [
            (gap.right_cell if side > 0 else gap.left_cell) for gap in gaps
        ]
        push_set: Set[int] = set(c for c in seeds if c is not None)
        frontier = list(push_set)
        while frontier:
            cell = frontier.pop()
            for _row, neighbor, _segment in info(cell):
                if neighbor is None or neighbor in push_set:
                    continue
                if not self.is_local(neighbor):
                    continue
                push_set.add(neighbor)
                frontier.append(neighbor)

        ordered = sorted(push_set, key=lambda c: (placement.x[c], c))
        if side < 0:
            ordered.reverse()  # Process outward from the target.

        # 2. Chain offsets (longest paths from the target).
        offsets: Dict[int, int] = {}
        for gap in gaps:
            seed = gap.right_cell if side > 0 else gap.left_cell
            if seed is None:
                continue
            if side > 0:
                off = width_t + self.edge_gap(-1, seed)
            else:
                off = self.cell_width(seed) + self.edge_gap(seed, -1)
            offsets[seed] = max(offsets.get(seed, 0), off)
        for cell in ordered:
            if cell not in offsets:
                # Reachable by BFS but only via cells processed later; give
                # it a zero base so chains through it still accumulate.
                offsets[cell] = 0
            base = offsets[cell]
            for _row, neighbor, _segment in info(cell):
                if neighbor is None or neighbor not in push_set:
                    continue
                if side > 0:
                    step = self.cell_width(cell) + self.edge_gap(cell, neighbor)
                else:
                    step = self.cell_width(neighbor) + self.edge_gap(neighbor, cell)
                offsets[neighbor] = max(offsets.get(neighbor, 0), base + step)

        # 3. Extreme positions against walls (processed inward).
        extreme: Dict[int, float] = {}
        for cell in reversed(ordered):
            bounds: List[float] = []
            width_c = self.cell_width(cell)
            for row, neighbor, segment in info(cell):
                if segment is None:
                    return None
                if side > 0:
                    if neighbor is not None and neighbor in push_set:
                        bounds.append(
                            extreme[neighbor] - self.edge_gap(cell, neighbor) - width_c
                        )
                    elif neighbor is not None:
                        bounds.append(
                            placement.x[neighbor]
                            - self.edge_gap(cell, neighbor)
                            - width_c
                        )
                    else:
                        limit = segment.x_hi
                        outside = self.occupancy.right_neighbor(row, segment.x_hi)
                        if outside is not None:
                            # Edge rules reach across the segment boundary
                            # (no-op when the outside cell is far enough).
                            limit = min(
                                limit,
                                placement.x[outside]
                                - self.edge_gap(cell, outside),
                            )
                        bounds.append(limit - width_c)
                else:
                    if neighbor is not None and neighbor in push_set:
                        bounds.append(
                            extreme[neighbor]
                            + self.cell_width(neighbor)
                            + self.edge_gap(neighbor, cell)
                        )
                    elif neighbor is not None:
                        bounds.append(
                            placement.x[neighbor]
                            + self.cell_width(neighbor)
                            + self.edge_gap(neighbor, cell)
                        )
                    else:
                        limit = segment.x_lo
                        outside = self.occupancy.left_neighbor(row, segment.x_lo)
                        if outside is not None:
                            outside_end = (
                                placement.x[outside] + self.cell_width(outside)
                            )
                            # Unconditional, matching the gap bounds above.
                            limit = max(
                                limit,
                                outside_end + self.edge_gap(outside, cell),
                            )
                        bounds.append(limit)
            extreme[cell] = min(bounds) if side > 0 else max(bounds)
            if side > 0 and extreme[cell] < placement.x[cell] - 1e-9:
                return None  # Already violates: cannot even stay put.
            if side < 0 and extreme[cell] > placement.x[cell] + 1e-9:
                return None

        # 4. The target's limit.
        limits: List[float] = []
        for gap in gaps:
            if side > 0:
                if gap.right_cell is not None:
                    limits.append(
                        extreme[gap.right_cell]
                        - self.edge_gap(-1, gap.right_cell)
                        - width_t
                    )
                else:
                    wall_gap = (
                        self.edge_gap(-1, gap.right_wall_cell)
                        if gap.right_wall_cell is not None
                        else 0
                    )
                    limits.append(gap.right_bound - wall_gap - width_t)
            else:
                if gap.left_cell is not None:
                    limits.append(
                        extreme[gap.left_cell]
                        + self.cell_width(gap.left_cell)
                        + self.edge_gap(gap.left_cell, -1)
                    )
                else:
                    wall_gap = (
                        self.edge_gap(gap.left_wall_cell, -1)
                        if gap.left_wall_cell is not None
                        else 0
                    )
                    limits.append(gap.left_bound + wall_gap)
        limit = min(limits) if side > 0 else max(limits)
        return offsets, limit
