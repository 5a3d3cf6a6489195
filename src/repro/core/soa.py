"""Flat-table fast path of the MGL insertion hot path (the vector backend).

The scalar evaluation in :mod:`repro.core.insertion` walks Python
objects per candidate: a BFS over neighbor queries, per-cell dict
updates, and per-cell wall checks.  For the dominant candidate shape —
a height-1 target inserted into a run of height-1 local cells — the
whole push analysis collapses into integer prefix sums over the run:

* Let the run be ``c_0 .. c_{n-1}`` (x-sorted local cells between two
  walls) and ``t_k = w(c_k) + edge_gap(c_k, c_{k+1})`` the mandatory
  pitch between neighbors.  With ``Q[j] = sum(t[:j])``:

  - pushing right from gap ``gi`` (target left of ``c_gi``) gives chain
    offsets ``offset(c_j) = w_t + eg(target, c_gi) + Q[j] - Q[gi]`` for
    ``j >= gi`` — exactly the longest-path offsets of the scalar BFS,
    because the push DAG of a single-row run is the chain itself;
  - the extreme (wall-limited) positions are gap-independent:
    ``ext_r[k] = wall_base_r - w(c_{n-1}) - sum(t[k:])`` and
    ``ext_l[k] = wall_base_l + Q[k]``, with the wall bases computed by
    the same cross-boundary edge rules the scalar walk applies;
  - a push from ``gi`` fits iff no pushed cell lies beyond its
    extreme, which is one index threshold per side — precomputed once
    per run, O(1) per candidate.

Every quantity is integer arithmetic, so the results are bit-identical
to the scalar walk regardless of evaluation order; the scalar path's
``1e-9`` wall tolerance is exact on integers (``ext < x - 1e-9`` iff
``ext < x``).

Candidates outside the fast shape (multi-row targets, runs containing
multi-row or out-of-segment cells) push a DAG, not a chain: multi-row
cells tie rows together.  Its extremes are still gap-independent,
because every local, same-segment neighbor of a pushed cell is pushed
too, so a cell's push closure is the same whichever gap pushes it.  The
evaluator memoizes one push summary per (local cell, side) for the
context's lifetime — the cell's extreme, whether its closure fails, and
an upper bound on what the closure saves by moving toward GP — built
bottom-up in x order.  The seeds' summaries give both push limits
exactly, so an infeasible candidate, an empty site range or a provable
loser is decided before any walk; survivors walk their push sets only
for the chain offsets, in the scalar assignment order.  The two
backends' outputs — placements *and* ``insertions_evaluated`` counts —
stay provably equal; the property is enforced by
tests/test_soa_equivalence.py with ``eval_backend=scalar`` as the
oracle.  Given the best-first walk's incumbent,
:meth:`VectorEvaluator.evaluate` also skips the push or the finish of
a candidate that lower bounds prove costlier (the dominance cut-off);
such a candidate could not have won, so the equality holds.  Once both
push sides are known, on or off the run tables, the bound is
separable: the target's cost at its best site of the range plus, per
pushed cell, the least displacement change any site of the range
leaves it, because the summed curve's minimum is at least the sum of
the per-curve minima.

Window-bounded walks: gaps and run tables involve only window-local
cells, which lie inside the window, so gap enumeration and the run
tables bisect the occupancy's live x-sorted row lists
(:meth:`Occupancy.row_positions` / :meth:`Occupancy.row_cells`) for the
window's slice of each segment and walk just that, in plain Python
ints.  The slice runs from the last cell starting left of the window to
the first starting at or right of its right edge; both are non-local
walls, and every run beyond them misses the window, so the walks emit
exactly what a segment-wide walk emits (the scalar
``_gaps_in_segment`` keeps that walk as the oracle).  The occupancy is
frozen while a context exists, so nothing is snapshotted: the only
shared state, :class:`SoAState`, is per-design.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.model.approx import approx_eq
from repro.model.design import Design
from repro.model.row import Segment
from repro.model.technology import CellType

if TYPE_CHECKING:
    from repro.core.insertion import EvaluatedInsertion, Gap, InsertionContext

#: Push-analysis product of one gap, mirroring the scalar
#: ``_push_side`` outputs: (right offsets, right limit, left offsets,
#: left limit).  Offsets map pushed cell -> chain offset from the
#: target; the dicts preserve the scalar insertion order (right side
#: outward-ascending, left side outward-descending) because the curve
#: summation downstream is float and order-sensitive.
Sides = Tuple[Dict[int, int], int, Dict[int, int], int]

#: Row heights by which a dominance bound must exceed the incumbent
#: before :meth:`VectorEvaluator.evaluate` skips a candidate.  The bound
#: and the finished cost are float evaluations of real-valued sums and
#: curve folds over n terms (target, row constant, one per pushed or
#: window-local cell).  With unit round-off u = 2**-53, each is off by
#: at most about n * u * S, S the sum of the terms' magnitudes; for
#: n <= 1e4 terms and S <= 1e4 row heights that is 1.2e-8, two orders
#: below this tolerance.  A bound that clears the incumbent by it thus
#: proves the finished cost above the incumbent: the candidate loses.
CUTOFF_TOLERANCE = 1e-6


class SoAState:
    """Per-design flat tables of the vector backend.

    Per-cell type codes and fixed flags as plain lists, and the
    edge-spacing matrix over the type codes as nested lists, so that
    ``edge_gap(a, b)`` is two list loads.  The tables depend only on
    the design, so one instance serves every evaluation of a legalizer
    until cells are added to the design (see
    :meth:`repro.core.mgl.MGLegalizer.soa`); row contents are read live
    from the occupancy, which is frozen while a context exists.
    """

    def __init__(self, design: Design):
        # Dense cell-type codes (by type name) and the edge-spacing
        # matrix over them: edge_gaps[i][j] is the mandatory filler
        # between a type-i cell's right edge and a type-j cell's left
        # edge.
        codes: Dict[str, int] = {}
        types: List[CellType] = []
        code_list: List[int] = []
        for cell in design.cells:
            cell_type = cell.cell_type
            code = codes.get(cell_type.name)
            if code is None:
                code = len(types)
                codes[cell_type.name] = code
                types.append(cell_type)
            code_list.append(code)
        table = design.technology.edge_spacing
        self.type_code_of = codes
        self.type_codes = code_list
        self.edge_gaps: List[List[int]] = [
            [table.spacing(left.right_edge, right.left_edge) for right in types]
            for left in types
        ]
        self.fixed: List[bool] = [cell.fixed for cell in design.cells]


class _Run:
    """Precomputed push tables of one wall-separated run of local cells.

    ``q[k]`` sums the pitches ``w(c_j) + eg(c_j, c_{j+1})`` for
    ``j < k``; the wall-limited extremes are ``ext_r[k] = right_base +
    q[k]`` and ``ext_l[k] = left_base + q[k]``.  A push from gap ``gi``
    fits on the right iff ``gi >= right_from`` (no pushed cell starts
    right of its extreme) and on the left iff ``gi - 1 < left_upto``.
    All plain Python ints, the same values the scalar walk produces.
    """

    __slots__ = ("cells", "q", "right_base", "left_base", "right_from",
                 "left_upto")

    def __init__(
        self,
        cells: Sequence[int],
        q: List[int],
        right_base: int,
        left_base: int,
        right_from: int,
        left_upto: int,
    ):
        self.cells = cells
        self.q = q
        self.right_base = right_base
        self.left_base = left_base
        self.right_from = right_from
        self.left_upto = left_upto


#: The window's slice of one row segment: x positions, cells and their
#: locality flags (see :meth:`VectorEvaluator._window_slice`).
_Slice = Tuple[Sequence[int], Sequence[int], List[bool]]


class _SegTable:
    """Run tables of one (row, segment), plus cell -> (run, index) map.

    A ``None`` entry in ``runs`` marks an ineligible run (it contains a
    multi-row or out-of-segment local cell, so its push graph is not the
    chain); gaps bordered by its cells take the generic push path, while
    gaps in the segment's other runs stay on the O(1) tables.
    """

    __slots__ = ("runs", "pos")

    def __init__(
        self, runs: List[Optional[_Run]], pos: Dict[int, Tuple[int, int]]
    ):
        self.runs = runs
        self.pos = pos


class _PushSummary:
    """What pushing one local cell to one side does, whichever gap pushes it.

    Every local, same-segment neighbor of a pushed cell is pushed too,
    so a cell's push closure, and with it the three values below, does
    not depend on the candidate:

    * ``extreme``: the cell's wall-limited extreme, step 3 of the scalar
      ``_push_side``;
    * ``savings``: an upper bound on what the closure saves by moving
      toward GP, its own ``w * x_unit * max(0, toward)`` plus its pushed
      neighbors' bounds (a cell two neighbors reach counts twice);
    * ``steps``: ``(pushed neighbor, pitch)`` in the scalar walk's row
      order, the edges of the chain-offset pass.

    A closure that fails has no summary: the memo holds None for it.
    """

    __slots__ = ("extreme", "savings", "steps")

    def __init__(
        self, extreme: int, savings: float, steps: List[Tuple[int, int]]
    ):
        self.extreme = extreme
        self.savings = savings
        self.steps = steps


class VectorEvaluator:
    """Per-context fast evaluation over one :class:`SoAState`.

    Owns lazy caches, all valid for the context's lifetime (the
    occupancy is frozen while a context exists):

    * per-(row, segment) window slices with their locality flags
      (:meth:`_window_slice`), shared by gap enumeration and the run
      tables;
    * per-(row, segment) run tables for the O(1) fast-path push
      analysis (:meth:`evaluate`), built over the window's slice of the
      segment;
    * per-(local cell, side) push summaries for every other candidate
      (:class:`_PushSummary`, :meth:`_summarize`), built on first use;
    * the dominance cut-off's savings cap and per-segment bound slack
      (see :meth:`evaluate`).
    """

    def __init__(self, context: "InsertionContext", soa: SoAState):
        # The context owns this evaluator.  A weak back-reference keeps
        # the pair out of a reference cycle, so an evaluated context and
        # its caches are freed at once instead of waiting for the cycle
        # collector.
        self._context: "weakref.ReferenceType[InsertionContext]" = (
            weakref.ref(context)
        )
        self.soa = soa
        self._slices: Dict[Tuple[int, int], _Slice] = {}
        self._segments: Dict[Tuple[int, int], _SegTable] = {}
        # Push summaries per side (+1, -1): local cell -> summary, or
        # None when its push closure fails.
        self._summaries: Dict[int, Dict[int, Optional[_PushSummary]]] = {
            +1: {}, -1: {},
        }
        # The savings cap, and the sites by which a segment's rough gap
        # bounds may overstate the target's reach (absent = 0); see
        # evaluate().
        self._cap: Optional[float] = None
        self._bound_slack: Dict[Tuple[int, int], float] = {}
        self._width_t = context.target_type.width
        self._multi_row = context.target_type.height != 1
        target_code = soa.type_code_of[context.target_type.name]
        self._target_code = target_code
        # eg(target, type) and eg(type, target) per type code.
        self._eg_from_target = soa.edge_gaps[target_code]
        self._eg_to_target = [row[target_code] for row in soa.edge_gaps]
        # Constants of the curve assembly; the expressions mirror the
        # ones finish_evaluation computes per call, so the values (and
        # bits) are the same every time.
        self._wt = context.weight_of(context.target)
        self._wt_x = context.weight_of(context.target) * context.x_unit
        self._use_gp = context.reference == "gp"
        self._widths = context.design.cell_widths
        self._heights = context.design.cell_heights
        from repro.core.insertion import EvaluatedInsertion, Gap

        self._gap_cls = Gap
        self._insertion_cls = EvaluatedInsertion

    @property
    def context(self) -> "InsertionContext":
        """The context this evaluator serves; it outlives the evaluator."""
        context = self._context()
        assert context is not None, "evaluator used after its context"
        return context

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        bottom_row: int,
        gaps: Sequence["Gap"],
        bound: float = -math.inf,
        incumbent: float = math.inf,
        margin: float = 0.0,
    ) -> Optional["EvaluatedInsertion"]:
        """Exact evaluation of one candidate on the array backend.

        The push analysis comes from the O(1) run tables when the
        candidate fits the fast shape; otherwise the limits come from
        the seeds' push summaries and the offsets from a walk of the
        push set (same offsets, same limits either way).  Every
        candidate that may win then finishes through
        :meth:`_finish_fast`, which assembles the summed displacement
        curve directly instead of materializing per-cell curve objects.

        Given the ``incumbent`` cost of the best-first walk (with the
        candidate's heap ``bound`` and the walk's ``margin``, MGL's
        :data:`repro.core.mgl.PRUNE_MARGIN`), a
        candidate whose cost provably exceeds the incumbent returns None
        early — it could not have won, since ``(cost, y, x, ordinal)``
        ranks it behind the incumbent:

        * before the push, when ``bound`` minus the window's savings
          cap (:meth:`_savings_cap`) and minus the segment slack of the
          rough gap bounds still exceeds the incumbent;
        * off the run tables, before any walk, when the target's exact
          cost over the site range ``[ceil(lo), floor(hi)]`` minus the
          seeds' summed summary savings exceeds it
          (:meth:`_summary_limits`);
        * once the push sides are known, on either path, when the
          per-curve lower bound :meth:`_cost_floor` over that range
          exceeds it;
        * in the finish, when the site minimum exceeds it, before the
          guard walk (:meth:`_finish_fast`).

        Every test needs a margin of :data:`CUTOFF_TOLERANCE`, so ties
        are always finished.  The defaults disable them: the call is
        then exhaustive, candidate for candidate equal to
        :meth:`InsertionContext.evaluate_scalar`.
        """
        threshold = incumbent + CUTOFF_TOLERANCE
        if bound > threshold and self._loses_before_push(
            gaps, bound, threshold, margin
        ):
            return None
        sides = self._push(bottom_row, gaps, threshold)
        if sides is None:
            return None
        return self._finish_fast(bottom_row, gaps, *sides, threshold)

    def _push(
        self, bottom_row: int, gaps: Sequence["Gap"], threshold: float
    ) -> Optional[Sides]:
        """Both push sides of a candidate that may still win, else None.

        None means the candidate is infeasible (as in the scalar walk)
        or its cost provably exceeds ``threshold``.  Candidates outside
        the run tables' shape are decided from the seeds' push summaries
        first (:meth:`_summary_limits`); only the survivors walk their
        push sets, for the chain offsets.  Both paths then meet the one
        post-push test, :meth:`_cost_floor` against ``threshold``.
        """
        handled = False
        sides: Optional[Sides] = None
        if not self._multi_row and len(gaps) == 1:
            handled, sides = self._sides(gaps[0])
        if not handled:
            limits = self._summary_limits(bottom_row, gaps, threshold)
            if limits is None:
                return None
            right_offsets = self._push_fast(gaps, +1)
            left_offsets = self._push_fast(gaps, -1)
            if set(right_offsets) & set(left_offsets):
                return None  # A cell would be pushed both ways.
            right_limit, left_limit = limits
            sides = (right_offsets, right_limit, left_offsets, left_limit)
        if sides is None or (
            threshold < math.inf
            and self._cost_floor(bottom_row, sides) > threshold
        ):
            return None
        return sides

    # ------------------------------------------------------------------
    # Dominance cut-off
    # ------------------------------------------------------------------

    def _loses_before_push(
        self,
        gaps: Sequence["Gap"],
        bound: float,
        threshold: float,
        margin: float,
    ) -> bool:
        """Whether ``bound`` proves the candidate above ``threshold``.

        The heap bound prices the target over its rough x-range; the
        exact range can reach further only at a segment end whose
        outside neighbor's edge rule was charged against the target
        instead of the pushed end cell (or past a local cell straddling
        the segment), by at most the segment's recorded slack in sites.
        The target's cost is thus at least ``bound - w_t * x_unit *
        slack``, and pushed cells save at most the savings cap.
        """
        lower = bound - self._savings_cap(margin)
        if lower <= threshold:
            return False
        slack_of = self._bound_slack
        if slack_of:
            slack = max(
                slack_of.get((gap.row, gap.segment.x_lo), 0.0) for gap in gaps
            )
            if slack:
                lower -= self._wt_x * slack
        return lower > threshold

    def _savings_cap(self, margin: float) -> float:
        """Most that pushing local cells can lower a candidate's cost.

        Push sets hold only window-local cells, and a pushed cell saves
        at most its weighted x-displacement ``w * x_unit * |x - gp_x|``
        (nothing under ``reference="current"``), so the sum over the
        window's local cells caps any candidate's savings.  The scan
        stops once the sum reaches ``margin`` and reports infinity: the
        best-first walk only evaluates bounds within ``margin`` of the
        incumbent, where such a cap can never fire.  Computed once per
        context; a finite cap is the whole sum and an infinite one only
        disables the test, so either stays valid for any later margin.
        """
        if self._cap is None:
            self._cap = self._scan_savings(margin)
        return self._cap

    def _scan_savings(self, margin: float) -> float:
        """The savings cap's sum, or infinity once it reaches ``margin``."""
        if not self._use_gp:
            return 0.0
        context = self.context
        occupancy = context.occupancy
        px = occupancy.placement.x
        py = occupancy.placement.y
        gp_of = context.design.gp_x
        weight_of = context.weight_of
        x_unit = context.x_unit
        window = context.window
        cap = 0.0
        first_row = max(0, math.ceil(window.ylo))
        last_row = min(context.design.num_rows, math.floor(window.yhi))
        for row in range(first_row, last_row):
            for cell in occupancy.cells_in_range(row, window.xlo, window.xhi):
                # Multi-row cells count once, in their bottom row.
                if py[cell] != row or not context.is_local(cell):
                    continue
                cap += weight_of(cell) * x_unit * abs(px[cell] - gp_of[cell])
                if cap >= margin:
                    return math.inf
        return cap

    def _cost_floor(self, bottom_row: int, sides: Sides) -> float:
        """A lower bound on what the finish can cost for these push sides.

        The finish minimizes the summed curve over the sites of ``[lo,
        hi] = [ceil(left limit), floor(right limit)]`` and adds only
        non-negative guard penalties, and a sum's minimum over a range
        is at least the sum of its curves' minima there.  The target and
        row curves give :meth:`_target_floor`.  A pushed cell's curve is
        ``w * (|p - a| - |x - a|)``, with ``w = weight * x_unit``, ``x``
        its position, ``a`` its GP x (``x`` under ``reference="current"``)
        and ``p`` where the push leaves it.  Over the range, a right push
        with offset ``o`` leaves it anywhere in ``[max(x, lo + o), max(x,
        hi + o)]`` and a left push in ``[min(x, lo - o), min(x, hi - o)]``;
        ``|p - a|`` is least at ``a`` clamped into that interval.  A
        cell's term is thus never below ``-w * max(0, toward GP)``, the
        most it could save, and it is positive when every site pushes it
        away from GP.  An empty site range has no finish: infinity.
        """
        right_offsets, right_limit, left_offsets, left_limit = sides
        lo = math.ceil(left_limit)
        hi = math.floor(right_limit)
        if lo > hi:
            return math.inf
        floor = self._target_floor(bottom_row, lo, hi)
        context = self.context
        px = context.occupancy.placement.x
        gp_of = context.design.gp_x
        weight_of = context.weight_of
        x_unit = context.x_unit
        use_gp = self._use_gp
        for cell, offset in right_offsets.items():
            x = px[cell]
            anchor = gp_of[cell] if use_gp else x
            # The anchor clamped into [max(x, lo + o), max(x, hi + o)].
            near = lo + offset
            if near < x:
                near = x
            if anchor > near:
                near = hi + offset
                if near < x:
                    near = x
                if near > anchor:
                    near = anchor
            floor += weight_of(cell) * x_unit * (
                abs(near - anchor) - abs(x - anchor)
            )
        for cell, offset in left_offsets.items():
            x = px[cell]
            anchor = gp_of[cell] if use_gp else x
            # The anchor clamped into [min(x, lo - o), min(x, hi - o)].
            near = hi - offset
            if near > x:
                near = x
            if anchor < near:
                near = lo - offset
                if near > x:
                    near = x
                if near < anchor:
                    near = anchor
            floor += weight_of(cell) * x_unit * (
                abs(near - anchor) - abs(x - anchor)
            )
        return floor

    def _target_floor(
        self, bottom_row: int, lo_site: int, hi_site: int
    ) -> float:
        """The target's own cost at the site of ``[lo_site, hi_site]``
        nearest ``gp_x``: a lower bound on what the finish can pay for it."""
        context = self.context
        gp_x = context.gp_x
        if gp_x < lo_site:
            x_dist = lo_site - gp_x
        elif gp_x > hi_site:
            x_dist = gp_x - hi_site
        else:
            x_dist = 0.0
        return self._wt * abs(bottom_row - context.gp_y) + self._wt_x * x_dist

    # ------------------------------------------------------------------
    # Push summaries
    # ------------------------------------------------------------------

    def _summary_limits(
        self, bottom_row: int, gaps: Sequence["Gap"], threshold: float
    ) -> Optional[Tuple[int, int]]:
        """``(right limit, left limit)`` of a candidate that may still win.

        Both limits are the scalar walk's, read off the seeds' push
        summaries.  None decides the candidate before any walk: a side's
        push does not fit, the site range ``[ceil(lo), floor(hi)]`` is
        empty, or the target's cost over that range minus the summed
        savings of both sides still exceeds ``threshold``.
        """
        right = self._summary_side(gaps, +1)
        if right is None:
            return None
        left = self._summary_side(gaps, -1)
        if left is None:
            return None
        right_limit, right_savings = right
        left_limit, left_savings = left
        lo_site = math.ceil(left_limit)
        hi_site = math.floor(right_limit)
        if lo_site > hi_site:
            return None  # No site at all; the finish would return None.
        if (
            threshold < math.inf
            and self._target_floor(bottom_row, lo_site, hi_site)
            - (right_savings + left_savings) > threshold
        ):
            return None
        return right_limit, left_limit

    def _summary_side(
        self, gaps: Sequence["Gap"], side: int
    ) -> Optional[Tuple[int, float]]:
        """``(limit, savings)`` of one push side, or None when it fails.

        The limit is step 4 of the scalar ``_push_side`` over the seeds'
        extremes; the savings sum each distinct seed's bound.
        """
        memo = self._summaries[side]
        seeds = [
            (gap.right_cell if side > 0 else gap.left_cell) for gap in gaps
        ]
        missing = [
            seed for seed in seeds if seed is not None and seed not in memo
        ]
        if missing:
            self._summarize(missing, side)
        codes = self.soa.type_codes
        egm = self.soa.edge_gaps
        tcode = self._target_code
        width_t = self._width_t
        limit: Optional[int] = None
        savings = 0.0
        counted: List[int] = []
        for gap, seed in zip(gaps, seeds):
            if seed is not None:
                summary = memo[seed]
                if summary is None:
                    return None
                if seed not in counted:
                    counted.append(seed)
                    savings += summary.savings
                if side > 0:
                    value = summary.extreme - egm[tcode][codes[seed]] - width_t
                else:
                    value = (
                        summary.extreme
                        + self._widths[seed]
                        + egm[codes[seed]][tcode]
                    )
            elif side > 0:
                wall = gap.right_wall_cell
                wall_gap = egm[tcode][codes[wall]] if wall is not None else 0
                value = gap.right_bound - wall_gap - width_t
            else:
                wall = gap.left_wall_cell
                wall_gap = egm[codes[wall]][tcode] if wall is not None else 0
                value = gap.left_bound + wall_gap
            if limit is None or (value < limit if side > 0 else value > limit):
                limit = value
        assert limit is not None
        return limit, savings

    def _summarize(self, roots: Sequence[int], side: int) -> None:
        """Memoize the push summaries of ``roots`` and their push closures.

        Collects the closure cells not summarized yet (a stack walk
        through local, same-segment neighbors, as the scalar BFS), then
        summarizes them outermost first: a pushed cell's neighbors lie
        strictly further out, so each summary reads finished ones, with
        no recursion however long the chain.  A cell's summary mirrors
        the scalar walk's step 3 for it: its wall-limited extreme, a
        failure when one of its rows has no segment at its x, it already
        lies past its extreme, or a pushed neighbor's closure fails, and
        its own savings toward GP plus its pushed neighbors' bounds.
        """
        context = self.context
        memo = self._summaries[side]
        occupancy = context.occupancy
        px = occupancy.placement.x
        ncache = context._neighbor_cache
        seg_neighbors = context._segment_neighbors
        is_local = context.is_local

        # Cell -> its (row, neighbor, segment) list, for each closure
        # cell without a summary.
        found: Dict[int, List[Tuple[int, Optional[int], Optional[Segment]]]]
        found = {}
        stack = list(roots)
        while stack:
            cell = stack.pop()
            if cell in found:
                continue
            key = (cell, side)
            nb = ncache.get(key)
            if nb is None:
                nb = seg_neighbors(cell, side)
                ncache[key] = nb
            found[cell] = nb
            for _row, neighbor, _segment in nb:
                if (
                    neighbor is not None
                    and neighbor not in found
                    and neighbor not in memo
                    and is_local(neighbor)
                ):
                    stack.append(neighbor)

        widths = self._widths
        codes = self.soa.type_codes
        egm = self.soa.edge_gaps
        gp_of = context.design.gp_x
        weight_of = context.weight_of
        x_unit = context.x_unit
        use_gp = self._use_gp
        # Local cells, and only they, are summarized: a neighbor in the
        # memo is one the push moves too.
        for cell in sorted(found, key=lambda c: (px[c], c), reverse=side > 0):
            x = px[cell]
            w_c = widths[cell]
            ccode = codes[cell]
            toward = gp_of[cell] - x if side > 0 else x - gp_of[cell]
            savings: float = (
                weight_of(cell) * x_unit * toward
                if use_gp and toward > 0
                else 0.0
            )
            steps: List[Tuple[int, int]] = []
            best: Optional[int] = None
            failed = False
            for row, neighbor, segment in found[cell]:
                if segment is None:
                    failed = True
                    break
                if neighbor is not None:
                    ncode = codes[neighbor]
                    if neighbor in memo:
                        sub = memo[neighbor]
                        if sub is None:
                            failed = True
                            break
                        base = sub.extreme
                        if not steps or all(
                            pushed != neighbor for pushed, _ in steps
                        ):
                            savings += sub.savings
                            steps.append((
                                neighbor,
                                w_c + egm[ccode][ncode] if side > 0
                                else widths[neighbor] + egm[ncode][ccode],
                            ))
                    else:
                        base = px[neighbor]
                    if side > 0:
                        b = base - egm[ccode][ncode] - w_c
                    else:
                        b = base + widths[neighbor] + egm[ncode][ccode]
                elif side > 0:
                    limit = segment.x_hi
                    outside = occupancy.right_neighbor(row, segment.x_hi)
                    if outside is not None:
                        lim2 = px[outside] - egm[ccode][codes[outside]]
                        if lim2 < limit:
                            limit = lim2
                    b = limit - w_c
                else:
                    limit = segment.x_lo
                    outside = occupancy.left_neighbor(row, segment.x_lo)
                    if outside is not None:
                        lim2 = (
                            px[outside]
                            + widths[outside]
                            + egm[codes[outside]][ccode]
                        )
                        if lim2 > limit:
                            limit = lim2
                    b = limit
                if best is None or (b < best if side > 0 else b > best):
                    best = b
            if failed:
                memo[cell] = None
                continue
            assert best is not None
            if best < x if side > 0 else best > x:
                memo[cell] = None  # Past its extreme: it cannot stay put.
            else:
                memo[cell] = _PushSummary(best, savings, steps)

    def _push_fast(self, gaps: Sequence["Gap"], side: int) -> Dict[int, int]:
        """Chain offsets of one push side, as :meth:`InsertionContext._push_side`.

        Runs the scalar BFS and chain-offset passes over the seeds' push
        summaries, which list each pushed cell's pushed neighbors with
        their pitches in the scalar walk's row order: every offset is the
        same Python int, and the dict is built by the same assignment
        sequence, so its insertion order (part of the float-summation
        contract downstream) matches the scalar dict exactly.  The
        extremes and the limit come from the summaries
        (:meth:`_summary_side`), which the caller has already checked,
        so no pushed cell's closure fails.
        """
        memo = self._summaries[side]
        px = self.context.occupancy.placement.x
        widths = self._widths
        codes = self.soa.type_codes
        egm = self.soa.edge_gaps
        tcode = self._target_code

        # 1. Push set by BFS through the pushed neighbors.
        seeds = [
            (gap.right_cell if side > 0 else gap.left_cell) for gap in gaps
        ]
        push_set = set(c for c in seeds if c is not None)
        frontier = list(push_set)
        while frontier:
            summary = memo[frontier.pop()]
            assert summary is not None
            for neighbor, _step in summary.steps:
                if neighbor not in push_set:
                    push_set.add(neighbor)
                    frontier.append(neighbor)

        ordered = sorted(push_set, key=lambda c: (px[c], c))
        if side < 0:
            ordered.reverse()  # Process outward from the target.

        # 2. Chain offsets (longest paths from the target).
        offsets: Dict[int, int] = {}
        for gap in gaps:
            seed = gap.right_cell if side > 0 else gap.left_cell
            if seed is None:
                continue
            if side > 0:
                off = self._width_t + egm[tcode][codes[seed]]
            else:
                off = widths[seed] + egm[codes[seed]][tcode]
            prev = offsets.get(seed, 0)
            offsets[seed] = off if off > prev else prev
        for cell in ordered:
            base = offsets.get(cell)
            if base is None:
                offsets[cell] = base = 0
            summary = memo[cell]
            assert summary is not None
            for neighbor, step in summary.steps:
                cand = base + step
                if cand > offsets.get(neighbor, 0):
                    offsets[neighbor] = cand
        return offsets

    def _finish_fast(
        self,
        bottom_row: int,
        gaps: Sequence["Gap"],
        right_offsets: Dict[int, int],
        right_limit: float,
        left_offsets: Dict[int, int],
        left_limit: float,
        threshold: float,
    ) -> Optional["EvaluatedInsertion"]:
        """One-pass twin of :meth:`InsertionContext.finish_evaluation`.

        Builds the *summed* curve straight from the offsets — anchor,
        ordered value/slope sums, merged breakpoints — performing, per
        curve, the same float operations ``sum_curves`` runs on the
        factory-built curve objects (every kept intermediate rounds
        identically).  The per-curve closed forms below are the reference
        ``value()`` walks at the summed anchor ``m``, which sits at or
        left of every per-curve anchor because ``min`` includes the
        constant curve's anchor ``0.0``.  It then replays the forward
        sweep of ``CurveSet`` on plain lists, and minimizes, guards and
        builds the moves exactly as the scalar tail does; bit-equality
        against the object path is pinned by tests/test_soa_equivalence.py.

        A site minimum above ``threshold`` returns None before the guard
        walk: every site the walk may pick lies in the scanned range and
        its penalties are non-negative, so the candidate would cost more.
        """
        lo_site = math.ceil(left_limit)
        hi_site = math.floor(right_limit)
        if lo_site > hi_site:
            return None

        context = self.context
        placement = context.occupancy.placement
        gp_of = context.design.gp_x
        weight_of = context.weight_of
        x_unit = context.x_unit
        use_gp = self._use_gp
        gp_x = context.gp_x
        wt_x = self._wt_x

        # Pass 1: per-curve primitives in the scalar curve-list order
        # (target V, row constant, right cells, left cells).
        anchors: List[float] = [gp_x, 0.0]
        merged: List[Tuple[float, float]] = [(gp_x, 2.0 * wt_x)]
        # (kind, base, weight, crit, turn): kind 0 = A/C (value is base),
        # 1 = B, 2 = D.
        records: List[Tuple[int, float, float, float, float]] = []
        baseline = 0.0
        # Ordered left-fold of the per-curve initial slopes (V's -wt_x,
        # then each left cell's -w; the interleaved 0.0 terms of the
        # constant and right-cell curves are bitwise identities here
        # because a negative or +0.0 running sum survives "+ 0.0").
        initial_slope = 0.0 + -wt_x
        for cell, offset in right_offsets.items():
            weight = weight_of(cell) * x_unit
            cur = placement.x[cell]
            anchor = gp_of[cell] if use_gp else cur
            crit = cur - offset
            base = weight * abs(cur - anchor)
            anchors.append(crit)
            if anchor <= cur:  # Type A
                merged.append((crit, weight))
            else:  # Type C
                merged.append((crit, -weight))
                merged.append((anchor - offset, 2.0 * weight))
            records.append((0, base, weight, crit, 0.0))
            baseline += base
        for cell, offset in left_offsets.items():
            weight = weight_of(cell) * x_unit
            cur = placement.x[cell]
            anchor = gp_of[cell] if use_gp else cur
            crit = cur + offset
            base = weight * abs(cur - anchor)
            anchors.append(crit)
            initial_slope += -weight
            if anchor >= cur:  # Type B
                merged.append((crit, weight))
                records.append((1, base, weight, crit, 0.0))
            else:  # Type D
                turn = anchor + offset
                merged.append((turn, 2.0 * weight))
                merged.append((crit, -weight))
                records.append((2, base, weight, crit, turn))
            baseline += base

        m = min(anchors)
        # Every probe below (minimize sites and guard walk alike) lies in
        # [lo_site, hi_site], so this makes the forward sweep sufficient:
        # the backward half of CurveSet is never consulted.
        if lo_site < m:
            raise ValueError(
                f"site {lo_site} left of the summed curve anchor {m}"
            )

        # Pass 2: the ordered value sum at m.  builtins.sum starts from
        # int 0 exactly like the scalar generator sum; each term is the
        # reference backward (or anchor-coincident forward) walk of its
        # curve, collapsed to a closed form.
        anchor_value = 0.0 + (
            wt_x * (m - gp_x) if m >= gp_x else wt_x * (gp_x - m)
        )
        anchor_value += self._wt * abs(bottom_row - context.gp_y)
        for kind, base, weight, crit, turn in records:
            if kind == 0:  # A/C: flat left of crit.
                anchor_value += base
            elif kind == 1:  # B: slope -w left of crit.
                anchor_value += base - (-weight) * (crit - m)
            elif m >= turn:  # D, between turn and crit.
                anchor_value += base - weight * (crit - m)
            else:  # D, left of turn.
                anchor_value += (base - weight * (crit - turn)) - (
                    -weight
                ) * (turn - m)
        if baseline:
            anchor_value += -baseline

        # Merge + coalesce, verbatim sum_curves semantics.
        merged.sort()
        coalesced: List[Tuple[float, float]] = []
        for bp_x, delta in merged:
            if coalesced and approx_eq(coalesced[-1][0], bp_x):
                coalesced[-1] = (coalesced[-1][0], coalesced[-1][1] + delta)
            else:
                coalesced.append((bp_x, delta))

        # CurveSet's forward checkpoints: the slope at the anchor folds
        # the deltas at or left of m, then each breakpoint right of m
        # extends the running total by one full segment.
        slope = initial_slope
        start = 0
        for bp_x, delta in coalesced:
            if bp_x > m:
                break
            slope += delta
            start += 1
        fwd_x: List[float] = []
        fwd_total = [anchor_value]
        fwd_slope = [slope]
        fwd_pos = [m]
        running = anchor_value
        position = m
        for bp_x, delta in coalesced[start:]:
            running = running + slope * (bp_x - position)
            position = bp_x
            slope = slope + delta
            fwd_x.append(bp_x)
            fwd_total.append(running)
            fwd_slope.append(slope)
            fwd_pos.append(position)

        def cost_at(x: float) -> float:
            j = bisect_left(fwd_x, x)
            return fwd_total[j] + fwd_slope[j] * (x - fwd_pos[j])

        # CurveSet.minimize: range ends plus the sites around each
        # breakpoint, in ascending order, strict improvement only.
        sites = {lo_site, hi_site}
        for bp_x, _ in coalesced:
            for site in (math.floor(bp_x), math.ceil(bp_x)):
                if lo_site <= site <= hi_site:
                    sites.add(site)
        best_x = lo_site
        best_cost = math.inf
        for site in sorted(sites):
            cost = cost_at(site)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_x = site
        if best_cost > threshold:
            return None

        guard = context.guard
        if guard is not None:
            best_x, extra = guard.adjust_x_planned(
                context.target_type, bottom_row, best_x, lo_site, hi_site,
                cost_at,
            )
            best_cost = cost_at(best_x) + extra
        return self._insertion_cls(
            x=best_x,
            y=bottom_row,
            cost=best_cost,
            moves=context.spread_moves(right_offsets, left_offsets, best_x),
            gaps=tuple(gaps),
        )

    # ------------------------------------------------------------------
    # Gap enumeration
    # ------------------------------------------------------------------

    def _window_slice(self, row: int, segment: Segment) -> _Slice:
        """(xs, cells, local flags) of the window's slice of a segment.

        The segment's cells in ``Occupancy.cells_in_range`` order (with
        the one cell overhanging its start), clipped to run from the
        last cell starting left of ``window.xlo`` through the first
        starting at or right of ``window.xhi``.  Local cells lie inside
        the window, so the cells cut off are walls, and so are the two
        kept at the cut: every run beyond them misses the window.
        Memoized per (row, segment), so the gap walk and the run tables
        walk the same slice.
        """
        key = (row, segment.x_lo)
        cached = self._slices.get(key)
        if cached is not None:
            return cached
        context = self.context
        occupancy = context.occupancy
        window = context.window
        xs = occupancy.row_positions(row)
        cells = occupancy.row_cells(row)
        start = bisect_left(xs, segment.x_lo)
        if start > 0 and (
            xs[start - 1] + self._widths[cells[start - 1]] > segment.x_lo
        ):
            start -= 1
        end = bisect_left(xs, segment.x_hi)
        start = max(start, bisect_left(xs, window.xlo) - 1)
        end = min(end, bisect_left(xs, window.xhi) + 1)
        kept = cells[start:end]
        is_local = context.is_local
        result = (xs[start:end], kept, [is_local(cell) for cell in kept])
        self._slices[key] = result
        return result

    def gaps_in_segment(self, row: int, segment: Segment) -> List["Gap"]:
        """Window-bounded twin of :meth:`InsertionContext._gaps_in_segment`.

        Walks only :meth:`_window_slice`: runs outside it start or end
        outside the window, where the scalar walk drops them too.  The
        scalar rough bounds are float accumulations of integer pitches —
        every intermediate is an exact integer — so summing them as
        ints and converting once yields the same floats.  Runs, walls,
        filters and emission order mirror the scalar walk clause for
        clause; list equality is pinned by tests/test_soa_equivalence.py.
        """
        context = self.context
        occupancy = context.occupancy
        placement = occupancy.placement
        window = context.window
        widths = self._widths

        xs, cells, local = self._window_slice(row, segment)

        # Segment bounds with the cross-boundary edge rules
        # (scalar-identical: the outside neighbor pushes the bound
        # inward by its required gap, unconditionally).
        left_bound = segment.x_lo
        outside_left = occupancy.left_neighbor(row, segment.x_lo)
        if outside_left is not None:
            outside_end = (
                placement.x[outside_left] + context.cell_width(outside_left)
            )
            left_bound = max(
                left_bound, outside_end + context.edge_gap(outside_left, -1)
            )
        right_cap = segment.x_hi
        outside_right = occupancy.right_neighbor(row, segment.x_hi)
        if outside_right is not None:
            right_cap = min(
                right_cap,
                placement.x[outside_right]
                - context.edge_gap(-1, outside_right),
            )
        # The rough bounds charge an outside neighbor's edge rule against
        # the target; a pushed end cell of another type may get closer,
        # but never past the segment end.  A local cell straddling the
        # segment end escapes the rough model altogether; local cells
        # lie inside the window, so only an end inside it can be one.
        slack: float = max(left_bound - segment.x_lo, segment.x_hi - right_cap)
        if segment.x_lo > window.xlo or segment.x_hi < window.xhi:
            for x, cell, loc in zip(xs, cells, local):
                if loc and (
                    x < segment.x_lo or x + widths[cell] > segment.x_hi
                ):
                    slack = math.inf
                    break
        if slack > 0:
            self._bound_slack[(row, segment.x_lo)] = slack

        gaps: List["Gap"] = []
        width_t = self._width_t
        total = len(cells)
        index = 0
        lwall: Optional[int] = None
        run_lo = left_bound
        while True:
            start = index
            while index < total and local[index]:
                index += 1
            if index < total:
                rwall: Optional[int] = cells[index]
                run_hi = xs[index]
            else:
                rwall = None
                run_hi = right_cap
            if run_hi - run_lo >= width_t and not (
                run_hi <= window.xlo or run_lo >= window.xhi
            ):
                self._emit_run_gaps(
                    gaps, row, segment, cells[start:index],
                    run_lo, run_hi, lwall, rwall,
                )
            if index >= total:
                return gaps
            run_lo = xs[index] + widths[cells[index]]
            lwall = cells[index]
            index += 1

    def _emit_run_gaps(
        self,
        gaps: List["Gap"],
        row: int,
        segment: Segment,
        run_cells: Sequence[int],
        run_lo: int,
        run_hi: int,
        lwall: Optional[int],
        rwall: Optional[int],
    ) -> None:
        """Append one run's gaps: prefix-sum twin of ``_make_gap``.

        For gap index ``i`` over run cells ``c_0..c_{n-1}``, the scalar
        compress-left walk gives ``lo[i] = run_lo + sum(add[:i]) +
        eg(c_{i-1}, t)`` with ``add[j] = eg(prev_j, c_j) + w(c_j)``, and
        the compress-right walk ``hi[i] = run_hi - sum(sub[i:]) - w_t -
        eg(t, c_i)`` with ``sub[j] = w(c_j) + eg(c_j, next_j)`` — one
        running sum each way.
        """
        codes = self.soa.type_codes
        egm = self.soa.edge_gaps
        from_t = self._eg_from_target
        to_t = self._eg_to_target
        widths = self._widths
        gap_cls = self._gap_cls
        n = len(run_cells)

        # hi[i], right to left.
        his = [0] * (n + 1)
        position = run_hi - self._width_t
        next_code = codes[rwall] if rwall is not None else -1
        his[n] = position - from_t[next_code] if rwall is not None else position
        for i in range(n - 1, -1, -1):
            cell = run_cells[i]
            code = codes[cell]
            if next_code >= 0:
                position -= egm[code][next_code]
            position -= widths[cell]
            his[i] = position - from_t[code]
            next_code = code

        # lo[i], left to right, emitting each gap that leaves room.
        prev_code = codes[lwall] if lwall is not None else -1
        position = run_lo
        lo_v = run_lo + to_t[prev_code] if lwall is not None else run_lo
        left_c: Optional[int] = None
        for i in range(n + 1):
            right_c = run_cells[i] if i < n else None
            hi_v = his[i]
            if lo_v <= hi_v:
                gaps.append(gap_cls(
                    row=row, segment=segment,
                    left_cell=left_c, right_cell=right_c,
                    left_bound=run_lo, right_bound=run_hi,
                    left_wall_cell=lwall, right_wall_cell=rwall,
                    lo_rough=float(lo_v), hi_rough=float(hi_v),
                ))
            if right_c is None:
                return
            code = codes[right_c]
            if prev_code >= 0:
                position += egm[prev_code][code]
            position += widths[right_c]
            lo_v = position + to_t[code]
            prev_code = code
            left_c = right_c

    def _sides(self, gap: "Gap") -> Tuple[bool, Optional[Sides]]:
        """Push analysis of one single-row gap.

        Returns ``(handled, sides)``: ``handled=False`` means the run
        violates a fast-path precondition and the caller must use the
        scalar evaluator; ``sides=None`` (with ``handled=True``) means
        the candidate is infeasible — a push does not fit.
        """
        context = self.context
        key = (gap.row, gap.segment.x_lo)
        if key in self._segments:
            table = self._segments[key]
        else:
            table = self._build_segment(gap.row, gap.segment)
            self._segments[key] = table
        width_t = self._width_t

        if gap.right_cell is not None:
            run_index, gi = table.pos[gap.right_cell]
        elif gap.left_cell is not None:
            run_index, gi = table.pos[gap.left_cell]
            gi += 1
        else:
            # Empty run: both sides are walls, no pushes at all.
            right_gap = (
                context.edge_gap(-1, gap.right_wall_cell)
                if gap.right_wall_cell is not None
                else 0
            )
            left_gap = (
                context.edge_gap(gap.left_wall_cell, -1)
                if gap.left_wall_cell is not None
                else 0
            )
            return True, (
                {},
                gap.right_bound - right_gap - width_t,
                {},
                gap.left_bound + left_gap,
            )

        run = table.runs[run_index]
        if run is None:
            return False, None
        cells = run.cells
        n = len(cells)
        q = run.q

        if gi < n:
            if gi < run.right_from:
                return True, None
            egt = self._eg_from_target[self.soa.type_codes[cells[gi]]]
            base = width_t + egt
            q_gi = q[gi]
            right_offsets = {
                cells[j]: base + q[j] - q_gi for j in range(gi, n)
            }
            right_limit = run.right_base + q_gi - egt - width_t
        else:
            wall_gap = (
                context.edge_gap(-1, gap.right_wall_cell)
                if gap.right_wall_cell is not None
                else 0
            )
            right_offsets = {}
            right_limit = gap.right_bound - wall_gap - width_t

        if gi > 0:
            k = gi - 1
            if k >= run.left_upto:
                return True, None
            cell = cells[k]
            base = (
                self._widths[cell]
                + self._eg_to_target[self.soa.type_codes[cell]]
            )
            q_k = q[k]
            left_offsets = {
                cells[j]: base + q_k - q[j] for j in range(k, -1, -1)
            }
            left_limit = run.left_base + q_k + base
        else:
            wall_gap = (
                context.edge_gap(gap.left_wall_cell, -1)
                if gap.left_wall_cell is not None
                else 0
            )
            left_offsets = {}
            left_limit = gap.left_bound + wall_gap

        return True, (right_offsets, right_limit, left_offsets, left_limit)

    # ------------------------------------------------------------------

    def _build_segment(self, row: int, segment: Segment) -> _SegTable:
        """Run tables of one segment; ineligible runs are ``None``.

        Only the window's slice is walked: every local cell, and so
        every run, lies in it, and the walls at its cut are the ones a
        segment-wide walk finds.  Precondition for a run's fast path:
        every local cell in it is height 1 and lies entirely inside the
        segment, so its push DAG is the run chain and its only wall is
        the run boundary.  Walls (non-local cells) may be any shape, and
        a violating run only disqualifies itself — push never crosses a
        wall, so the other runs in the segment keep their tables.
        """
        widths = self._widths
        heights = self._heights
        xs, cells, local = self._window_slice(row, segment)
        runs: List[Optional[_Run]] = []
        pos: Dict[int, Tuple[int, int]] = {}
        index = 0
        total = len(cells)
        prev_wall: Optional[int] = None
        while index < total:
            if not local[index]:
                prev_wall = cells[index]
                index += 1
                continue
            start = index
            eligible = True
            while index < total and local[index]:
                cell = cells[index]
                x = xs[index]
                if (
                    heights[cell] != 1
                    or x < segment.x_lo
                    or x + widths[cell] > segment.x_hi
                ):
                    eligible = False
                index += 1
            next_wall = cells[index] if index < total else None
            run_cells = cells[start:index]
            run = (
                self._build_run(
                    row, segment, run_cells, xs[start:index],
                    prev_wall, next_wall,
                )
                if eligible
                else None
            )
            run_index = len(runs)
            runs.append(run)
            for offset, cell in enumerate(run_cells):
                pos[cell] = (run_index, offset)
        return _SegTable(runs=runs, pos=pos)

    def _build_run(
        self,
        row: int,
        segment: Segment,
        cells: Sequence[int],
        xs: Sequence[int],
        lwall: Optional[int],
        rwall: Optional[int],
    ) -> _Run:
        """Prefix sums, wall bases and push thresholds of one run."""
        context = self.context
        placement = context.occupancy.placement
        codes = self.soa.type_codes
        egm = self.soa.edge_gaps
        widths = self._widths
        n = len(cells)

        # Pitches t_k between run neighbors and their prefix sums Q.
        q = [0] * n
        total = 0
        for k in range(1, n):
            prev = cells[k - 1]
            total += widths[prev] + egm[codes[prev]][codes[cells[k]]]
            q[k] = total

        # Right wall base: the extreme of the last cell plus its width.
        # Identical to the scalar walk's wall branch, including the
        # cross-boundary edge rule when the run ends at the segment.
        last = cells[-1]
        if rwall is not None:
            wall_base_r = placement.x[rwall] - context.edge_gap(last, rwall)
        else:
            limit = segment.x_hi
            outside = context.occupancy.right_neighbor(row, segment.x_hi)
            if outside is not None:
                limit = min(
                    limit,
                    placement.x[outside] - context.edge_gap(last, outside),
                )
            wall_base_r = limit
        # ext_r[k] = wall_base_r - w(c_{n-1}) - sum(t[k:]) = right_base + Q[k].
        right_base = wall_base_r - widths[last] - total

        first = cells[0]
        if lwall is not None:
            wall_base_l = (
                placement.x[lwall]
                + context.cell_width(lwall)
                + context.edge_gap(lwall, first)
            )
        else:
            limit = segment.x_lo
            outside = context.occupancy.left_neighbor(row, segment.x_lo)
            if outside is not None:
                outside_end = (
                    placement.x[outside] + context.cell_width(outside)
                )
                limit = max(
                    limit, outside_end + context.edge_gap(outside, first)
                )
            wall_base_l = limit

        # A right push from gap gi moves c_gi..c_{n-1}; it fits iff none
        # of them starts right of its extreme (left pushes mirror this).
        right_from = 0
        left_upto = n
        for k in range(n):
            if right_base + q[k] < xs[k]:
                right_from = k + 1
        for k in range(n - 1, -1, -1):
            if xs[k] < wall_base_l + q[k]:
                left_upto = k
        return _Run(
            cells=cells,
            q=q,
            right_base=right_base,
            left_base=wall_base_l,
            right_from=right_from,
            left_upto=left_upto,
        )
