"""Structure-of-arrays mirror of the MGL insertion hot path.

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
  - feasibility of a push from ``gi`` is a suffix/prefix minimum of
    ``ext - x`` — precomputed once per run, O(1) per candidate.

Every quantity is integer arithmetic, so the results are bit-identical
to the scalar walk regardless of evaluation order; the scalar path's
``1e-9`` wall tolerance is exact on integers (``ext < x - 1e-9`` iff
``ext < x``).  Candidates outside the fast shape (multi-row targets,
runs containing multi-row or out-of-segment cells) fall back to the
scalar evaluator, keeping the two backends' outputs — placements *and*
``insertions_evaluated`` counts — provably equal; the property is
enforced by tests/test_soa_equivalence.py with ``eval_backend=scalar``
as the oracle.

Synchronization: :class:`SoAState` snapshots occupancy rows through the
public :meth:`Occupancy.row_positions` / :meth:`Occupancy.row_cells`
accessors, keyed by :meth:`Occupancy.row_version` — a snapshot is
rebuilt exactly when its row's version moved.  Snapshots live in
``threading.local`` storage so the scheduler's thread pool can share
one :class:`SoAState` across concurrent evaluations without locking.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.core.occupancy import Occupancy
from repro.model.approx import approx_eq
from repro.model.design import Design
from repro.model.row import Segment

if TYPE_CHECKING:
    from repro.core.insertion import EvaluatedInsertion, Gap, InsertionContext

#: Per-row occupancy snapshot: (row version, x positions, cell ids,
#: placement y per cell), the arrays parallel and x-sorted.
RowSnapshot = Tuple[
    int,
    npt.NDArray[np.int64],
    npt.NDArray[np.int64],
    npt.NDArray[np.int64],
]

#: Push-analysis product of one gap, mirroring the scalar
#: ``_push_side`` outputs: (right offsets, right limit, left offsets,
#: left limit).  Offsets map pushed cell -> chain offset from the
#: target; the dicts preserve the scalar insertion order (right side
#: outward-ascending, left side outward-descending) because the curve
#: summation downstream is float and order-sensitive.
Sides = Tuple[Dict[int, int], int, Dict[int, int], int]


class _RowCaches(threading.local):
    """Thread-local row snapshot store (one dict per thread)."""

    def __init__(self) -> None:
        self.rows: Dict[int, RowSnapshot] = {}


class SoAState:
    """Contiguous-array mirror of a design + occupancy pair.

    Geometry arrays are built once from the design's cached
    ``cell_widths``/``cell_heights`` lists; row snapshots are built
    lazily per (thread, row) and invalidated by ``row_version``.  One
    instance is shared by every evaluation against the same occupancy —
    the legalizer holds it (see :meth:`repro.core.mgl.MGLegalizer.soa_for`)
    and batch evaluation reuses its snapshots across batch members.
    """

    def __init__(self, design: Design, occupancy: Occupancy):
        self.design = design
        self.occupancy = occupancy
        self.num_cells = design.num_cells
        self.widths: npt.NDArray[np.int64] = np.asarray(
            design.cell_widths, dtype=np.int64
        )
        self.heights: npt.NDArray[np.int64] = np.asarray(
            design.cell_heights, dtype=np.int64
        )
        self.fixed: npt.NDArray[np.bool_] = np.fromiter(
            (cell.fixed for cell in design.cells),
            dtype=np.bool_,
            count=design.num_cells,
        )
        # Dense cell-type codes (by type name) and the edge-spacing
        # matrix over them: eg[i, j] is the mandatory filler between a
        # type-i cell's right edge and a type-j cell's left edge.
        codes: Dict[str, int] = {}
        types = []
        code_list: List[int] = []
        for cell in design.cells:
            cell_type = cell.cell_type
            code = codes.get(cell_type.name)
            if code is None:
                code = len(types)
                codes[cell_type.name] = code
                types.append(cell_type)
            code_list.append(code)
        self.type_code_of = codes
        self.type_codes: npt.NDArray[np.int64] = np.asarray(
            code_list, dtype=np.int64
        )
        table = design.technology.edge_spacing
        size = len(types)
        matrix = np.zeros((size, size), dtype=np.int64)
        for i, left in enumerate(types):
            for j, right in enumerate(types):
                matrix[i, j] = table.spacing(left.right_edge, right.left_edge)
        self.edge_gap_matrix: npt.NDArray[np.int64] = matrix
        # Plain nested-list twins for the Python-level hot loops (list
        # indexing beats array scalar indexing there).
        self.edge_gap_lists: List[List[int]] = matrix.tolist()
        self.type_code_list: List[int] = code_list
        self.fixed_list: List[bool] = self.fixed.tolist()
        self._rows = _RowCaches()

    def row_arrays(
        self, row: int
    ) -> Tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
    ]:
        """(xs, cells, ys) snapshot of ``row``, rebuilt when its version moved."""
        occupancy = self.occupancy
        version = occupancy.row_version(row)
        cache = self._rows.rows
        entry = cache.get(row)
        if entry is None or entry[0] != version:
            cells_list = occupancy.row_cells(row)
            xs = np.asarray(occupancy.row_positions(row), dtype=np.int64)
            cells = np.asarray(cells_list, dtype=np.int64)
            placement_y = occupancy.placement.y
            ys = np.fromiter(
                (placement_y[cell] for cell in cells_list),
                dtype=np.int64,
                count=len(cells_list),
            )
            entry = (version, xs, cells, ys)
            cache[row] = entry
        return entry[1], entry[2], entry[3]


class _Run:
    """Precomputed push tables of one wall-separated run of local cells.

    All members are plain Python lists/ints (converted from the int64
    arrays they were computed with) so per-candidate lookups stay cheap
    and the values flowing into curves/moves are exact Python ints, the
    same types the scalar path produces.
    """

    __slots__ = (
        "n", "cells", "ws", "q", "egt_right", "egt_left",
        "ext_r", "ext_l", "feas_r", "feas_l",
    )

    def __init__(
        self,
        n: int,
        cells: List[int],
        ws: List[int],
        q: List[int],
        egt_right: List[int],
        egt_left: List[int],
        ext_r: List[int],
        ext_l: List[int],
        feas_r: List[bool],
        feas_l: List[bool],
    ):
        self.n = n
        self.cells = cells
        self.ws = ws
        self.q = q
        self.egt_right = egt_right
        self.egt_left = egt_left
        self.ext_r = ext_r
        self.ext_l = ext_l
        self.feas_r = feas_r
        self.feas_l = feas_l


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


class VectorEvaluator:
    """Per-context vectorized evaluation over one :class:`SoAState`.

    Owns two lazy caches, both valid for the context's lifetime (the
    occupancy is frozen while a context exists):

    * per-(row, segment) run tables for the O(1) fast-path push
      analysis (:meth:`evaluate`);
    * per-row vectorized lower-bound tables feeding the best-first
      heap's prefilter (:meth:`lower_bound`), keyed by gap identity —
      gap lists are memoized on the context, so identities are stable.
    """

    def __init__(self, context: "InsertionContext", soa: SoAState):
        self.context = context
        self.soa = soa
        self._segments: Dict[Tuple[int, int], _SegTable] = {}
        self._bounds: Dict[int, Dict[int, float]] = {}
        self._width_t = context.target_type.width
        self._multi_row = context.target_type.height != 1
        self._target_code = soa.type_code_of[context.target_type.name]
        # Constants of the curve assembly; the expressions mirror the
        # ones finish_evaluation computes per call, so the values (and
        # bits) are the same every time.
        self._wt = context.weight_of(context.target)
        self._wt_x = context.weight_of(context.target) * context.x_unit
        self._use_gp = context.reference == "gp"
        self._widths = soa.design.cell_widths
        self._heights = soa.design.cell_heights
        from repro.core.insertion import EvaluatedInsertion, Gap

        self._gap_cls = Gap
        self._insertion_cls = EvaluatedInsertion

    # ------------------------------------------------------------------
    # Lower bounds
    # ------------------------------------------------------------------

    def lower_bound(self, bottom_row: int, gaps: Sequence["Gap"]) -> float:
        """Bit-identical, batch-computed version of the scalar bound.

        Single-gap candidates read a per-row table computed in one
        vectorized pass; multi-row combinations (whose bound folds
        several gaps) fall back to the scalar formula.
        """
        if len(gaps) == 1:
            gap = gaps[0]
            table = self._bounds.get(gap.row)
            if table is None:
                table = self._bound_table(gap.row)
                self._bounds[gap.row] = table
            bound = table.get(id(gap))
            if bound is not None:
                return bound
        return self.context.lower_bound_scalar(bottom_row, gaps)

    def _bound_table(self, row: int) -> Dict[int, float]:
        """All single-gap lower bounds of ``row`` in one array pass.

        The arithmetic mirrors the scalar expression operation for
        operation (max chain, then ``|dy| + x_dist * x_unit`` scaled by
        the weight), so each table entry equals the scalar bound bit
        for bit.
        """
        context = self.context
        gaps = context.gaps_in_row(row)
        if not gaps:
            return {}
        count = len(gaps)
        lo = np.fromiter(
            (gap.lo_rough for gap in gaps), dtype=np.float64, count=count
        )
        hi = np.fromiter(
            (gap.hi_rough for gap in gaps), dtype=np.float64, count=count
        )
        x_dist = np.maximum(
            0.0, np.maximum(lo - context.gp_x, context.gp_x - hi)
        )
        weight = context.weight_of(context.target)
        bounds = weight * (
            abs(row - context.gp_y) + x_dist * context.x_unit
        )
        return {
            id(gap): bound for gap, bound in zip(gaps, bounds.tolist())
        }

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, bottom_row: int, gaps: Sequence["Gap"]
    ) -> Optional["EvaluatedInsertion"]:
        """Exact evaluation of one candidate on the array backend.

        The push analysis comes from the O(1) run tables when the
        candidate fits the fast shape and from the scalar transitive
        walk otherwise (same offsets, same limits either way); every
        candidate then finishes through :meth:`_finish_fast`, which
        assembles the summed displacement curve directly instead of
        materializing per-cell curve objects.
        """
        context = self.context
        sides: Optional[Sides] = None
        if not self._multi_row and len(gaps) == 1:
            handled, fast_sides = self._sides(gaps[0])
            if handled:
                if fast_sides is None:
                    return None  # Infeasible, where the scalar walk bails.
                sides = fast_sides
        if sides is None:
            right_info = self._push_fast(gaps, +1)
            if right_info is None:
                return None
            left_info = self._push_fast(gaps, -1)
            if left_info is None:
                return None
            right_offsets, right_limit = right_info
            left_offsets, left_limit = left_info
            if set(right_offsets) & set(left_offsets):
                return None  # A cell would be pushed both ways.
            sides = (right_offsets, right_limit, left_offsets, left_limit)
        return self._finish_fast(bottom_row, gaps, *sides)

    def _push_fast(
        self, gaps: Sequence["Gap"], side: int
    ) -> Optional[Tuple[Dict[int, int], int]]:
        """Flat-data mirror of :meth:`InsertionContext._push_side`.

        Runs the identical BFS / chain-offset / extremes / limit passes
        — every quantity is the same Python int the scalar walk produces
        (edge gaps come from the type-code matrix, which tabulates the
        same spacing-table lookups ``edge_gap`` performs) — but through
        plain list indexing instead of method and dict-cache calls.  The
        offsets dict is built by the same assignment sequence, so its
        insertion order (part of the float-summation contract downstream)
        matches the scalar dict exactly.  Shares the context's neighbor
        and locality caches, which are populated with identical values.
        """
        context = self.context
        soa = self.soa
        occupancy = context.occupancy
        placement = occupancy.placement
        px = placement.x
        py = placement.y
        widths = self._widths
        heights = self._heights
        fixed = soa.fixed_list
        codes = soa.type_code_list
        egm = soa.edge_gap_lists
        tcode = self._target_code
        width_t = self._width_t
        window = context.window
        wxlo = window.xlo
        wxhi = window.xhi
        wylo = window.ylo
        wyhi = window.yhi
        local_cache = context._local_cache
        ncache = context._neighbor_cache
        seg_neighbors = context._segment_neighbors

        # 1. Push set by BFS through local, same-segment neighbors.
        seeds = [
            (gap.right_cell if side > 0 else gap.left_cell) for gap in gaps
        ]
        push_set = set(c for c in seeds if c is not None)
        frontier = list(push_set)
        while frontier:
            cell = frontier.pop()
            key = (cell, side)
            nb = ncache.get(key)
            if nb is None:
                nb = seg_neighbors(cell, side)
                ncache[key] = nb
            for _row, neighbor, _segment in nb:
                if neighbor is None or neighbor in push_set:
                    continue
                loc = local_cache.get(neighbor)
                if loc is None:
                    if fixed[neighbor]:
                        loc = False
                    else:
                        nx = px[neighbor]
                        ny = py[neighbor]
                        loc = (
                            wxlo <= nx
                            and nx + widths[neighbor] <= wxhi
                            and wylo <= ny
                            and ny + heights[neighbor] <= wyhi
                        )
                    local_cache[neighbor] = loc
                if not loc:
                    continue
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
                off = width_t + egm[tcode][codes[seed]]
            else:
                off = widths[seed] + egm[codes[seed]][tcode]
            prev = offsets.get(seed, 0)
            offsets[seed] = off if off > prev else prev
        for cell in ordered:
            base = offsets.get(cell)
            if base is None:
                offsets[cell] = base = 0
            ccode = codes[cell]
            w_c = widths[cell]
            for _row, neighbor, _segment in ncache[(cell, side)]:
                if neighbor is None or neighbor not in push_set:
                    continue
                if side > 0:
                    step = w_c + egm[ccode][codes[neighbor]]
                else:
                    step = widths[neighbor] + egm[codes[neighbor]][ccode]
                cand = base + step
                if cand > offsets.get(neighbor, 0):
                    offsets[neighbor] = cand

        # 3. Extreme positions against walls (processed inward).
        extreme: Dict[int, int] = {}
        for cell in reversed(ordered):
            w_c = widths[cell]
            ccode = codes[cell]
            best: Optional[int] = None
            for row, neighbor, segment in ncache[(cell, side)]:
                if segment is None:
                    return None
                if side > 0:
                    if neighbor is not None and neighbor in push_set:
                        b = extreme[neighbor] - egm[ccode][codes[neighbor]] - w_c
                    elif neighbor is not None:
                        b = px[neighbor] - egm[ccode][codes[neighbor]] - w_c
                    else:
                        limit = segment.x_hi
                        outside = occupancy.right_neighbor(row, segment.x_hi)
                        if outside is not None:
                            lim2 = px[outside] - egm[ccode][codes[outside]]
                            if lim2 < limit:
                                limit = lim2
                        b = limit - w_c
                    if best is None or b < best:
                        best = b
                else:
                    if neighbor is not None and neighbor in push_set:
                        b = (
                            extreme[neighbor]
                            + widths[neighbor]
                            + egm[codes[neighbor]][ccode]
                        )
                    elif neighbor is not None:
                        b = (
                            px[neighbor]
                            + widths[neighbor]
                            + egm[codes[neighbor]][ccode]
                        )
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
                    if best is None or b > best:
                        best = b
            assert best is not None
            extreme[cell] = best
            if side > 0:
                if best < px[cell] - 1e-9:
                    return None  # Already violates: cannot even stay put.
            elif best > px[cell] + 1e-9:
                return None

        # 4. The target's limit.
        limit_val: Optional[int] = None
        for gap in gaps:
            if side > 0:
                rc = gap.right_cell
                if rc is not None:
                    v = extreme[rc] - egm[tcode][codes[rc]] - width_t
                else:
                    rw = gap.right_wall_cell
                    wall_gap = egm[tcode][codes[rw]] if rw is not None else 0
                    v = gap.right_bound - wall_gap - width_t
                if limit_val is None or v < limit_val:
                    limit_val = v
            else:
                lc = gap.left_cell
                if lc is not None:
                    v = extreme[lc] + widths[lc] + egm[codes[lc]][tcode]
                else:
                    lw = gap.left_wall_cell
                    wall_gap = egm[codes[lw]][tcode] if lw is not None else 0
                    v = gap.left_bound + wall_gap
                if limit_val is None or v > limit_val:
                    limit_val = v
        assert limit_val is not None
        return offsets, limit_val

    def _finish_fast(
        self,
        bottom_row: int,
        gaps: Sequence["Gap"],
        right_offsets: Dict[int, int],
        right_limit: float,
        left_offsets: Dict[int, int],
        left_limit: float,
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

    def _cells_slice(
        self, row: int, segment: Segment
    ) -> Tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
    ]:
        """Array mirror of ``Occupancy.cells_in_range(row, x_lo, x_hi)``.

        Bisect on the x-sorted snapshot plus the one cell that may
        overhang the range start from the left.
        """
        soa = self.soa
        xs_all, cells_all, ys_all = soa.row_arrays(row)
        lo_i = int(np.searchsorted(xs_all, segment.x_lo, side="left"))
        if lo_i > 0:
            prev = int(cells_all[lo_i - 1])
            if int(xs_all[lo_i - 1]) + int(soa.widths[prev]) > segment.x_lo:
                lo_i -= 1
        hi_i = int(np.searchsorted(xs_all, segment.x_hi, side="left"))
        return xs_all[lo_i:hi_i], cells_all[lo_i:hi_i], ys_all[lo_i:hi_i]

    def _local_mask(
        self,
        xs: npt.NDArray[np.int64],
        cells: npt.NDArray[np.int64],
        ys: npt.NDArray[np.int64],
        widths: npt.NDArray[np.int64],
    ) -> npt.NDArray[np.bool_]:
        """Vectorized :meth:`InsertionContext.is_local`: movable and
        entirely inside the window (exact comparisons; ints vs float
        bounds)."""
        soa = self.soa
        window = self.context.window
        heights = soa.heights[cells]
        return (
            ~soa.fixed[cells]
            & (window.xlo <= xs)
            & (xs + widths <= window.xhi)
            & (window.ylo <= ys)
            & (ys + heights <= window.yhi)
        )

    # ------------------------------------------------------------------
    # Gap enumeration
    # ------------------------------------------------------------------

    def gaps_in_segment(self, row: int, segment: Segment) -> List["Gap"]:
        """Array-backed twin of :meth:`InsertionContext._gaps_in_segment`.

        The scalar rough bounds are float accumulations of integer
        pitches — every intermediate is an exact integer — so computing
        them as int64 prefix/suffix sums and converting once yields the
        same floats.  Runs, walls, filters and emission order mirror the
        scalar walk clause for clause; list equality is pinned by
        tests/test_soa_equivalence.py.
        """
        context = self.context
        soa = self.soa
        occupancy = context.occupancy
        placement = occupancy.placement
        window = context.window

        xs, cells, ys = self._cells_slice(row, segment)
        widths = soa.widths[cells]
        local = self._local_mask(xs, cells, ys, widths)

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

        cells_list: List[int] = cells.tolist()
        local_list: List[bool] = local.tolist()
        xs_list: List[int] = xs.tolist()
        widths_list: List[int] = widths.tolist()

        gaps: List["Gap"] = []
        width_t = self._width_t
        total = len(cells_list)
        index = 0
        lwall: Optional[int] = None
        run_lo = left_bound
        while True:
            start = index
            while index < total and local_list[index]:
                index += 1
            if index < total:
                rwall: Optional[int] = cells_list[index]
                run_hi = xs_list[index]
            else:
                rwall = None
                run_hi = right_cap
            if run_hi - run_lo >= width_t and not (
                run_hi <= window.xlo or run_lo >= window.xhi
            ):
                self._emit_run_gaps(
                    gaps, row, segment, cells, widths, cells_list,
                    start, index, run_lo, run_hi, lwall, rwall,
                )
            if index >= total:
                return gaps
            run_lo = xs_list[index] + widths_list[index]
            lwall = cells_list[index]
            index += 1

    def _emit_run_gaps(
        self,
        gaps: List["Gap"],
        row: int,
        segment: Segment,
        cells: npt.NDArray[np.int64],
        widths: npt.NDArray[np.int64],
        cells_list: List[int],
        start: int,
        end: int,
        run_lo: int,
        run_hi: int,
        lwall: Optional[int],
        rwall: Optional[int],
    ) -> None:
        """Append one run's gaps: batched twin of ``_make_gap``.

        For gap index ``i`` over run cells ``c_0..c_{n-1}``, the scalar
        compress-left walk gives ``lo[i] = run_lo + sum(add[:i]) +
        eg(c_{i-1}, t)`` with ``add[j] = eg(prev_j, c_j) + w(c_j)``, and
        the compress-right walk ``hi[i] = run_hi - sum(sub[i:]) - w_t -
        eg(t, c_i)`` with ``sub[j] = w(c_j) + eg(c_j, next_j)`` — plain
        cumsums.
        """
        context = self.context
        soa = self.soa
        matrix = soa.edge_gap_matrix
        type_codes = soa.type_codes
        tcode = self._target_code
        width_t = self._width_t
        gap_cls = self._gap_cls
        n = end - start
        # eg(lwall, target) / eg(target, rwall) at the run ends.
        lw_t = int(matrix[type_codes[lwall], tcode]) if lwall is not None else 0
        t_rw = int(matrix[tcode, type_codes[rwall]]) if rwall is not None else 0
        if n == 0:
            lo0 = float(run_lo + lw_t)
            hi0 = float(run_hi - width_t - t_rw)
            if lo0 <= hi0:
                gaps.append(gap_cls(
                    row=row, segment=segment,
                    left_cell=None, right_cell=None,
                    left_bound=run_lo, right_bound=run_hi,
                    left_wall_cell=lwall, right_wall_cell=rwall,
                    lo_rough=lo0, hi_rough=hi0,
                ))
            return

        rcells = cells[start:end]
        rcodes = type_codes[rcells]
        rws = widths[start:end]
        add = rws.copy()
        sub = rws.copy()
        if n > 1:
            egn = matrix[rcodes[:-1], rcodes[1:]]
            add[1:] += egn
            sub[:-1] += egn
        if lwall is not None:
            add[0] += matrix[type_codes[lwall], rcodes[0]]
        if rwall is not None:
            sub[-1] += matrix[rcodes[-1], type_codes[rwall]]
        lo_arr = np.empty(n + 1, dtype=np.int64)
        lo_arr[0] = run_lo + lw_t
        lo_arr[1:] = (run_lo + np.cumsum(add)) + matrix[rcodes, tcode]
        hi_arr = np.empty(n + 1, dtype=np.int64)
        suffix = np.cumsum(sub[::-1])[::-1]
        hi_arr[:n] = ((run_hi - width_t) - suffix) - matrix[tcode, rcodes]
        hi_arr[n] = run_hi - width_t - t_rw
        lo_list: List[float] = lo_arr.astype(np.float64).tolist()
        hi_list: List[float] = hi_arr.astype(np.float64).tolist()

        run_cells = cells_list[start:end]
        left_c: Optional[int] = None
        for i in range(n + 1):
            right_c = run_cells[i] if i < n else None
            lo_v = lo_list[i]
            hi_v = hi_list[i]
            if lo_v <= hi_v:
                gaps.append(gap_cls(
                    row=row, segment=segment,
                    left_cell=left_c, right_cell=right_c,
                    left_bound=run_lo, right_bound=run_hi,
                    left_wall_cell=lwall, right_wall_cell=rwall,
                    lo_rough=lo_v, hi_rough=hi_v,
                ))
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
        n = run.n
        cells = run.cells
        q = run.q

        if gi < n:
            if not run.feas_r[gi]:
                return True, None
            base = width_t + run.egt_right[gi]
            q_gi = q[gi]
            right_offsets = {
                cells[j]: base + q[j] - q_gi for j in range(gi, n)
            }
            right_limit = run.ext_r[gi] - run.egt_right[gi] - width_t
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
            if not run.feas_l[k]:
                return True, None
            base = run.ws[k] + run.egt_left[k]
            q_k = q[k]
            left_offsets = {
                cells[j]: base + q_k - q[j] for j in range(k, -1, -1)
            }
            left_limit = run.ext_l[k] + run.ws[k] + run.egt_left[k]
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

        Precondition for a run's fast path: every local cell in it is
        height 1 and lies entirely inside the segment, so its push DAG
        is the run chain and its only wall is the run boundary.  Walls
        (non-local cells) may be any shape, and a violating run only
        disqualifies itself — push never crosses a wall, so the other
        runs in the segment keep their tables.
        """
        soa = self.soa
        xs, cells, ys = self._cells_slice(row, segment)
        widths = soa.widths[cells]
        heights = soa.heights[cells]
        local = self._local_mask(xs, cells, ys, widths)
        bad = local & (
            (heights != 1) | (xs < segment.x_lo) | (xs + widths > segment.x_hi)
        )

        cells_list: List[int] = cells.tolist()
        local_list: List[bool] = local.tolist()
        bad_list: List[bool] = bad.tolist()
        runs: List[Optional[_Run]] = []
        pos: Dict[int, Tuple[int, int]] = {}
        index = 0
        total = len(cells_list)
        prev_wall: Optional[int] = None
        while index < total:
            if not local_list[index]:
                prev_wall = cells_list[index]
                index += 1
                continue
            start = index
            while index < total and local_list[index]:
                index += 1
            next_wall = cells_list[index] if index < total else None
            if any(bad_list[start:index]):
                run: Optional[_Run] = None
            else:
                run = self._build_run(
                    row, segment,
                    cells[start:index], xs[start:index],
                    prev_wall, next_wall,
                )
            run_index = len(runs)
            runs.append(run)
            for offset, cell in enumerate(cells_list[start:index]):
                pos[cell] = (run_index, offset)
        return _SegTable(runs=runs, pos=pos)

    def _build_run(
        self,
        row: int,
        segment: Segment,
        cells: npt.NDArray[np.int64],
        xs: npt.NDArray[np.int64],
        lwall: Optional[int],
        rwall: Optional[int],
    ) -> _Run:
        """Prefix sums, extremes and feasibility of one run (all ints)."""
        context = self.context
        soa = self.soa
        placement = context.occupancy.placement
        matrix = soa.edge_gap_matrix
        codes = soa.type_codes[cells]
        widths = soa.widths[cells]
        n = len(cells)
        tcode = self._target_code
        egt_right = matrix[tcode, codes]  # eg(target, c_k)
        egt_left = matrix[codes, tcode]   # eg(c_k, target)

        # Pitches t_k between run neighbors and their prefix sums Q.
        if n > 1:
            pitch = widths[:-1] + matrix[codes[:-1], codes[1:]]
        else:
            pitch = np.zeros(0, dtype=np.int64)
        q = np.zeros(n, dtype=np.int64)
        np.cumsum(pitch, out=q[1:])

        # Right wall base: the extreme of the last cell plus its width.
        # Identical to the scalar walk's wall branch, including the
        # cross-boundary edge rule when the run ends at the segment.
        last = int(cells[-1])
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
        # suffix[k] = sum(pitch[k:]); ext_r walks inward from the wall.
        suffix = np.concatenate(
            [np.cumsum(pitch[::-1])[::-1], np.zeros(1, dtype=np.int64)]
        )
        ext_r = (wall_base_r - int(widths[-1])) - suffix
        feas_r = np.minimum.accumulate((ext_r - xs)[::-1])[::-1] >= 0

        first = int(cells[0])
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
        ext_l = wall_base_l + q
        feas_l = np.minimum.accumulate(xs - ext_l) >= 0

        return _Run(
            n=n,
            cells=cells.tolist(),
            ws=widths.tolist(),
            q=q.tolist(),
            egt_right=egt_right.tolist(),
            egt_left=egt_left.tolist(),
            ext_r=ext_r.tolist(),
            ext_l=ext_l.tolist(),
            feas_r=feas_r.tolist(),
            feas_l=feas_l.tolist(),
        )
