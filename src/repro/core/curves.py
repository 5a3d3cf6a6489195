"""Piecewise-linear displacement curves (paper §3.1, Fig. 4).

When MGL evaluates an insertion point, every *local cell* contributes a
curve mapping the target cell's x position to the displacement that cell
would incur (measured from its **global-placement** position).  Local
cells right of the insertion point are only ever pushed right, cells left
of it only pushed left; whether their GP position lies before or behind
their current position yields the four curve types of Fig. 4:

=====  =====================  ====================================
type   slope pattern          meaning
=====  =====================  ====================================
A      ``0, +w``              right cell, GP at/left of current
B      ``-w, 0``              left cell, GP at/right of current
C      ``0, -w, +w``          right cell, GP right of current
D      ``-w, +w, 0``          left cell, GP left of current
V      ``-w, +w``             the target cell itself
=====  =====================  ====================================

The turning points (*breakpoints*) are either MLL's *critical positions*
(where pushing starts) or positions derived from GP locations.  Curves
sum by merging breakpoints (Alg. 1 lines 3-7); the optimum over a site
range is found by a linear sweep over the merged breakpoints.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.model.approx import approx_eq, is_zero


@dataclass(frozen=True)
class DisplacementCurve:
    """A piecewise-linear function of the target cell's x position.

    The function is defined by an anchor point ``(anchor_x, anchor_value)``,
    the slope ``initial_slope`` valid for ``x <= first breakpoint``, and
    sorted ``breakpoints`` as ``(x, slope_delta)`` pairs.  The anchor may
    lie anywhere; evaluation integrates the slope from it.

    Instances are immutable; build them with the factory methods below.
    """

    anchor_x: float
    anchor_value: float
    initial_slope: float
    breakpoints: Tuple[Tuple[float, float], ...] = ()

    # ------------------------------------------------------------------
    # Factories (the Fig. 4 curve types)
    # ------------------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "DisplacementCurve":
        """A constant curve (cells unaffected by the target)."""
        return DisplacementCurve(0.0, value, 0.0, ())

    @staticmethod
    def target(gp_x: float, weight: float = 1.0) -> "DisplacementCurve":
        """The target cell's own V-curve ``weight * |x - gp_x|``."""
        return DisplacementCurve(gp_x, 0.0, -weight, ((gp_x, 2.0 * weight),))

    @staticmethod
    def pushed_right(
        current_x: float, gp_x: float, offset: float, weight: float = 1.0
    ) -> "DisplacementCurve":
        """Curve of a local cell on the right of the insertion point.

        The cell's new position is ``max(current_x, x_t + offset)`` where
        ``offset`` is the target width plus the widths (and required gaps)
        of cells between the target and this cell.  Produces type A when
        ``gp_x <= current_x`` and type C otherwise.
        """
        critical = current_x - offset  # Pushing starts beyond this x_t.
        base = weight * abs(current_x - gp_x)
        if gp_x <= current_x:  # Type A: flat, then slope +w.
            return DisplacementCurve(critical, base, 0.0, ((critical, weight),))
        # Type C: flat, slope -w down to zero at x_t = gp_x - offset, then +w.
        turn = gp_x - offset
        return DisplacementCurve(
            critical, base, 0.0, ((critical, -weight), (turn, 2.0 * weight))
        )

    @staticmethod
    def pushed_left(
        current_x: float, gp_x: float, offset: float, weight: float = 1.0
    ) -> "DisplacementCurve":
        """Curve of a local cell on the left of the insertion point.

        The cell's new position is ``min(current_x, x_t - offset)`` where
        ``offset`` is this cell's width plus the widths (and gaps) of cells
        between it and the target.  Produces type B when
        ``gp_x >= current_x`` and type D otherwise.
        """
        critical = current_x + offset  # Pushing happens below this x_t.
        base = weight * abs(current_x - gp_x)
        if gp_x >= current_x:  # Type B: slope -w, then flat.
            return DisplacementCurve(critical, base, -weight, ((critical, weight),))
        # Type D: slope -w, +w at x_t = gp_x + offset, flat past critical.
        turn = gp_x + offset
        return DisplacementCurve(
            critical, base, -weight, ((turn, 2.0 * weight), (critical, -weight))
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def value(self, x: float) -> float:
        """Evaluate the curve at ``x``."""
        # Integrate slope from the anchor to x.
        if x >= self.anchor_x:
            total = self.anchor_value
            position = self.anchor_x
            slope = self._slope_at_anchor()
            for bp_x, delta in self.breakpoints:
                if bp_x <= self.anchor_x:
                    continue
                if bp_x >= x:
                    break
                total += slope * (bp_x - position)
                position = bp_x
                slope += delta
            return total + slope * (x - position)
        # x < anchor: integrate backwards.  `slope` is always the slope
        # valid on the segment immediately LEFT of breakpoints already
        # crossed, i.e. right of the current sweep position.
        total = self.anchor_value
        position = self.anchor_x
        slope = self._slope_at_anchor()
        for bp_x, delta in reversed(self.breakpoints):
            if bp_x > self.anchor_x:
                continue
            if bp_x >= position:
                # Breakpoint at the anchor itself: cross it without moving.
                slope -= delta
                continue
            segment_lo = max(bp_x, x)
            total -= slope * (position - segment_lo)
            position = segment_lo
            if bp_x <= x:
                return total
            slope -= delta
        return total - slope * (position - x)

    def _slope_at_anchor(self) -> float:
        """Slope valid immediately right of the anchor."""
        slope = self.initial_slope
        for bp_x, delta in self.breakpoints:
            if bp_x <= self.anchor_x:
                slope += delta
        return slope

    def slope_pattern(self) -> List[float]:
        """The sequence of slopes across all pieces (for type checks)."""
        slopes = [self.initial_slope]
        for _, delta in self.breakpoints:
            slopes.append(slopes[-1] + delta)
        return slopes

    def curve_type(self) -> str:
        """Classify per Fig. 4 ('A', 'B', 'C', 'D'), 'V', or 'other'."""
        pattern = self.slope_pattern()
        signs = [0 if is_zero(s) else (1 if s > 0 else -1) for s in pattern]
        if signs == [0, 1]:
            return "A"
        if signs == [-1, 0]:
            return "B"
        if signs == [0, -1, 1]:
            return "C"
        if signs == [-1, 1, 0]:
            return "D"
        if signs == [-1, 1]:
            return "V"
        if signs == [0]:
            return "constant"
        return "other"

    def is_convex(self) -> bool:
        """True when every slope delta is non-negative."""
        return all(delta >= 0 for _, delta in self.breakpoints)


def sum_curves(curves: Sequence[DisplacementCurve]) -> DisplacementCurve:
    """Sum curves by merging breakpoints (paper Alg. 1 lines 3-7)."""
    if not curves:
        return DisplacementCurve.constant(0.0)
    anchor_x = min(curve.anchor_x for curve in curves)
    anchor_value = sum(curve.value(anchor_x) for curve in curves)
    initial_slope = sum(curve.initial_slope for curve in curves)
    merged: List[Tuple[float, float]] = []
    for curve in curves:
        merged.extend(curve.breakpoints)
    merged.sort()
    # Coalesce equal-x breakpoints (epsilon-tolerant: breakpoints derive
    # from float GP coordinates, so on-paper-equal x values can differ by
    # rounding; keeping them distinct would split one kink into two).
    coalesced: List[Tuple[float, float]] = []
    for bp_x, delta in merged:
        if coalesced and approx_eq(coalesced[-1][0], bp_x):
            coalesced[-1] = (coalesced[-1][0], coalesced[-1][1] + delta)
        else:
            coalesced.append((bp_x, delta))
    return DisplacementCurve(anchor_x, anchor_value, initial_slope, tuple(coalesced))


def minimize_over_sites(
    curves: Sequence[DisplacementCurve],
    lo: float,
    hi: float,
) -> Optional[Tuple[int, float]]:
    """Minimize the summed curve over integer sites in ``[lo, hi]``.

    Because the sum is piecewise linear, its minimum over any interval is
    attained at an interval end or a breakpoint; over integer sites, at
    the floor/ceil of those candidates.  Returns ``(best_x, best_cost)``
    or ``None`` when no integer site lies in the range.  Ties prefer the
    smaller x (deterministic).
    """
    lo_site = math.ceil(lo)
    hi_site = math.floor(hi)
    if lo_site > hi_site:
        return None

    total = sum_curves(curves)
    candidates = {lo_site, hi_site}
    for bp_x, _ in total.breakpoints:
        for candidate in (math.floor(bp_x), math.ceil(bp_x)):
            if lo_site <= candidate <= hi_site:
                candidates.add(candidate)

    best_x = None
    best_cost = math.inf
    for x in sorted(candidates):
        cost = total.value(x)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_x = x
    assert best_x is not None
    return best_x, best_cost


class CurveSet:
    """A summed curve compiled for fast repeated evaluation.

    :meth:`DisplacementCurve.value` re-walks every breakpoint from the
    anchor on each call, which makes the MGL hot path — one minimization
    plus up to ``2 * GUARD_MAX_SHIFT`` guard probes per insertion point —
    quadratic in the breakpoint count.  ``CurveSet`` runs ``sum_curves``
    once and replays the forward and backward sweeps a single time,
    checkpointing the running ``(total, slope, position)`` state at every
    breakpoint into plain lists; evaluating at ``x`` is then a binary
    search plus one multiply-add.

    Bit-exactness contract: each checkpoint is produced by the *same
    sequence of float operations* the reference walk performs up to that
    breakpoint, and the final multiply-add is the reference's last step,
    so ``CurveSet(curves).value(x) == sum_curves(curves).value(x)`` to
    the last bit, and :meth:`minimize` returns exactly what
    :func:`minimize_over_sites` would (property-tested in
    tests/test_perf_equivalence.py).  This is what lets the insertion
    engine switch to the compiled path without perturbing placements.
    """

    def __init__(self, curves: Sequence[DisplacementCurve]):
        self._compile(sum_curves(curves))

    def _compile(self, total: DisplacementCurve) -> None:
        self.total = total
        anchor_x = total.anchor_x
        slope = total._slope_at_anchor()
        # Forward sweep (x >= anchor): state after fully crossing the
        # k-th breakpoint right of the anchor.
        fwd_x: List[float] = []
        fwd_total: List[float] = [total.anchor_value]
        fwd_slope: List[float] = [slope]
        fwd_pos: List[float] = [anchor_x]
        running = total.anchor_value
        position = anchor_x
        for bp_x, delta in total.breakpoints:
            if bp_x <= anchor_x:
                continue
            running = running + slope * (bp_x - position)
            position = bp_x
            slope = slope + delta
            fwd_x.append(bp_x)
            fwd_total.append(running)
            fwd_slope.append(slope)
            fwd_pos.append(position)
        # Backward sweep (x < anchor): the reference first crosses any
        # breakpoints sitting exactly on the anchor (slope-only), then
        # subtracts one full segment per strictly-left breakpoint.  The
        # k-th checkpoint is the state after k full segments.
        slope = total._slope_at_anchor()
        running = total.anchor_value
        position = anchor_x
        bwd_x: List[float] = []  # descending mover breakpoints
        bwd_total: List[float] = []
        bwd_slope: List[float] = []
        bwd_pos: List[float] = []
        for bp_x, delta in reversed(total.breakpoints):
            if bp_x > anchor_x:
                continue
            if bp_x >= position:
                slope = slope - delta
                continue
            if not bwd_x:
                bwd_total.append(running)
                bwd_slope.append(slope)
                bwd_pos.append(position)
            running = running - slope * (position - bp_x)
            position = bp_x
            slope = slope - delta
            bwd_x.append(bp_x)
            bwd_total.append(running)
            bwd_slope.append(slope)
            bwd_pos.append(position)
        if not bwd_x:
            bwd_total.append(running)
            bwd_slope.append(slope)
            bwd_pos.append(position)

        self._anchor_x = anchor_x
        self._fwd_x = fwd_x
        self._fwd_total = fwd_total
        self._fwd_slope = fwd_slope
        self._fwd_pos = fwd_pos
        self._bwd_x_asc = bwd_x[::-1]  # ascending, for bisect
        self._bwd_count = len(bwd_x)
        self._bwd_total = bwd_total
        self._bwd_slope = bwd_slope
        self._bwd_pos = bwd_pos

    def value(self, x: float) -> float:
        """Evaluate the summed curve at ``x`` (bit-equal to the reference)."""
        if x >= self._anchor_x:
            j = bisect_left(self._fwd_x, x)
            return float(
                self._fwd_total[j] + self._fwd_slope[j] * (x - self._fwd_pos[j])
            )
        k = self._bwd_count - bisect_right(self._bwd_x_asc, x)
        return float(
            self._bwd_total[k] - self._bwd_slope[k] * (self._bwd_pos[k] - x)
        )

    def minimize(self, lo: float, hi: float) -> Optional[Tuple[int, float]]:
        """Exactly :func:`minimize_over_sites`, using the compiled tables."""
        lo_site = math.ceil(lo)
        hi_site = math.floor(hi)
        if lo_site > hi_site:
            return None
        candidates = {lo_site, hi_site}
        for bp_x, _ in self.total.breakpoints:
            for candidate in (math.floor(bp_x), math.ceil(bp_x)):
                if lo_site <= candidate <= hi_site:
                    candidates.add(candidate)
        best_x: Optional[int] = None
        best_cost = math.inf
        for x in sorted(candidates):
            cost = self.value(x)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_x = x
        assert best_x is not None
        return best_x, best_cost
