"""Routability-driven refinement hooks (paper §3.4).

The :class:`RoutabilityGuard` packages the three rail/IO interactions the
paper weaves into MGL:

* **horizontal rails** — a row whose P/G stripe would short a pin or
  block its access is not a valid insertion row (``row_ok``);
* **vertical rails** — when the curve optimum collides with a vertical
  stripe, nearby positions are examined until a least-cost clean site is
  found (``adjust_x``);
* **IO pins** — overlaps are allowed but penalized (``io_penalty_at``).

It also computes the violation-free *feasible range* ``[l_i, r_i]`` each
cell is confined to during the fixed-row-fixed-order optimization, which
is how stage 3 avoids creating new pin violations.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.rails import Rail
from repro.model.technology import CellType

#: A (cell pin, IO pin) pair that can overlap on one row, as
#: ``(pin_xlo, pin_xhi, io_xlo, io_xhi)`` in length units.
IOPair = Tuple[float, float, float, float]

#: What :meth:`RoutabilityGuard.adjust_x_planned` reads for one (cell
#: type, row): ``x_blocked`` for every left-edge site ``0..num_sites``,
#: and the row's :meth:`RoutabilityGuard._io_pairs`.
WalkPlan = Tuple[List[bool], List[IOPair]]


class _GuardCaches(threading.local):
    """Per-thread memo caches for the guard's pure queries.

    One :class:`RoutabilityGuard` is shared by every evaluation, and
    ``evaluate_insert`` is contract-pure: repro-lint C002 rejects any
    write to shared state it can reach.  A ``threading.local`` store is
    private to its thread by construction, which is what lets these
    memo writes sit under that contract.  Every cached value is a pure
    function of its key, so memoization changes no answer.
    """

    def __init__(self) -> None:
        self.row_ok: Dict[Tuple[str, int], bool] = {}
        self.x_blocked: Dict[Tuple[str, bool, int], bool] = {}
        self.io_pairs: Dict[Tuple[str, int], List[IOPair]] = {}
        # Walk plans of adjust_x_planned and feasible_range: x_blocked
        # over every site per (type, flip), and per (type, row) that list
        # with the io_pairs.
        self.blocked_sites: Dict[Tuple[str, bool], List[bool]] = {}
        self.plans: Dict[Tuple[str, int], WalkPlan] = {}


class RoutabilityGuard:
    """Cached rail/IO conflict queries for one design."""

    def __init__(self, design: Design, params: Optional[LegalizerParams] = None):
        self.design = design
        self.params = params or LegalizerParams()
        self._caches = _GuardCaches()
        # The x_blocked cache drops the row when every vertical stripe
        # runs the chip's full height (the standard grid does).
        chip_y = design.chip_rect_length_units.y_interval
        self._x_cacheable = all(
            rail.extent.lo <= chip_y.lo and rail.extent.hi >= chip_y.hi
            for rail in design.rails.rails
            if rail.orientation == "v"
        )
        # The adjust_x visit order [0, +1, -1, ..., +max, -max] as offsets.
        self._walk_deltas = [0]
        for shift in range(1, self.params.guard_max_shift + 1):
            self._walk_deltas += [shift, -shift]

    # ------------------------------------------------------------------
    # Pin geometry
    # ------------------------------------------------------------------

    def _is_flipped(self, cell_type: CellType, row: int) -> bool:
        """Mirror odd-height cells on off-parity rows (P/G alignment)."""
        if cell_type.parity_constrained:
            return False
        return row % 2 != self.design.power_parity

    def _local_pin_rects(
        self, cell_type: CellType, row: int
    ) -> List[Tuple[int, Rect]]:
        """(layer, rect) of each signal pin in cell coordinates at ``row``.

        The rects are mirrored vertically when the cell is flipped there.
        """
        height_len = cell_type.height * self.design.row_height
        flipped = self._is_flipped(cell_type, row)
        rects: List[Tuple[int, Rect]] = []
        for pin in cell_type.pins:
            rect = pin.rect
            if flipped:
                rect = Rect(
                    rect.xlo, height_len - rect.yhi, rect.xhi, height_len - rect.ylo
                )
            rects.append((pin.layer, rect))
        return rects

    def pin_rects_at(
        self, cell_type: CellType, row: int, x: float
    ) -> List[Tuple[int, Rect]]:
        """(layer, rect) of each signal pin for a placement at ``(x, row)``."""
        x_len = x * self.design.site_width
        y_len = row * self.design.row_height
        return [
            (layer, rect.translated(x_len, y_len))
            for layer, rect in self._local_pin_rects(cell_type, row)
        ]

    # ------------------------------------------------------------------
    # Horizontal rails: row validity
    # ------------------------------------------------------------------

    def row_ok(self, cell_type: CellType, row: int) -> bool:
        """False when a horizontal rail shorts/blocks a pin on this row.

        Horizontal stripes run the full chip width, so the conflict
        depends only on the cell type and its row (and flip) — cached.
        """
        if not cell_type.pins:
            return True
        key = (cell_type.name, row)
        cached = self._caches.row_ok.get(key)
        if cached is not None:
            return cached
        rails = self.design.rails
        ok = True
        for layer, rect in self.pin_rects_at(cell_type, row, 0.0):
            if rails.horizontal_blocked(layer, rect.ylo, rect.yhi):
                ok = False
                break
            if rails.horizontal_blocked(layer + 1, rect.ylo, rect.yhi):
                ok = False
                break
        self._caches.row_ok[key] = ok
        return ok

    # ------------------------------------------------------------------
    # Vertical rails and IO pins: x selection
    # ------------------------------------------------------------------

    def x_blocked(self, cell_type: CellType, row: int, x: int) -> bool:
        """True when a vertical rail shorts/blocks some pin at ``(x, row)``.

        Vertical stripes run the full chip height, so (given the flip
        state) the answer depends only on the cell type and x — cached.
        """
        if not cell_type.pins:
            return False
        key = (cell_type.name, self._is_flipped(cell_type, row), int(x))
        if self._x_cacheable:
            cached = self._caches.x_blocked.get(key)
            if cached is not None:
                return cached
        rails = self.design.rails
        blocked = False
        for layer, rect in self.pin_rects_at(cell_type, row, x):
            for rail in rails.rails:
                if rail.orientation != "v":
                    continue
                if rail.layer in (layer, layer + 1) and rail.overlaps_rect(rect):
                    blocked = True
                    break
            if blocked:
                break
        if self._x_cacheable:
            self._caches.x_blocked[key] = blocked
        return blocked

    def _io_pairs(self, cell_type: CellType, row: int) -> List[IOPair]:
        """(pin, IO pin) pairs that can overlap at ``row``, x-precomputed.

        The layer and y-overlap tests of :meth:`io_penalty_at` depend
        only on the cell type and row, so they are resolved once here;
        what remains per query is the x test on the surviving pairs,
        stored as ``(pin_xlo, pin_xhi, io_xlo, io_xhi)`` in length units.
        The x test applies the same "translate then compare" arithmetic
        as ``Rect.overlaps`` on ``rect.translated(x_len, y_len)``, so
        counts are bit-identical to the pairwise reference.
        """
        key = (cell_type.name, row)
        cached = self._caches.io_pairs.get(key)
        if cached is not None:
            return cached
        y_len = row * self.design.row_height
        pairs: List[IOPair] = []
        for layer, rect in self._local_pin_rects(cell_type, row):
            ylo = rect.ylo + y_len
            yhi = rect.yhi + y_len
            for io_pin in self.design.rails.io_pins:
                if io_pin.layer not in (layer, layer + 1):
                    continue
                if not (io_pin.rect.ylo < yhi and ylo < io_pin.rect.yhi):
                    continue
                pairs.append((rect.xlo, rect.xhi, io_pin.rect.xlo, io_pin.rect.xhi))
        self._caches.io_pairs[key] = pairs
        return pairs

    def io_penalty_at(self, cell_type: CellType, row: int, x: int) -> float:
        """Penalty for IO-pin overlaps of any pin at ``(x, row)``."""
        if not cell_type.pins:
            return 0.0
        pairs = self._io_pairs(cell_type, row)
        if not pairs:
            return 0.0
        return self._io_overlaps(pairs, x) * self.params.io_penalty

    def _io_overlaps(self, pairs: List[IOPair], x: int) -> int:
        """How many of ``pairs`` overlap for a placement at site ``x``."""
        x_len = x * self.design.site_width
        count = 0
        for pin_xlo, pin_xhi, io_xlo, io_xhi in pairs:
            if io_xlo < pin_xhi + x_len and pin_xlo + x_len < io_xhi:
                count += 1
        return count

    def adjust_x(
        self,
        cell_type: CellType,
        row: int,
        x_opt: int,
        lo: int,
        hi: int,
        cost_at: Callable[[float], float],
    ) -> Tuple[int, float]:
        """Pick the cheapest clean x near the curve optimum.

        Walks outward from ``x_opt`` (alternating sides, nearest first) up
        to ``guard_max_shift`` sites; among vertical-rail-clean candidates
        the one minimizing ``cost_at(x) + io_penalty`` wins.  When every
        candidate is blocked, the optimum is kept with ``blocked_penalty``
        added (the soft-constraint semantics of §2).
        """
        best_x: Optional[int] = None
        best_total = math.inf
        for offset in range(0, self.params.guard_max_shift + 1):
            for candidate in ((x_opt + offset, x_opt - offset) if offset else (x_opt,)):
                if candidate < lo or candidate > hi:
                    continue
                if self.x_blocked(cell_type, row, candidate):
                    continue
                total = cost_at(candidate) + self.io_penalty_at(cell_type, row, candidate)
                if total < best_total - 1e-12:
                    best_total = total
                    best_x = candidate
            # All remaining candidates are farther, hence costlier on a
            # convex-ish curve; but IO penalties are lumpy, so we scan the
            # full shift budget rather than early-exit.
        if best_x is None:
            penalty = self.params.blocked_penalty + self.io_penalty_at(
                cell_type, row, x_opt
            )
            return x_opt, penalty
        return best_x, best_total - cost_at(best_x)

    # ------------------------------------------------------------------
    # Planned guard walk (the vector backend's adjust_x)
    # ------------------------------------------------------------------

    def _walk_plan(self, cell_type: CellType, row: int) -> Optional[WalkPlan]:
        """The lazily built :data:`WalkPlan` of ``cell_type`` at ``row``.

        The blocked list (:meth:`_blocked_sites`) is built once per
        (type, flip) and shared by every row of that flip state, which
        is exact only when ``x_blocked`` ignores the row: for pinless
        types, or when every vertical stripe spans the chip height.
        Otherwise None is returned.  The IO pairs are per (type, row).
        """
        if cell_type.pins and not self._x_cacheable:
            return None
        caches = self._caches
        key = (cell_type.name, row)
        plan = caches.plans.get(key)
        if plan is None:
            flip = (cell_type.name, self._is_flipped(cell_type, row))
            blocked = caches.blocked_sites.get(flip)
            if blocked is None:
                blocked = self._blocked_sites(cell_type, row)
                caches.blocked_sites[flip] = blocked
            plan = (blocked, self._io_pairs(cell_type, row))
            caches.plans[key] = plan
        return plan

    def _blocked_sites(self, cell_type: CellType, row: int) -> List[bool]:
        """``x_blocked(cell_type, row, x)`` for every site ``0..num_sites``.

        One pass instead of one ``x_blocked`` call per site: each pin's
        (flipped) rect, the vertical rails on its layer or the layer
        above, and the row-only half of ``Rail.overlaps_rect``
        (``Rail.overlaps_extent`` on the pin's y span) are resolved
        once.  Per site only the other half,
        ``rail.overlaps_interval(xlo + x_len, xhi + x_len)``, remains:
        the same calls on the same floats ``x_blocked`` reaches through
        ``Rect.translated``, so every entry equals ``x_blocked``.
        """
        design = self.design
        blocked = [False] * (design.num_sites + 1)
        if not cell_type.pins:
            return blocked
        y_len = row * design.row_height
        vertical = [rail for rail in design.rails.rails if rail.orientation == "v"]
        checks: List[Tuple[float, float, Rail]] = []
        for layer, rect in self._local_pin_rects(cell_type, row):
            ylo = rect.ylo + y_len
            yhi = rect.yhi + y_len
            for rail in vertical:
                if rail.layer in (layer, layer + 1) and rail.overlaps_extent(ylo, yhi):
                    checks.append((rect.xlo, rect.xhi, rail))
        if not checks:
            return blocked
        site_width = design.site_width
        for x in range(len(blocked)):
            x_len = x * site_width
            for xlo, xhi, rail in checks:
                if rail.overlaps_interval(xlo + x_len, xhi + x_len):
                    blocked[x] = True
                    break
        return blocked

    def adjust_x_planned(
        self,
        cell_type: CellType,
        row: int,
        x_opt: int,
        lo: int,
        hi: int,
        cost_at: Callable[[float], float],
    ) -> Tuple[int, float]:
        """Bit-identical :meth:`adjust_x` over the cached walk plan.

        Visits the same candidates in the same nearest-first order, with
        the same filters (clipped to ``[lo, hi]``, then not blocked), the
        same ``cost + count * io_penalty`` totals and the same
        strict-improvement rule; the per-probe rail and IO-pair queries
        become list reads.  Without a plan, or when ``[lo, hi]`` leaves
        the chip's sites, it is :meth:`adjust_x` itself.
        """
        plan = self._walk_plan(cell_type, row)
        if plan is None or lo < 0 or hi >= len(plan[0]):
            return self.adjust_x(cell_type, row, x_opt, lo, hi, cost_at)
        blocked, pairs = plan
        io_penalty = self.params.io_penalty
        best_x: Optional[int] = None
        best_total = math.inf
        best_cost = 0.0
        for delta in self._walk_deltas:
            x = x_opt + delta
            if x < lo or x > hi or blocked[x]:
                continue
            cost = cost_at(x)
            total = (
                cost + self._io_overlaps(pairs, x) * io_penalty if pairs else cost
            )
            if total < best_total - 1e-12:
                best_total = total
                best_x = x
                best_cost = cost
        if best_x is None:
            penalty = self.params.blocked_penalty + self.io_penalty_at(
                cell_type, row, x_opt
            )
            return x_opt, penalty
        return best_x, best_total - best_cost

    # ------------------------------------------------------------------
    # Stage-3 feasible ranges (C_L = C_R = C)
    # ------------------------------------------------------------------

    def feasible_range(
        self,
        cell_type: CellType,
        row: int,
        x: int,
        segment_lo: int,
        segment_hi: int,
    ) -> Tuple[int, int]:
        """Largest clean interval ``[l, r]`` of left-edge sites around ``x``.

        ``segment_lo``/``segment_hi`` bound the cell's span inside its row
        segment (``segment_hi`` already excludes the cell width).  The
        interval is grown site by site from the current position, at most
        ``feasible_range_limit`` sites per side, until a vertical-rail
        conflict, an IO-pin overlap or the segment bound is hit, so every
        position inside it is conflict-free — the restriction §3.4
        imposes on the stage-3 MCF.  A cell already in conflict at ``x``
        is pinned there.

        Each probe reads the cached walk plan: a ``blocked`` list read,
        plus an IO overlap count on rows with IO pairs.  Without a plan,
        or when a walked site leaves ``0..num_sites``, the probes are
        ``x_blocked`` and :meth:`_io_overlaps` themselves, with the same
        answers.
        """
        if not self.params.routability or not cell_type.pins:
            return segment_lo, segment_hi
        limit = self.params.feasible_range_limit
        floor = max(segment_lo, x - limit)
        ceil = min(segment_hi, x + limit)
        blocked_at: Callable[[int], bool]
        plan = self._walk_plan(cell_type, row)
        if plan is None or min(x, floor) < 0 or max(x, ceil) >= len(plan[0]):
            pairs = self._io_pairs(cell_type, row)
            blocked_at = functools.partial(self.x_blocked, cell_type, row)
        else:
            blocked, pairs = plan
            blocked_at = blocked.__getitem__
        if not pairs:
            return _grow_clean(x, floor, ceil, blocked_at)
        # §3.4: the range is bounded by the P/G rails *or IO pins*; an IO
        # overlap bounds it whatever io_penalty is, 0 included.
        overlaps = self._io_overlaps
        return _grow_clean(
            x, floor, ceil, lambda c: blocked_at(c) or overlaps(pairs, c) > 0
        )


def _grow_clean(
    x: int, floor: int, ceil: int, conflicted: Callable[[int], bool]
) -> Tuple[int, int]:
    """Grow ``[x, x]`` one site at a time within ``[floor, ceil]``.

    Each side stops before its first conflicted site; a conflicted ``x``
    gives ``(x, x)``.
    """
    if conflicted(x):
        # Already conflicting: do not let stage 3 make it worse; pin
        # the cell to its current position.
        return x, x
    left = x
    while left > floor and not conflicted(left - 1):
        left -= 1
    right = x
    while right < ceil and not conflicted(right + 1):
        right += 1
    return left, right
