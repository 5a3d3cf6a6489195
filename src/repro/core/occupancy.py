"""Row occupancy: sorted per-row bookkeeping of already-placed cells.

MGL legalizes cells one at a time; this structure tracks which cells sit
where while the placement is being built, answers neighbor queries, and
applies the horizontal "spread" moves.  Multi-row cells are registered in
every row they span.  Fixed cells are registered up-front and behave as
obstacles.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.design import Design
from repro.model.placement import Placement

#: One occupancy mutation, as recorded in a :attr:`Occupancy.journal` and
#: shipped to parallel workers (see repro.core.parallel).  The op codes
#: are ``"a"`` (add: cell, x, y), ``"m"`` (move: cell, new_x, 0) and
#: ``"r"`` (remove: cell, 0, 0); the fixed 4-tuple shape keeps the
#: pickled delta stream compact and trivially versioned.
DeltaOp = Tuple[str, int, int, int]

#: Gate for the O(total entries) consistency sweep below.  Tests leave it
#: on (the default); benchmark harnesses turn it off so measured MGL time
#: is the algorithm, not the self-checks.  ``REPRO_EXPENSIVE_CHECKS=0``
#: disables it for whole processes (e.g. CI bench smoke runs).
_expensive_checks = os.environ.get("REPRO_EXPENSIVE_CHECKS", "1") != "0"


def set_expensive_checks(enabled: bool) -> bool:
    """Enable/disable :meth:`Occupancy.verify_consistent`; returns the old value."""
    global _expensive_checks
    previous = _expensive_checks
    _expensive_checks = enabled
    return previous


def expensive_checks_enabled() -> bool:
    """Whether :meth:`Occupancy.verify_consistent` actually runs."""
    return _expensive_checks


class Occupancy:
    """Mutable per-row index of placed cells, ordered by x.

    The structure mirrors (a subset of) a :class:`Placement`: call
    :meth:`add` when a cell is placed, :meth:`update_x` when it shifts
    horizontally, :meth:`remove` to un-place it.  Positions are read from
    and written to the backing placement, keeping the two consistent.
    """

    def __init__(self, design: Design, placement: Placement):
        self.design = design
        self.placement = placement
        # Per row: parallel arrays of x positions and cell ids, x-sorted.
        self._xs: List[List[int]] = [[] for _ in range(design.num_rows)]
        self._cells: List[List[int]] = [[] for _ in range(design.num_rows)]
        self._placed: Set[int] = set()
        # Monotone per-row mutation counters: every add/update_x/remove
        # bumps the counter of each row the cell spans.  The parallel
        # scheduler tags each task with its window rows' versions, so a
        # worker's occupancy mirror proves itself in sync before it
        # evaluates (repro.core.parallel).
        self._row_versions: List[int] = [0] * design.num_rows
        self._placed_view: Optional[FrozenSet[int]] = None
        self._widths = design.cell_widths
        self._heights = design.cell_heights
        #: Optional mutation log: while attached (see :meth:`set_journal`),
        #: every add/update_x/remove appends one :data:`DeltaOp`.  The
        #: parallel scheduler drains it to ship compact occupancy deltas
        #: to worker processes instead of full snapshots.
        self.journal: Optional[List[DeltaOp]] = None

    def set_journal(self, journal: Optional[List[DeltaOp]]) -> None:
        """Attach (or detach, with None) a mutation journal."""
        self.journal = journal

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, cell: int) -> None:
        """Register ``cell`` at its current placement position."""
        if cell in self._placed:
            raise ValueError(f"cell {cell} is already placed")
        if cell >= len(self._heights):
            # Cells were added to the design after this occupancy was
            # built; re-fetch the (design-cached) dimension arrays.
            self._widths = self.design.cell_widths
            self._heights = self.design.cell_heights
        x, y = self.placement.x[cell], self.placement.y[cell]
        height = self._heights[cell]
        for row in range(y, y + height):
            index = self._insert_index(row, x, cell)
            self._xs[row].insert(index, x)
            self._cells[row].insert(index, cell)
            self._row_versions[row] += 1
        self._placed.add(cell)
        self._placed_view = None
        if self.journal is not None:
            self.journal.append(("a", cell, x, y))

    def remove(self, cell: int) -> None:
        """Unregister ``cell`` (its placement position is left untouched)."""
        if cell not in self._placed:
            raise ValueError(f"cell {cell} is not placed")
        x, y = self.placement.x[cell], self.placement.y[cell]
        height = self._heights[cell]
        for row in range(y, y + height):
            index = self._find_index(row, x, cell)
            del self._xs[row][index]
            del self._cells[row][index]
            self._row_versions[row] += 1
        self._placed.discard(cell)
        self._placed_view = None
        if self.journal is not None:
            self.journal.append(("r", cell, 0, 0))

    def update_x(self, cell: int, new_x: int) -> None:
        """Shift ``cell`` horizontally, preserving its order in every row.

        The caller guarantees the shift does not reorder cells within any
        row (MGL's spreads never do); this is asserted cheaply.
        """
        old_x = self.placement.x[cell]
        if new_x == old_x:
            return
        y = self.placement.y[cell]
        height = self._heights[cell]
        for row in range(y, y + height):
            index = self._find_index(row, old_x, cell)
            xs = self._xs[row]
            xs[index] = new_x
            if index > 0 and xs[index - 1] > new_x:
                raise AssertionError(
                    f"update_x would reorder row {row} (cell {cell})"
                )
            if index + 1 < len(xs) and xs[index + 1] < new_x:
                raise AssertionError(
                    f"update_x would reorder row {row} (cell {cell})"
                )
            self._row_versions[row] += 1
        self.placement.x[cell] = new_x
        if self.journal is not None:
            self.journal.append(("m", cell, new_x, 0))

    def is_placed(self, cell: int) -> bool:
        return cell in self._placed

    @property
    def placed_cells(self) -> FrozenSet[int]:
        """Read-only view of the placed cell ids.

        The frozenset is cached and rebuilt lazily after the next
        :meth:`add`/:meth:`remove`, so repeated reads cost O(1) instead
        of copying the whole set on every access.
        """
        if self._placed_view is None:
            self._placed_view = frozenset(self._placed)
        return self._placed_view

    def row_version(self, row: int) -> int:
        """Mutation counter of ``row`` (see ``_row_versions`` above)."""
        return self._row_versions[row]

    def row_versions(self) -> List[int]:
        """A copy of every row's :meth:`row_version`, by row."""
        return list(self._row_versions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def row_cells(self, row: int) -> Sequence[int]:
        """Cells registered in ``row``, ordered by x."""
        return self._cells[row]

    def row_positions(self, row: int) -> Sequence[int]:
        """x positions of :meth:`row_cells`, parallel and x-sorted.

        The vector backend (repro.core.soa) bisects it for the cells
        around a window.  The returned sequence is the live internal
        list — callers must not mutate it and must not hold it across
        occupancy mutations.
        """
        return self._xs[row]

    def cells_in_range(self, row: int, x_lo: float, x_hi: float) -> List[int]:
        """Cells whose span intersects ``[x_lo, x_hi)`` on ``row``."""
        xs = self._xs[row]
        cells = self._cells[row]
        result: List[int] = []
        index = bisect_left(xs, x_lo)
        # The cell just left of x_lo may still reach into the range.
        if index > 0:
            cell = cells[index - 1]
            if xs[index - 1] + self._widths[cell] > x_lo:
                result.append(cell)
        while index < len(xs) and xs[index] < x_hi:
            result.append(cells[index])
            index += 1
        return result

    def left_neighbor(self, row: int, x: float, exclude: int = -1) -> Optional[int]:
        """The placed cell with the largest position strictly below ``x``."""
        xs = self._xs[row]
        index = bisect_left(xs, x)
        while index > 0:
            cell = self._cells[row][index - 1]
            if cell != exclude:
                return cell
            index -= 1
        return None

    def right_neighbor(self, row: int, x: float, exclude: int = -1) -> Optional[int]:
        """The placed cell with the smallest position at/above ``x``."""
        xs = self._xs[row]
        index = bisect_left(xs, x)
        while index < len(xs):
            cell = self._cells[row][index]
            if cell != exclude:
                return cell
            index += 1
        return None

    def neighbors_of(self, cell: int) -> Tuple[List[int], List[int]]:
        """Immediate (left, right) neighbor cells of ``cell`` over its rows."""
        x, y = self.placement.x[cell], self.placement.y[cell]
        height = self._heights[cell]
        lefts: List[int] = []
        rights: List[int] = []
        for row in range(y, y + height):
            index = self._find_index(row, x, cell)
            if index > 0:
                lefts.append(self._cells[row][index - 1])
            if index + 1 < len(self._cells[row]):
                rights.append(self._cells[row][index + 1])
        return lefts, rights

    def verify_consistent(self) -> None:
        """Internal consistency check used by tests (O(total entries)).

        A no-op while the module-level gate is off (see
        :func:`set_expensive_checks`): benchmark paths disable it so the
        sweep never contaminates timing measurements.
        """
        if not _expensive_checks:
            return
        for row in range(self.design.num_rows):
            xs = self._xs[row]
            cells = self._cells[row]
            assert len(xs) == len(cells)
            assert xs == sorted(xs), f"row {row} not sorted"
            for x, cell in zip(xs, cells):
                assert self.placement.x[cell] == x, (
                    f"row {row}: cell {cell} stale position"
                )
                y = self.placement.y[cell]
                height = self._heights[cell]
                assert y <= row < y + height, f"cell {cell} in wrong row {row}"

    # ------------------------------------------------------------------

    def _insert_index(self, row: int, x: int, cell: int) -> int:
        """Insertion index keeping (x, cell) lexicographic stability."""
        xs = self._xs[row]
        index = bisect_left(xs, x)
        while index < len(xs) and xs[index] == x and self._cells[row][index] < cell:
            index += 1
        return index

    def _find_index(self, row: int, x: int, cell: int) -> int:
        """Index of ``cell`` in ``row`` given its current x."""
        xs = self._xs[row]
        cells = self._cells[row]
        index = bisect_left(xs, x)
        while index < len(xs) and xs[index] == x:
            if cells[index] == cell:
                return index
            index += 1
        raise KeyError(f"cell {cell} not found in row {row} at x={x}")


def build_occupancy(
    design: Design, placement: Placement, cells: Iterable[int]
) -> Occupancy:
    """Occupancy over a chosen subset of cells (e.g. the fixed ones)."""
    occupancy = Occupancy(design, placement)
    for cell in cells:
        occupancy.add(cell)
    return occupancy
