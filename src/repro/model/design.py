"""The :class:`Design` container: everything a legalizer needs.

A design bundles the technology, the placement area (rows x sites), cell
instances with their global-placement (GP) positions and fence
assignments, fence regions, the P/G rail grid with IO pins, placement
blockages, and the netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import numpy.typing as npt

from repro.model.fence import DEFAULT_FENCE, FenceRegion, fences_overlap
from repro.model.geometry import Rect
from repro.model.netlist import Netlist
from repro.model.rails import RailGrid
from repro.model.row import Row, Segment, build_row_segments
from repro.model.technology import CellType, Technology


@dataclass
class CellInstance:
    """One placed cell instance.

    Attributes:
        name: instance name.
        cell_type: master definition.
        fence_id: fence region the cell is assigned to (0 = default).
        fixed: fixed cells may not be moved by any algorithm.
        gp_x: global-placement x in (fractional) site units.
        gp_y: global-placement y in (fractional) row units.
    """

    name: str
    cell_type: CellType
    fence_id: int = DEFAULT_FENCE
    fixed: bool = False
    gp_x: float = 0.0
    gp_y: float = 0.0


class Design:
    """A complete mixed-cell-height placement problem instance.

    Args:
        technology: cell library and edge-spacing rules.
        num_rows: number of placement rows (y in ``[0, num_rows)``).
        num_sites: sites per row (x in ``[0, num_sites)``).
        site_width: site width in length units.
        row_height: row height in length units.
        power_parity: bottom-row parity (0 or 1) required for even-height
            cells; odd-height cells are flippable and unconstrained.
        name: design name, used in reports.
    """

    def __init__(
        self,
        technology: Technology,
        num_rows: int,
        num_sites: int,
        site_width: float = 0.2,
        row_height: float = 2.0,
        power_parity: int = 0,
        name: str = "design",
    ):
        if num_rows <= 0 or num_sites <= 0:
            raise ValueError("design must have positive rows and sites")
        if power_parity not in (0, 1):
            raise ValueError("power_parity must be 0 or 1")
        if site_width <= 0 or row_height <= 0:
            raise ValueError("site_width and row_height must be positive")
        self.technology = technology
        self.num_rows = num_rows
        self.num_sites = num_sites
        self.site_width = site_width
        self.row_height = row_height
        self.power_parity = power_parity
        self.name = name

        self.cells: List[CellInstance] = []
        self.fences: List[FenceRegion] = []
        self.blockages: List[Rect] = []
        self.rails: RailGrid = RailGrid()
        self.netlist: Netlist = Netlist()

        # Built eagerly (and rebuilt on every fence/blockage mutation)
        # so reads are pure: a lazily filled cache would be a shared
        # write when first touched from a pure evaluation (C002).
        self._segments_cache: Dict[int, List[Segment]] = build_row_segments(
            self.rows(), self.fences, self.blockages
        )
        self._gp_x_array: Optional[npt.NDArray[np.float64]] = None
        self._gp_y_array: Optional[npt.NDArray[np.float64]] = None
        self._cell_widths: Optional[List[int]] = None
        self._cell_heights: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_cell(
        self,
        name: str,
        cell_type: CellType,
        gp_x: float,
        gp_y: float,
        fence_id: int = DEFAULT_FENCE,
        fixed: bool = False,
    ) -> int:
        """Add a cell instance and return its index."""
        self.cells.append(
            CellInstance(name, cell_type, fence_id, fixed, float(gp_x), float(gp_y))
        )
        self._gp_x_array = None
        self._gp_y_array = None
        self._cell_widths = None
        self._cell_heights = None
        return len(self.cells) - 1

    def add_fence(self, fence: FenceRegion) -> FenceRegion:
        """Register a fence region (invalidates the segment cache)."""
        if any(existing.fence_id == fence.fence_id for existing in self.fences):
            raise ValueError(f"duplicate fence id {fence.fence_id}")
        self.fences.append(fence)
        self._rebuild_segments()
        return fence

    def add_blockage(self, rect: Rect) -> Rect:
        """Register a placement blockage (invalidates the segment cache)."""
        self.blockages.append(rect)
        self._rebuild_segments()
        return rect

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def chip_rect(self) -> Rect:
        """Placement area in site/row units."""
        return Rect(0, 0, self.num_sites, self.num_rows)

    @property
    def chip_rect_length_units(self) -> Rect:
        """Placement area in length units."""
        return Rect(
            0.0, 0.0, self.num_sites * self.site_width, self.num_rows * self.row_height
        )

    @property
    def x_unit_rows(self) -> float:
        """Row-height units per site step (converts x distance to rows)."""
        return self.site_width / self.row_height

    def cell_type_of(self, cell: int) -> CellType:
        return self.cells[cell].cell_type

    @property
    def cell_widths(self) -> List[int]:
        """Per-cell widths in sites (cached; rebuilt after add_cell)."""
        if self._cell_widths is None or len(self._cell_widths) != self.num_cells:
            self._cell_widths = [c.cell_type.width for c in self.cells]
        return self._cell_widths

    @property
    def cell_heights(self) -> List[int]:
        """Per-cell heights in rows (cached; rebuilt after add_cell)."""
        if self._cell_heights is None or len(self._cell_heights) != self.num_cells:
            self._cell_heights = [c.cell_type.height for c in self.cells]
        return self._cell_heights

    def fence_of(self, cell: int) -> int:
        return self.cells[cell].fence_id

    def fence_region(self, fence_id: int) -> FenceRegion:
        """Look up an explicit fence region by id.

        Raises:
            KeyError: for the default fence (it has no region object) or an
                unknown id.
        """
        for fence in self.fences:
            if fence.fence_id == fence_id:
                return fence
        raise KeyError(f"no fence region with id {fence_id}")

    @property
    def gp_x_array(self) -> npt.NDArray[np.float64]:
        if self._gp_x_array is None or len(self._gp_x_array) != self.num_cells:
            self._gp_x_array = np.array(
                [c.gp_x for c in self.cells], dtype=np.float64
            )
        return self._gp_x_array

    @property
    def gp_y_array(self) -> npt.NDArray[np.float64]:
        if self._gp_y_array is None or len(self._gp_y_array) != self.num_cells:
            self._gp_y_array = np.array(
                [c.gp_y for c in self.cells], dtype=np.float64
            )
        return self._gp_y_array

    @property
    def gp_x(self) -> npt.NDArray[np.float64]:
        """Per-cell GP x positions (site units)."""
        return self.gp_x_array

    @property
    def gp_y(self) -> npt.NDArray[np.float64]:
        """Per-cell GP y positions (row units)."""
        return self.gp_y_array

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def rows(self) -> List[Row]:
        """All placement rows."""
        return [Row(r, 0, self.num_sites) for r in range(self.num_rows)]

    def _rebuild_segments(self) -> None:
        self._segments_cache = build_row_segments(
            self.rows(), self.fences, self.blockages
        )

    def segments(self) -> Dict[int, List[Segment]]:
        """Fence-homogeneous, blockage-free segments per row.

        Maintained eagerly by :meth:`add_fence`/:meth:`add_blockage`;
        reading it never mutates the design.
        """
        return self._segments_cache

    def segments_in_row(self, row: int) -> List[Segment]:
        """Segments of one row (empty list outside the chip)."""
        return self.segments().get(row, [])

    def segment_at(self, row: int, x: float) -> Optional[Segment]:
        """The segment of ``row`` containing site ``x`` (or None)."""
        for segment in self.segments_in_row(row):
            if segment.x_lo <= x < segment.x_hi:
                return segment
        return None

    def cells_by_height(self) -> Dict[int, List[int]]:
        """Movable-cell indices grouped by cell height."""
        groups: Dict[int, List[int]] = {}
        for index, cell in enumerate(self.cells):
            if cell.fixed:
                continue
            groups.setdefault(cell.cell_type.height, []).append(index)
        return groups

    def movable_cells(self) -> List[int]:
        """Indices of movable (non-fixed) cells."""
        return [i for i, cell in enumerate(self.cells) if not cell.fixed]

    def row_parity_ok(self, cell: int, row: int) -> bool:
        """P/G alignment: may ``cell`` have its bottom edge on ``row``?

        Even-height cells require ``row % 2 == power_parity``; odd-height
        cells can be flipped and fit any row (paper §2).
        """
        cell_type = self.cell_type_of(cell)
        if cell_type.parity_constrained:
            return row % 2 == self.power_parity
        return True

    def density(self) -> float:
        """Design density: total cell area over total free area.

        Matches the "Density" column of the paper's tables (total cell
        area / total placeable area).
        """
        cell_area = sum(
            c.cell_type.width * c.cell_type.height for c in self.cells
        )
        free_area = sum(
            seg.width for segs in self.segments().values() for seg in segs
        )
        if free_area <= 0:
            return float("inf")
        return cell_area / free_area

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants of the instance itself.

        Raises:
            ValueError: on overlapping fences, out-of-chip fence or
                blockage rectangles, non-integer fence/blockage coordinates,
                or cells assigned to unknown fences.
        """
        chip = self.chip_rect
        known_fences = {DEFAULT_FENCE} | {f.fence_id for f in self.fences}
        if fences_overlap(self.fences):
            raise ValueError("fence regions overlap each other")
        for fence in self.fences:
            for rect in fence.rects:
                _require_integral_rect(rect, f"fence {fence.name!r}")
                if not chip.contains_rect(rect):
                    raise ValueError(
                        f"fence {fence.name!r} rectangle {rect} outside chip"
                    )
        for rect in self.blockages:
            _require_integral_rect(rect, "blockage")
        for index, cell in enumerate(self.cells):
            if cell.fence_id not in known_fences:
                raise ValueError(
                    f"cell {index} ({cell.name!r}) assigned to unknown fence "
                    f"{cell.fence_id}"
                )
            if cell.cell_type.height > self.num_rows:
                raise ValueError(
                    f"cell {index} taller ({cell.cell_type.height} rows) than chip"
                )

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, {self.num_cells} cells, "
            f"{self.num_rows} rows x {self.num_sites} sites, "
            f"{len(self.fences)} fences)"
        )


def _require_integral_rect(rect: Rect, what: str) -> None:
    for value in (rect.xlo, rect.ylo, rect.xhi, rect.yhi):
        if not float(value).is_integer():
            raise ValueError(f"{what} rectangle {rect} has non-integer coordinates")
