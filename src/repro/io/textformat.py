"""A line-oriented text format for designs and placements.

The contest benchmarks come as LEF/DEF-style text; this module plays that
role for the reproduction: a human-readable, diff-friendly serialization
covering the whole data model (technology, chip, cells, fences, rails, IO
pins, blockages, netlist) plus standalone placement files.

Format sketch (``#`` starts a comment; sections are keyword-introduced)::

    design <name> rows <n> sites <n> site_width <w> row_height <h> parity <p>
    celltype <name> width <w> height <h> left_edge <e> right_edge <e>
    pin <celltype> <name> <layer> <xlo> <ylo> <xhi> <yhi>
    edgerule <a> <b> <spacing>
    fence <id> <name>
    fencerect <id> <xlo> <ylo> <xhi> <yhi>
    blockage <xlo> <ylo> <xhi> <yhi>
    rail <layer> <h|v> <offset> <pitch> <width> <span_lo> <span_hi> <ext_lo> <ext_hi>
    iopin <name> <layer> <xlo> <ylo> <xhi> <yhi>
    cell <name> <celltype> <gp_x> <gp_y> <fence_id> <fixed 0|1>
    net <name> <cell_index> <cell_index> ...
    placement files: one ``place <cell_index> <x> <y>`` per line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, TypeVar, Union

from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Interval, Rect
from repro.model.netlist import Net, PinRef
from repro.model.placement import Placement
from repro.model.rails import IOPin, Rail
from repro.model.technology import CellType, PinShape, Technology

PathLike = Union[str, Path]

#: Record keywords that modify the design, so must follow its line.
_NEEDS_DESIGN = frozenset({"blockage", "rail", "iopin", "cell", "net"})

_N = TypeVar("_N", int, float)


def _fields(
    convert: Callable[[str], _N], tokens: List[str], start: int, count: int
) -> List[_N]:
    """``count`` tokens from ``start`` converted; IndexError when short."""
    return [convert(tokens[index]) for index in range(start, start + count)]


def design_to_text(design: Design) -> str:
    """Canonical text serialization of a complete design.

    This string is the content identity of a design: it feeds both
    :func:`save_design` and :func:`repro.obs.manifest.design_digest`, so
    a manifest's digest matches what a saved file would hash to.
    """
    lines: List[str] = [
        "# repro design v1",
        f"design {design.name} rows {design.num_rows} sites {design.num_sites} "
        f"site_width {design.site_width!r} row_height {design.row_height!r} "
        f"parity {design.power_parity}",
    ]
    for cell_type in design.technology.cell_types:
        lines.append(
            f"celltype {cell_type.name} width {cell_type.width} "
            f"height {cell_type.height} left_edge {cell_type.left_edge} "
            f"right_edge {cell_type.right_edge}"
        )
        for pin in cell_type.pins:
            rect = pin.rect
            lines.append(
                f"pin {cell_type.name} {pin.name} {pin.layer} "
                f"{rect.xlo!r} {rect.ylo!r} {rect.xhi!r} {rect.yhi!r}"
            )
    for edge_a, edge_b, spacing in design.technology.edge_spacing.items():
        lines.append(f"edgerule {edge_a} {edge_b} {spacing}")
    for fence in design.fences:
        lines.append(f"fence {fence.fence_id} {fence.name}")
        for rect in fence.rects:
            lines.append(
                f"fencerect {fence.fence_id} "
                f"{int(rect.xlo)} {int(rect.ylo)} {int(rect.xhi)} {int(rect.yhi)}"
            )
    for rect in design.blockages:
        lines.append(
            f"blockage {int(rect.xlo)} {int(rect.ylo)} {int(rect.xhi)} {int(rect.yhi)}"
        )
    for rail in design.rails.rails:
        lines.append(
            f"rail {rail.layer} {rail.orientation} {rail.offset!r} {rail.pitch!r} "
            f"{rail.width!r} {rail.span.lo!r} {rail.span.hi!r} "
            f"{rail.extent.lo!r} {rail.extent.hi!r}"
        )
    for io_pin in design.rails.io_pins:
        rect = io_pin.rect
        lines.append(
            f"iopin {io_pin.name} {io_pin.layer} "
            f"{rect.xlo!r} {rect.ylo!r} {rect.xhi!r} {rect.yhi!r}"
        )
    for cell in design.cells:
        lines.append(
            f"cell {cell.name} {cell.cell_type.name} {cell.gp_x!r} {cell.gp_y!r} "
            f"{cell.fence_id} {1 if cell.fixed else 0}"
        )
    for net in design.netlist.nets:
        members = " ".join(str(pin.cell) for pin in net.pins)
        lines.append(f"net {net.name} {members}")
    return "\n".join(lines) + "\n"


def save_design(design: Design, path: PathLike) -> None:
    """Serialize a complete design to ``path``."""
    Path(path).write_text(design_to_text(design))


def load_design(path: PathLike) -> Design:
    """Parse a design written by :func:`save_design`.

    Raises:
        ValueError: naming ``path:line`` on a malformed line, an unknown
            keyword or a record before the ``design`` line; naming
            ``path`` when the finished design fails validation.
    """
    design: Design = None  # type: ignore[assignment]
    technology = Technology()
    pending_pins: Dict[str, List[PinShape]] = {}
    raw_types: Dict[str, Dict[str, int]] = {}

    def finalize_types() -> None:
        for name, fields in raw_types.items():
            technology.add_cell_type(
                CellType(
                    name=name,
                    width=fields["width"],
                    height=fields["height"],
                    pins=tuple(pending_pins.get(name, ())),
                    left_edge=fields["left_edge"],
                    right_edge=fields["right_edge"],
                )
            )
        raw_types.clear()

    fences: Dict[int, FenceRegion] = {}
    for line_number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        try:
            if design is None and keyword in _NEEDS_DESIGN:
                raise ValueError(f"{keyword!r} record before the 'design' line")
            if keyword == "design":
                design = Design(
                    technology,
                    num_rows=int(tokens[3]),
                    num_sites=int(tokens[5]),
                    site_width=float(tokens[7]),
                    row_height=float(tokens[9]),
                    power_parity=int(tokens[11]),
                    name=tokens[1],
                )
            elif keyword == "celltype":
                raw_types[tokens[1]] = {
                    "width": int(tokens[3]),
                    "height": int(tokens[5]),
                    "left_edge": int(tokens[7]),
                    "right_edge": int(tokens[9]),
                }
            elif keyword == "pin":
                pending_pins.setdefault(tokens[1], []).append(
                    PinShape(
                        name=tokens[2],
                        layer=int(tokens[3]),
                        rect=Rect(*_fields(float, tokens, 4, 4)),
                    )
                )
            elif keyword == "edgerule":
                technology.edge_spacing.set_spacing(
                    int(tokens[1]), int(tokens[2]), int(tokens[3])
                )
            elif keyword == "fence":
                finalize_types()
                fence = FenceRegion(int(tokens[1]), tokens[2])
                fences[fence.fence_id] = fence
            elif keyword == "fencerect":
                fences[int(tokens[1])].add_rect(
                    Rect(*_fields(int, tokens, 2, 4))
                )
            elif keyword == "blockage":
                design.add_blockage(Rect(*_fields(int, tokens, 1, 4)))
            elif keyword == "rail":
                design.rails.add_rail(
                    Rail(
                        layer=int(tokens[1]),
                        orientation=tokens[2],
                        offset=float(tokens[3]),
                        pitch=float(tokens[4]),
                        width=float(tokens[5]),
                        span=Interval(float(tokens[6]), float(tokens[7])),
                        extent=Interval(float(tokens[8]), float(tokens[9])),
                    )
                )
            elif keyword == "iopin":
                design.rails.add_io_pin(
                    IOPin(
                        tokens[1],
                        int(tokens[2]),
                        Rect(*_fields(float, tokens, 3, 4)),
                    )
                )
            elif keyword == "cell":
                finalize_types()
                design.add_cell(
                    tokens[1],
                    technology.type_named(tokens[2]),
                    gp_x=float(tokens[3]),
                    gp_y=float(tokens[4]),
                    fence_id=int(tokens[5]),
                    fixed=tokens[6] == "1",
                )
            elif keyword == "net":
                design.netlist.add_net(
                    Net(tokens[1], [PinRef(int(t)) for t in tokens[2:]])
                )
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(
                f"{path}:{line_number}: malformed line: {raw!r} ({exc})"
            ) from exc
    try:
        # Re-register any cell types defined after the design line.
        finalize_types()
        if design is None:
            raise ValueError("no 'design' line found")
        # Fences are registered only now, once all their rects are
        # parsed: add_fence rebuilds the design's row segments, so a
        # fence must be geometrically complete when it goes in.
        for fence in fences.values():
            design.add_fence(fence)
        design.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return design


def save_placement(placement: Placement, path: PathLike) -> None:
    """Write one ``place <cell> <x> <y>`` line per cell."""
    lines = ["# repro placement v1"]
    for cell in range(placement.design.num_cells):
        lines.append(f"place {cell} {placement.x[cell]} {placement.y[cell]}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_placement(design: Design, path: PathLike) -> Placement:
    """Read a placement written by :func:`save_placement`.

    Raises:
        ValueError: naming ``path:line`` on a malformed line or a cell
            index outside the design.
    """
    placement = Placement(design)
    for line_number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] != "place" or len(tokens) != 4:
                raise ValueError("expected 'place <cell> <x> <y>'")
            cell, x, y = (int(token) for token in tokens[1:])
            if not 0 <= cell < design.num_cells:
                raise ValueError(
                    f"cell index {cell} outside 0..{design.num_cells - 1}"
                )
        except ValueError as exc:
            raise ValueError(
                f"{path}:{line_number}: malformed line: {raw!r} ({exc})"
            ) from exc
        placement.move(cell, x, y)
    return placement
