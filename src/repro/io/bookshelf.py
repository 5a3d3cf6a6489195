"""Bookshelf placement format (.aux/.nodes/.nets/.pl/.scl).

Bookshelf is the lingua franca of academic placement (ISPD/DAC contest
releases ship in it), so supporting it lets this library exchange
designs with other placers and lets users run the legalizer on published
benchmarks after the usual mixed-height conversion.

Supported subset:

* ``.nodes`` — cell names, width/height in length units, ``terminal``
  marks fixed cells;
* ``.pl`` — positions, orientation ignored, ``/FIXED`` marks fixed;
* ``.scl`` — uniform ``CoreRow`` records give row height, site width,
  origin, and sites per row;
* ``.nets`` — ``NetDegree`` blocks; pin offsets are parsed but collapsed
  to the cell (our HPWL uses cell centers, the standard approximation);
* ``.aux`` — the index file naming the others.

Cell widths/heights must be integer multiples of the site width / row
height (true for contest releases); fractional footprints are rejected
with a clear error.  Loading synthesizes one
:class:`~repro.model.technology.CellType` per distinct footprint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.model.design import Design
from repro.model.netlist import Net, PinRef
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology

PathLike = Union[str, Path]
_N = TypeVar("_N", int, float)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def save_bookshelf(
    design: Design,
    directory: PathLike,
    basename: Optional[str] = None,
    placement: Optional[Placement] = None,
) -> Path:
    """Write the design (and optionally a placement) as Bookshelf files.

    Returns the path of the ``.aux`` index file.  GP positions go into
    the ``.pl`` unless ``placement`` is given.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = basename or design.name
    sw, rh = design.site_width, design.row_height

    nodes_lines = [
        "UCLA nodes 1.0",
        f"NumNodes : {design.num_cells}",
        f"NumTerminals : {sum(1 for c in design.cells if c.fixed)}",
    ]
    for cell in design.cells:
        width_len = cell.cell_type.width * sw
        height_len = cell.cell_type.height * rh
        suffix = " terminal" if cell.fixed else ""
        nodes_lines.append(f"  {cell.name} {width_len:g} {height_len:g}{suffix}")
    (directory / f"{base}.nodes").write_text("\n".join(nodes_lines) + "\n")

    pl_lines = ["UCLA pl 1.0"]
    for index, cell in enumerate(design.cells):
        if placement is not None:
            x_len = placement.x[index] * sw
            y_len = placement.y[index] * rh
        else:
            x_len = cell.gp_x * sw
            y_len = cell.gp_y * rh
        suffix = " /FIXED" if cell.fixed else ""
        pl_lines.append(f"  {cell.name} {x_len!r} {y_len!r} : N{suffix}")
    (directory / f"{base}.pl").write_text("\n".join(pl_lines) + "\n")

    scl_lines = ["UCLA scl 1.0", f"NumRows : {design.num_rows}"]
    for row in range(design.num_rows):
        scl_lines.extend([
            "CoreRow Horizontal",
            f"  Coordinate : {row * rh:g}",
            f"  Height : {rh:g}",
            f"  Sitewidth : {sw:g}",
            "  Sitespacing : %g" % sw,
            "  Siteorient : 1",
            "  Sitesymmetry : 1",
            f"  SubrowOrigin : 0  NumSites : {design.num_sites}",
            "End",
        ])
    (directory / f"{base}.scl").write_text("\n".join(scl_lines) + "\n")

    num_pins = sum(len(net.pins) for net in design.netlist.nets)
    nets_lines = [
        "UCLA nets 1.0",
        f"NumNets : {len(design.netlist)}",
        f"NumPins : {num_pins}",
    ]
    for net in design.netlist.nets:
        nets_lines.append(f"NetDegree : {len(net.pins)} {net.name}")
        for pin in net.pins:
            nets_lines.append(f"  {design.cells[pin.cell].name} I : 0 0")
    (directory / f"{base}.nets").write_text("\n".join(nets_lines) + "\n")

    aux = directory / f"{base}.aux"
    aux.write_text(
        f"RowBasedPlacement : {base}.nodes {base}.nets {base}.pl {base}.scl\n"
    )
    return aux


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def load_bookshelf(aux_path: PathLike) -> Tuple[Design, Placement]:
    """Parse a Bookshelf bundle into a Design plus its .pl placement.

    The .pl positions become both the GP input (``design.gp_*``) and the
    returned placement (rounded to sites/rows).

    Raises:
        ValueError: on unsupported/malformed content (non-uniform rows,
            fractional footprints, non-numeric fields, nodes without a
            ``.pl`` position); parse errors name ``path:line``.
    """
    aux_path = Path(aux_path)
    tokens = aux_path.read_text().split(":", 1)
    if len(tokens) != 2:
        raise ValueError(f"{aux_path}: malformed .aux")
    files = {Path(f).suffix: aux_path.parent / f for f in tokens[1].split()}
    for suffix in (".nodes", ".pl", ".scl"):
        if suffix not in files:
            raise ValueError(f"{aux_path}: missing {suffix} entry")

    rows, row_height, site_width, num_sites = _parse_scl(files[".scl"])
    nodes = _parse_nodes(files[".nodes"])
    positions = _parse_pl(files[".pl"])
    unplaced = [name for name in nodes if name not in positions]
    if unplaced:
        raise ValueError(
            f"{files['.pl']}: no position for {len(unplaced)} node(s), "
            f"first {unplaced[0]!r}"
        )

    technology = Technology()
    types: Dict[Tuple[int, int], CellType] = {}
    design = Design(
        technology,
        num_rows=rows,
        num_sites=num_sites,
        site_width=site_width,
        row_height=row_height,
        name=aux_path.stem,
    )
    name_to_index: Dict[str, int] = {}

    xs: List[int] = []
    ys: List[int] = []
    for name, (width_len, height_len, terminal) in nodes.items():
        width = _as_multiple(width_len, site_width, f"node {name} width")
        height = _as_multiple(height_len, row_height, f"node {name} height")
        key = (width, height)
        if key not in types:
            types[key] = technology.add_cell_type(
                CellType(f"W{width}H{height}", width, height)
            )
        x_len, y_len, fixed_flag = positions[name]
        gp_x = x_len / site_width
        gp_y = y_len / row_height
        index = design.add_cell(
            name, types[key], gp_x, gp_y, fixed=terminal or fixed_flag
        )
        name_to_index[name] = index
        xs.append(int(round(gp_x)))
        ys.append(int(round(gp_y)))

    if ".nets" in files and files[".nets"].exists():
        for net_name, members in _parse_nets(files[".nets"]):
            pins = [
                PinRef(name_to_index[m]) for m in members if m in name_to_index
            ]
            if len(pins) >= 2:
                design.netlist.add_net(Net(net_name, pins))

    placement = Placement(design, xs, ys)
    return design, placement


def _as_multiple(value: float, unit: float, what: str) -> int:
    ratio = value / unit
    rounded = round(ratio)
    if abs(ratio - rounded) > 1e-6 or rounded <= 0:
        raise ValueError(
            f"{what} ({value}) is not a positive multiple of {unit}"
        )
    return int(rounded)


def _data_lines(path: Path) -> List[Tuple[int, str]]:
    """``(line number, stripped line)`` of every data line."""
    lines: List[Tuple[int, str]] = []
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("UCLA"):
            lines.append((number, line))
    return lines


def _number(convert: Callable[[str], _N], text: str, path: Path,
            number: int, line: str) -> _N:
    """``convert(text)``, or a ValueError naming ``path:number``."""
    try:
        return convert(text.strip())
    except ValueError:
        raise ValueError(
            f"{path}:{number}: malformed number {text.strip()!r} in {line!r}"
        ) from None


def _parse_nodes(path: Path) -> Dict[str, Tuple[float, float, bool]]:
    nodes: Dict[str, Tuple[float, float, bool]] = {}
    for number, line in _data_lines(path):
        if line.startswith(("NumNodes", "NumTerminals")):
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise ValueError(f"{path}:{number}: malformed node line {line!r}")
        nodes[tokens[0]] = (
            _number(float, tokens[1], path, number, line),
            _number(float, tokens[2], path, number, line),
            "terminal" in tokens[3:],
        )
    return nodes


def _parse_pl(path: Path) -> Dict[str, Tuple[float, float, bool]]:
    positions: Dict[str, Tuple[float, float, bool]] = {}
    for number, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 3:
            continue
        fixed = "/FIXED" in tokens
        positions[tokens[0]] = (
            _number(float, tokens[1], path, number, line),
            _number(float, tokens[2], path, number, line),
            fixed,
        )
    return positions


def _parse_scl(path: Path) -> Tuple[int, float, float, int]:
    """Returns (num_rows, row_height, site_width, num_sites)."""
    heights: List[float] = []
    site_widths: List[float] = []
    num_sites: List[int] = []
    count = 0
    for number, line in _data_lines(path):
        if line.startswith("CoreRow"):
            count += 1
        elif line.startswith("Height"):
            heights.append(
                _number(float, line.split(":")[-1], path, number, line)
            )
        elif line.startswith("Sitewidth"):
            site_widths.append(
                _number(float, line.split(":")[-1], path, number, line)
            )
        elif line.startswith("SubrowOrigin"):
            num_sites.append(
                _number(int, line.split(":")[-1], path, number, line)
            )
    if not count or not heights or not site_widths or not num_sites:
        raise ValueError(f"{path}: no usable CoreRow records")
    if len(set(heights)) > 1 or len(set(site_widths)) > 1 or len(set(num_sites)) > 1:
        raise ValueError(f"{path}: non-uniform rows are not supported")
    return count, heights[0], site_widths[0], num_sites[0]


def _parse_nets(path: Path) -> List[Tuple[str, List[str]]]:
    nets: List[Tuple[str, List[str]]] = []
    current: Optional[Tuple[str, List[str]]] = None
    index = 0
    for _, line in _data_lines(path):
        if line.startswith(("NumNets", "NumPins")):
            continue
        if line.startswith("NetDegree"):
            tokens = line.split()
            name = tokens[-1] if not tokens[-1].isdigit() else f"net{index}"
            index += 1
            current = (name, [])
            nets.append(current)
        elif current is not None:
            current[1].append(line.split()[0])
    return nets
