"""The TUTORIAL.md walkthrough, executed end to end.

Keeps the documentation honest: if the tutorial's code stops working,
this test fails.
"""

import random
import re
from pathlib import Path

import pytest

from repro import LegalizerParams, legalize
from repro.checker import check_legal, placement_report
from repro.core.incremental import IncrementalLegalizer
from repro.io import save_bookshelf, save_design, save_placement
from repro.model import (
    CellType,
    Design,
    EdgeSpacingTable,
    FenceRegion,
    PinShape,
    Rect,
    Technology,
)
from repro.model.rails import standard_pg_grid
from repro.viz import render_displacement_svg


@pytest.fixture(scope="module")
def tutorial_state():
    tech = Technology(
        cell_types=[
            CellType("INV", 2, 1,
                     pins=(PinShape("a", 1, Rect(0.05, 0.3, 0.2, 0.7)),),
                     left_edge=1, right_edge=1),
            CellType("NAND", 3, 1),
            CellType("DFF2", 4, 2),
            CellType("ALU3", 5, 3),
        ],
        edge_spacing=EdgeSpacingTable([(1, 1, 1)]),
    )
    design = Design(tech, num_rows=24, num_sites=160)
    design.add_fence(FenceRegion(1, "cluster", [Rect(40, 4, 100, 14)]))
    design.rails = standard_pg_grid(
        design.chip_rect_length_units, design.row_height
    )
    rng = random.Random(1)
    for index in range(250):
        cell_type = rng.choice(tech.cell_types)
        fence = 1 if rng.random() < 0.10 else 0
        if fence:
            x = rng.uniform(40, 100 - cell_type.width)
            y = rng.uniform(4, 14 - cell_type.height)
        else:
            x = rng.uniform(0, 160 - cell_type.width)
            y = rng.uniform(0, 24 - cell_type.height)
        design.add_cell(f"u{index}", cell_type, x, y, fence_id=fence)
    design.validate()
    result = legalize(design, LegalizerParams())
    return design, result


def test_legalizes_and_reports(tutorial_state):
    design, result = tutorial_state
    placement = result.placement
    assert check_legal(placement).is_legal
    text = placement_report(placement)
    assert "per-height displacement" in text
    assert result.after_matching.max_disp <= result.after_mgl.max_disp + 1e-9


def test_svg_renders(tutorial_state, tmp_path):
    design, result = tutorial_state
    svg = render_displacement_svg(result.placement)
    assert svg.startswith("<svg")


def test_eco_step(tutorial_state):
    design, result = tutorial_state
    placement = result.placement.copy()
    eco = IncrementalLegalizer(design, placement)
    design.cells[7].gp_x = min(
        design.num_sites - design.cell_type_of(7).width,
        design.cells[7].gp_x + 25,
    )
    design._gp_x_array = None
    outcome = eco.relegalize([7])
    assert eco.verify()
    assert outcome.placed == [7]


def test_instrumentation_snippet_runs(tutorial_state, tmp_path,
                                      monkeypatch, capsys):
    """Run section 5's instrumentation block verbatim from TUTORIAL.md."""
    design, _result = tutorial_state
    text = (Path(__file__).parent.parent / "docs" / "TUTORIAL.md").read_text()
    [snippet] = [
        block for block in re.findall(r"```python\n(.*?)```", text, re.S)
        if "render_metrics" in block
    ]
    monkeypatch.chdir(tmp_path)
    namespace = {"design": design}
    exec(compile(snippet, "TUTORIAL.md", "exec"), namespace)
    assert (tmp_path / "run.trace.json").is_file()
    assert check_legal(namespace["result"].placement).is_legal
    out = capsys.readouterr().out
    assert "timings" in out and "mgl" in out
    assert "'phase': 'done'" in out


def test_persistence(tutorial_state, tmp_path):
    design, result = tutorial_state
    save_design(design, tmp_path / "design.txt")
    save_placement(result.placement, tmp_path / "placement.txt")
    aux = save_bookshelf(design, tmp_path / "bundle",
                         placement=result.placement)
    assert aux.exists()
