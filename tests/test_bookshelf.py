"""Round-trip and parsing tests for the Bookshelf format."""

import re

import pytest

from repro.benchgen import SyntheticSpec, generate_design
from repro.io.bookshelf import load_bookshelf, save_bookshelf
from repro.model.placement import Placement


def _at(path, pattern: str) -> str:
    """A ``match`` regex: the literal ``path``, then ``pattern``."""
    return re.escape(str(path)) + pattern


@pytest.fixture
def design():
    return generate_design(
        SyntheticSpec(
            name="bs",
            cells_by_height={1: 60, 2: 8, 3: 4},
            density=0.5,
            seed=12,
            nets_per_cell=0.6,
        )
    )


class TestRoundTrip:
    def test_structure_preserved(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        loaded, placement = load_bookshelf(aux)
        assert loaded.num_cells == design.num_cells
        assert loaded.num_rows == design.num_rows
        assert loaded.num_sites == design.num_sites
        assert loaded.site_width == design.site_width
        assert loaded.row_height == design.row_height

    def test_footprints_preserved(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        loaded, _ = load_bookshelf(aux)
        for original, copy in zip(design.cells, loaded.cells):
            assert original.name == copy.name
            assert original.cell_type.width == copy.cell_type.width
            assert original.cell_type.height == copy.cell_type.height
            assert original.fixed == copy.fixed

    def test_gp_positions_preserved(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        loaded, _ = load_bookshelf(aux)
        for cell in range(design.num_cells):
            assert loaded.gp_x[cell] == pytest.approx(design.gp_x[cell], abs=1e-6)
            assert loaded.gp_y[cell] == pytest.approx(design.gp_y[cell], abs=1e-6)

    def test_nets_preserved(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        loaded, _ = load_bookshelf(aux)
        assert len(loaded.netlist) == len(design.netlist)
        for a, b in zip(design.netlist.nets, loaded.netlist.nets):
            assert [p.cell for p in a.pins] == [p.cell for p in b.pins]

    def test_placement_export(self, design, tmp_path):
        placement = Placement.from_gp_rounded(design)
        placement.move(0, 7, 3)
        aux = save_bookshelf(design, tmp_path, placement=placement)
        _, loaded_placement = load_bookshelf(aux)
        assert loaded_placement.position(0) == (7, 3)

    def test_legalize_after_load(self, design, tmp_path):
        from repro import LegalizerParams, legalize
        from repro.checker import check_legal

        aux = save_bookshelf(design, tmp_path)
        loaded, _ = load_bookshelf(aux)
        result = legalize(
            loaded, LegalizerParams(routability=False, scheduler_capacity=1)
        )
        assert check_legal(result.placement).is_legal


class TestParsingErrors:
    def test_missing_file_entry(self, tmp_path):
        aux = tmp_path / "x.aux"
        aux.write_text("RowBasedPlacement : x.nodes x.pl\n")
        with pytest.raises(ValueError, match="missing .scl"):
            load_bookshelf(aux)

    def test_malformed_aux(self, tmp_path):
        aux = tmp_path / "x.aux"
        aux.write_text("garbage\n")
        with pytest.raises(ValueError, match="malformed"):
            load_bookshelf(aux)

    def test_fractional_footprint_rejected(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        nodes = tmp_path / "bs.nodes"
        content = nodes.read_text().replace(
            content_first_cell_line(nodes), rewidth(content_first_cell_line(nodes))
        )
        nodes.write_text(content)
        with pytest.raises(ValueError, match="multiple"):
            load_bookshelf(aux)

    @pytest.mark.parametrize("suffix, field, junk", [
        (".nodes", 1, "wide"),
        (".nodes", 2, "tall"),
        (".pl", 1, "left"),
        (".pl", 2, "low"),
    ])
    def test_non_numeric_field_names_the_line(
        self, design, tmp_path, suffix, field, junk
    ):
        aux = save_bookshelf(design, tmp_path)
        path = tmp_path / f"bs{suffix}"
        lines = path.read_text().splitlines()
        number = next(
            index for index, line in enumerate(lines, 1)
            if line.split() and line.split()[0] == design.cells[0].name
        )
        tokens = lines[number - 1].split()
        tokens[field] = junk
        lines[number - 1] = "  " + " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        pattern = _at(path, f":{number}: .*{junk!r}")
        with pytest.raises(ValueError, match=pattern):
            load_bookshelf(aux)

    @pytest.mark.parametrize("record", ["Height", "Sitewidth", "SubrowOrigin"])
    def test_non_numeric_row_field_names_the_line(
        self, design, tmp_path, record
    ):
        aux = save_bookshelf(design, tmp_path)
        scl = tmp_path / "bs.scl"
        lines = scl.read_text().splitlines()
        number = next(
            index for index, line in enumerate(lines, 1)
            if line.strip().startswith(record)
        )
        lines[number - 1] = lines[number - 1].rsplit(":", 1)[0] + ": junk"
        scl.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=_at(scl, f":{number}: .*'junk'")):
            load_bookshelf(aux)

    def test_node_missing_from_pl_rejected(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        pl = tmp_path / "bs.pl"
        name = design.cells[3].name
        pl.write_text("\n".join(
            line for line in pl.read_text().splitlines()
            if not (line.split() and line.split()[0] == name)
        ) + "\n")
        pattern = _at(pl, f": no position .*{name!r}")
        with pytest.raises(ValueError, match=pattern):
            load_bookshelf(aux)

    def test_non_uniform_rows_rejected(self, design, tmp_path):
        aux = save_bookshelf(design, tmp_path)
        scl = tmp_path / "bs.scl"
        text = scl.read_text()
        text = text.replace("Height : 2", "Height : 3", 1)
        scl.write_text(text)
        with pytest.raises(ValueError, match="non-uniform"):
            load_bookshelf(aux)


def content_first_cell_line(nodes_path) -> str:
    for line in nodes_path.read_text().splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("UCLA", "Num")):
            return line
    raise AssertionError("no cell line found")


def rewidth(line: str) -> str:
    tokens = line.split()
    tokens[1] = str(float(tokens[1]) + 0.07)
    return "  " + " ".join(tokens)
