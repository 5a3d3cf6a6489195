"""Round-trip and malformed-input tests for the text serialization."""

import functools
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import SyntheticSpec, generate_design
from repro.io import load_design, load_placement, save_design, save_placement
from repro.io.textformat import design_to_text
from repro.model.geometry import Rect
from repro.model.placement import Placement

HEADER = "design d rows 2 sites 10 site_width 0.2 row_height 2.0 parity 0\n"


def _at(path, pattern: str) -> str:
    """A ``match`` regex: the literal ``path``, then ``pattern``."""
    return re.escape(str(path)) + pattern


@pytest.fixture
def rich_design():
    return generate_design(
        SyntheticSpec(
            name="rt",
            cells_by_height={1: 40, 2: 6, 3: 3},
            density=0.5,
            seed=8,
            num_fences=1,
            with_rails=True,
            num_io_pins=3,
            with_edge_rules=True,
            nets_per_cell=0.5,
        )
    )


class TestDesignRoundTrip:
    def test_full_round_trip(self, rich_design, tmp_path):
        path = tmp_path / "design.txt"
        save_design(rich_design, path)
        loaded = load_design(path)

        assert loaded.name == rich_design.name
        assert loaded.num_rows == rich_design.num_rows
        assert loaded.num_sites == rich_design.num_sites
        assert loaded.num_cells == rich_design.num_cells
        assert loaded.site_width == rich_design.site_width
        assert loaded.power_parity == rich_design.power_parity

        for original, copy in zip(rich_design.cells, loaded.cells):
            assert original.name == copy.name
            assert original.cell_type.name == copy.cell_type.name
            assert original.gp_x == copy.gp_x
            assert original.fence_id == copy.fence_id
            assert original.fixed == copy.fixed

        assert len(loaded.fences) == len(rich_design.fences)
        for of, cf in zip(rich_design.fences, loaded.fences):
            assert of.rects == cf.rects

        assert (
            loaded.technology.edge_spacing.items()
            == rich_design.technology.edge_spacing.items()
        )
        assert len(loaded.rails.rails) == len(rich_design.rails.rails)
        assert len(loaded.rails.io_pins) == len(rich_design.rails.io_pins)
        assert len(loaded.netlist) == len(rich_design.netlist)

        # Pins survive with geometry.
        for ct in rich_design.technology.cell_types:
            loaded_ct = loaded.technology.type_named(ct.name)
            assert len(loaded_ct.pins) == len(ct.pins)
            for op, cp in zip(ct.pins, loaded_ct.pins):
                assert op.rect == cp.rect and op.layer == cp.layer

    def test_segments_identical(self, rich_design, tmp_path):
        path = tmp_path / "design.txt"
        save_design(rich_design, path)
        loaded = load_design(path)
        assert loaded.segments() == rich_design.segments()

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("design d rows 2 sites 10 site_width 0.2 "
                        "row_height 2.0 parity 0\nnonsense 1 2 3\n")
        with pytest.raises(ValueError, match="unknown keyword"):
            load_design(path)

    def test_missing_design_line_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no 'design' line"):
            load_design(path)

    def test_non_numeric_field_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            HEADER + "celltype A width abc height 1 left_edge 0 right_edge 0\n"
        )
        with pytest.raises(ValueError, match=_at(path, ":2: .*'abc'")):
            load_design(path)

    def test_record_before_design_line_names_the_line(self, tmp_path):
        path = tmp_path / "early.txt"
        path.write_text("blockage 0 0 2 1\n" + HEADER)
        with pytest.raises(ValueError, match=_at(path, ":1: .*before the")):
            load_design(path)

    def test_invalid_design_names_the_file(self, tmp_path):
        path = tmp_path / "fenceless.txt"
        path.write_text(
            HEADER
            + "celltype A width 2 height 1 left_edge 0 right_edge 0\n"
            + "cell c0 A 1.0 0.0 7 0\n"
        )
        with pytest.raises(ValueError, match=_at(path, ": .*unknown fence 7")):
            load_design(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# header\n\ndesign d rows 2 sites 10 site_width 0.2 "
            "row_height 2.0 parity 0  # trailing\n"
        )
        design = load_design(path)
        assert design.num_rows == 2


class TestPlacementRoundTrip:
    def test_round_trip(self, rich_design, tmp_path):
        placement = Placement.from_gp_rounded(rich_design)
        path = tmp_path / "placement.txt"
        save_placement(placement, path)
        loaded = load_placement(rich_design, path)
        assert loaded.x == placement.x
        assert loaded.y == placement.y

    def test_malformed_placement(self, rich_design, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("place 0 1\n")
        with pytest.raises(ValueError, match=_at(path, ":1: ")):
            load_placement(rich_design, path)

    def test_non_numeric_placement_field_names_the_line(
        self, rich_design, tmp_path
    ):
        path = tmp_path / "bad.txt"
        path.write_text("# header\nplace x 1 0\n")
        with pytest.raises(ValueError, match=_at(path, ":2: .*'x'")):
            load_placement(rich_design, path)

    @pytest.mark.parametrize("index", [-1, 10_000])
    def test_cell_index_out_of_range_names_the_line(
        self, rich_design, tmp_path, index
    ):
        path = tmp_path / "bad.txt"
        path.write_text(f"place 0 1 0\nplace {index} 1 0\n")
        with pytest.raises(ValueError, match=_at(path, ":2: .*outside")):
            load_placement(rich_design, path)


@functools.lru_cache(maxsize=None)
def _saved_design_lines() -> "tuple[tuple[str, ...], ...]":
    """Token lists of a small saved design with every record kind."""
    design = generate_design(
        SyntheticSpec(
            name="fuzz",
            cells_by_height={1: 12, 2: 2},
            density=0.4,
            seed=3,
            num_fences=1,
            with_rails=True,
            num_io_pins=2,
            with_edge_rules=True,
            nets_per_cell=0.5,
        )
    )
    design.add_blockage(Rect(0, 0, 1, 1))
    return tuple(
        tuple(line.split()) for line in design_to_text(design).splitlines()
    )


class TestMalformedDesignProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        junk=st.text(alphabet="bcdxyz", min_size=1, max_size=4),
    )
    def test_non_numeric_token_loads_or_names_the_file(self, data, junk):
        lines = [list(tokens) for tokens in _saved_design_lines()]
        candidates = [
            (row, col)
            for row, tokens in enumerate(lines)
            for col in range(len(tokens))
            if not tokens[0].startswith("#")
        ]
        row, col = data.draw(st.sampled_from(candidates))
        lines[row][col] = junk
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "fuzzed.txt"
            path.write_text("\n".join(" ".join(t) for t in lines) + "\n")
            try:
                load_design(path)
            except ValueError as exc:
                assert str(path) in str(exc)
