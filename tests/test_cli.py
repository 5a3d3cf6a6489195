"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.txt"
    code = main([
        "generate", "clidesign", "-o", str(path),
        "--cells", "1:80", "2:8", "--density", "0.5", "--seed", "3",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_loadable_design(self, design_file):
        from repro.io import load_design

        design = load_design(design_file)
        assert design.num_cells == 88
        assert design.name == "clidesign"

    def test_rails_flag(self, tmp_path):
        path = tmp_path / "d.txt"
        main([
            "generate", "railed", "-o", str(path),
            "--cells", "1:40", "--rails", "--io-pins", "3",
        ])
        from repro.io import load_design

        design = load_design(path)
        assert design.rails.rails
        assert len(design.rails.io_pins) == 3


class TestLegalizeAndCheck:
    def test_round_trip(self, design_file, tmp_path, capsys):
        placement_file = tmp_path / "placement.txt"
        code = main([
            "legalize", str(design_file), "-o", str(placement_file),
            "--no-routability",
        ])
        assert code == 0
        assert placement_file.exists()

        code = main(["check", str(design_file), str(placement_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "legality: legal" in out
        assert "score S" in out

    def test_check_detects_illegal(self, design_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        from repro.io import load_design

        design = load_design(design_file)
        lines = ["place %d 0 0" % c for c in range(design.num_cells)]
        bad.write_text("\n".join(lines) + "\n")
        code = main(["check", str(design_file), str(bad)])
        assert code == 1
        assert "overlap" in capsys.readouterr().out

    def test_window_flag(self, design_file, tmp_path):
        placement_file = tmp_path / "p.txt"
        code = main([
            "legalize", str(design_file), "-o", str(placement_file),
            "--no-routability", "--window", "16", "6",
        ])
        assert code == 0


class TestSvg:
    def test_renders(self, design_file, tmp_path):
        placement_file = tmp_path / "p.txt"
        main(["legalize", str(design_file), "-o", str(placement_file),
              "--no-routability"])
        svg_file = tmp_path / "out.svg"
        code = main([
            "svg", str(design_file), str(placement_file),
            "-o", str(svg_file), "--displacement",
        ])
        assert code == 0
        assert svg_file.read_text().startswith("<svg")


class TestCompare:
    def test_runs_all(self, design_file, capsys):
        code = main(["compare", str(design_file)])
        assert code == 0
        out = capsys.readouterr().out
        for tag in ("tetris", "mll", "abacus", "lcp", "ours"):
            assert tag in out


HEADER = "design d rows 2 sites 20 site_width 0.2 row_height 2.0 parity 0\n"
CELLTYPE = "celltype A width 4 height 1 left_edge 0 right_edge 0\n"


def _assert_reported(capsys, code, expected_code, *fragments):
    """Exit code plus message, printed as a log line, not a traceback."""
    captured = capsys.readouterr()
    assert code == expected_code
    for fragment in fragments:
        assert fragment in captured.err
    assert "Traceback" not in captured.err + captured.out


class TestBadInput:
    @pytest.mark.parametrize("command", [
        ["legalize", "{design}", "-o", "{out}"],
        ["check", "{design}", "{placement}"],
        ["compare", "{design}"],
        ["svg", "{design}", "{placement}", "-o", "{out}"],
        ["export-bookshelf", "{design}", "-o", "{out}"],
    ])
    def test_malformed_design_exits_2(self, tmp_path, capsys, command):
        design = tmp_path / "bad.txt"
        design.write_text(HEADER + CELLTYPE + "cell c0 A abc 0.0 0 0\n")
        placement = tmp_path / "p.txt"
        placement.write_text("place 0 0 0\n")
        argv = [
            arg.format(design=design, placement=placement,
                       out=tmp_path / "out")
            for arg in command
        ]
        _assert_reported(capsys, main(argv), 2, f"{design}:3:", "'abc'")

    def test_record_before_design_line_exits_2(self, tmp_path, capsys):
        design = tmp_path / "early.txt"
        design.write_text("blockage 0 0 2 1\n" + HEADER)
        code = main(["legalize", str(design), "-o", str(tmp_path / "p.txt")])
        _assert_reported(capsys, code, 2, f"{design}:1:")

    def test_malformed_placement_exits_2(self, design_file, tmp_path, capsys):
        placement = tmp_path / "p.txt"
        placement.write_text("place 0 0 0\nplace x 1 0\n")
        code = main(["check", str(design_file), str(placement)])
        _assert_reported(capsys, code, 2, f"{placement}:2:", "'x'")

    def test_malformed_bookshelf_exits_2(self, design_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["export-bookshelf", str(design_file),
                     "-o", str(bundle)]) == 0
        pl = bundle / "clidesign.pl"
        lines = pl.read_text().splitlines()
        tokens = lines[1].split()
        tokens[1] = "left"
        lines[1] = " ".join(tokens)
        pl.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["import-bookshelf", str(bundle / "clidesign.aux"),
                     "-o", str(tmp_path / "d.txt")])
        _assert_reported(capsys, code, 2, f"{pl}:2:", "'left'")

    def test_over_full_fence_exits_1(self, tmp_path, capsys):
        design = tmp_path / "full.txt"
        design.write_text(
            HEADER + CELLTYPE
            + "fence 1 f1\nfencerect 1 0 0 4 1\n"
            + "".join(f"cell c{index} A 0.0 0.0 1 0\n" for index in range(3))
        )
        placement = tmp_path / "p.txt"
        code = main(["legalize", str(design), "-o", str(placement)])
        _assert_reported(capsys, code, 1, str(design), "over-full")
        assert not placement.exists()
