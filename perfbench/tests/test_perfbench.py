"""Tests of the benchmark itself, on the ``--smoke`` designs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUNNER = ROOT / "perfbench" / "run.py"
SPEC: Dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text())
MOVES: Dict[str, Any] = json.loads((ROOT / "perfbench" / "moves.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: Path = ROOT) -> Tuple[int, List[str]]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed.returncode, completed.stdout.splitlines()


def smoke(workload: str, trace: int, *extra: str) -> Tuple[int, Dict[str, Any]]:
    code, lines = run(
        "--workload", workload, "--seed", "2", "--seconds", "0.5",
        "--trace", str(trace), "--smoke", *extra,
    )
    return code, json.loads(lines[-1])


def test_spec_shape() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert WORKLOADS == ["fenced_md", "dense_pool", "sharded_lp"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_every_layer_metric_names_what_it_moves() -> None:
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(MOVES) == {m["name"] for m in SPEC["per_layer"]}
    for entry in MOVES.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(
    workload: str, trace: int
) -> None:
    code, result = smoke(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_injected_illegal_placement_fails_the_run(trace: int) -> None:
    code, result = smoke("fenced_md", trace, "--inject-illegal")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    if trace:
        assert result["metrics"]["fail_rate"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines = run("--workload", "fenced_md", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
