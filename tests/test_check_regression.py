"""Tests for benchmarks/check_regression.py: gates, warnings, deltas."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)


def make_run(name, scale=0.004, seconds=1.0, evals=100, expansions=5,
             placement_hash="aaaa"):
    return {
        "name": name,
        "scale": scale,
        "cells": 100,
        "seconds": seconds,
        "insertions_evaluated": evals,
        "window_expansions": expansions,
        "placement_hash": placement_hash,
    }


def make_report(runs, parallel=None, trace=None):
    return {
        "suite": "test",
        "runs": runs,
        "parallel": parallel,
        "trace_determinism": trace,
        "hashes": {
            f"{r['name']}@{r['scale']}": r["placement_hash"] for r in runs
        },
    }


def run_main(tmp_path, baseline, fresh, *extra):
    base_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return check_regression.main(
        [str(base_path), str(fresh_path), *extra]
    )


class TestHashGate:
    def test_clean_when_identical(self, tmp_path, capsys):
        report = make_report([make_run("a"), make_run("b")])
        assert run_main(tmp_path, report, report) == 0
        assert "regression gate clean" in capsys.readouterr().out

    def test_hash_change_is_fatal(self, tmp_path, capsys):
        baseline = make_report([make_run("a", placement_hash="aaaa")])
        fresh = make_report([make_run("a", placement_hash="bbbb")])
        assert run_main(tmp_path, baseline, fresh) == 1
        err = capsys.readouterr().err
        assert "placement hash changed" in err

    def test_no_common_cases_is_fatal(self, tmp_path):
        baseline = make_report([make_run("a")])
        fresh = make_report([make_run("z")])
        assert run_main(tmp_path, baseline, fresh) == 1


class TestOneSidedWarnings:
    def test_subset_fresh_run_warns_but_passes(self, tmp_path, capsys):
        baseline = make_report([make_run("a"), make_run("b"), make_run("c")])
        fresh = make_report([make_run("a")])
        assert run_main(tmp_path, baseline, fresh) == 0
        err = capsys.readouterr().err
        assert "WARNING" in err
        assert "2 baseline case(s) missing from the fresh report" in err
        assert "b@0.004" in err

    def test_extra_fresh_cases_warn_too(self, tmp_path, capsys):
        baseline = make_report([make_run("a")])
        fresh = make_report([make_run("a"), make_run("new")])
        assert run_main(tmp_path, baseline, fresh) == 0
        err = capsys.readouterr().err
        assert "1 fresh case(s) absent from the baseline" in err
        assert "new@0.004" in err


class TestCounterDeltas:
    def test_unchanged_counters_report_none(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        run_main(tmp_path, report, report)
        assert "counter deltas on common cases: none" in (
            capsys.readouterr().out
        )

    def test_moved_counters_printed_with_signs(self, tmp_path, capsys):
        baseline = make_report([make_run("a", evals=100, expansions=5)])
        fresh = make_report([make_run("a", evals=90, expansions=7)])
        assert run_main(tmp_path, baseline, fresh) == 0
        out = capsys.readouterr().out
        assert "insertions_evaluated 100 -> 90 (-10)" in out
        assert "window_expansions 5 -> 7 (+2)" in out


class TestTimeGate:
    def test_slow_case_beyond_tolerance_fails(self, tmp_path, capsys):
        baseline = make_report([make_run("a", seconds=1.0)])
        fresh = make_report([make_run("a", seconds=1.5)])
        assert run_main(tmp_path, baseline, fresh) == 1
        assert "vs baseline" in capsys.readouterr().err

    def test_fast_baseline_cases_skipped(self, tmp_path):
        baseline = make_report([make_run("a", seconds=0.1)])
        fresh = make_report([make_run("a", seconds=0.4)])
        assert run_main(tmp_path, baseline, fresh) == 0

    def test_no_time_check_flag(self, tmp_path):
        baseline = make_report([make_run("a", seconds=1.0)])
        fresh = make_report([make_run("a", seconds=9.0)])
        assert run_main(tmp_path, baseline, fresh, "--no-time-check") == 0


class TestSectionGates:
    def test_parallel_divergence_fails(self, tmp_path, capsys):
        report = make_report(
            [make_run("a")],
            parallel={"name": "a", "hashes_match": False,
                      "serial_hash": "x", "parallel_hash": "y"},
        )
        assert run_main(tmp_path, report, report) == 1
        assert "diverged from serial" in capsys.readouterr().err

    def test_trace_structure_divergence_fails(self, tmp_path, capsys):
        report = make_report(
            [make_run("a")],
            trace={"name": "a", "workers": 2, "structure_match": False,
                   "hashes_match": True, "serial_structure_hash": "s",
                   "parallel_structure_hash": "p"},
        )
        assert run_main(tmp_path, report, report) == 1
        assert "trace structure hash" in capsys.readouterr().err

    def test_traced_placement_divergence_fails(self, tmp_path, capsys):
        report = make_report(
            [make_run("a")],
            trace={"name": "a", "workers": 2, "structure_match": True,
                   "hashes_match": False},
        )
        assert run_main(tmp_path, report, report) == 1
        assert "traced parallel placement" in capsys.readouterr().err

    def test_sections_optional_for_old_reports(self, tmp_path):
        report = make_report([make_run("a")])
        del report["parallel"]
        del report["trace_determinism"]
        assert run_main(tmp_path, report, report) == 0

    def test_trace_gate_passes_when_consistent(self, tmp_path):
        report = make_report(
            [make_run("a")],
            trace={"name": "a", "workers": 2, "structure_match": True,
                   "hashes_match": True},
        )
        assert run_main(tmp_path, report, report) == 0


def make_sharded(**overrides):
    section = {
        "name": "a",
        "scale": 0.2,
        "cells": 20000,
        "shards": 4,
        "shards_effective": 4,
        "workers": 4,
        "cells_per_sec": 5000.0,
        "legal": True,
        "violations": 0,
        "shards1_match": True,
        "workers_match": True,
        "baseline_hash": "aaaa",
        "shards1_hash": "aaaa",
        "sharded_hash": "cccc",
        "sharded_workers_hash": "cccc",
        "disp_delta_pct": 3.0,
        "reconciled": 120,
    }
    section.update(overrides)
    return section


class TestShardedGate:
    def test_clean_section_passes(self, tmp_path):
        report = make_report([make_run("a")])
        report["sharded"] = make_sharded()
        assert run_main(tmp_path, report, report) == 0

    def test_missing_section_is_not_a_failure(self, tmp_path):
        report = make_report([make_run("a")])
        assert "sharded" not in report
        assert run_main(tmp_path, report, report) == 0

    def test_illegal_placement_fails(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        report["sharded"] = make_sharded(legal=False, violations=3)
        assert run_main(tmp_path, report, report) == 1
        assert "not legal" in capsys.readouterr().err

    def test_shards1_divergence_fails(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        report["sharded"] = make_sharded(
            shards1_match=False, shards1_hash="bbbb"
        )
        assert run_main(tmp_path, report, report) == 1
        assert "shards=1 placement" in capsys.readouterr().err

    def test_worker_divergence_fails(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        report["sharded"] = make_sharded(
            workers_match=False, sharded_workers_hash="dddd"
        )
        assert run_main(tmp_path, report, report) == 1
        assert "diverged from serial" in capsys.readouterr().err

    def test_displacement_budget(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        report["sharded"] = make_sharded(disp_delta_pct=40.0)
        assert run_main(tmp_path, report, report) == 1
        assert "displacement drifted" in capsys.readouterr().err
        # A wider budget admits the same drift.
        assert run_main(
            tmp_path, report, report, "--max-shard-disp-growth", "0.5"
        ) == 0


class TestSummary:
    def test_summary_file_written(self, tmp_path):
        report = make_report([make_run("a")])
        report["sharded"] = make_sharded()
        summary = tmp_path / "summary.md"
        assert run_main(
            tmp_path, report, report, "--summary", str(summary)
        ) == 0
        text = summary.read_text()
        assert "## Bench regression" in text
        assert "| a@0.004 |" in text and "match" in text
        assert "### Sharded legalization" in text
        assert "| 20000 | 4 | 4 |" in text
        assert "clean" in text

    def test_summary_marks_failures(self, tmp_path):
        baseline = make_report([make_run("a", placement_hash="aaaa")])
        fresh = make_report([make_run("a", placement_hash="bbbb")])
        fresh["sharded"] = make_sharded(legal=False)
        summary = tmp_path / "summary.md"
        assert run_main(
            tmp_path, baseline, fresh, "--summary", str(summary)
        ) == 1
        text = summary.read_text()
        assert "**CHANGED**" in text
        assert "**FAIL**" in text
        assert "regression(s):" in text

    def test_render_summary_handles_new_cases(self):
        baseline = make_report([make_run("a")])
        fresh = make_report([make_run("a"), make_run("extra")])
        text = check_regression.render_summary(baseline, fresh, [])
        assert "| extra@0.004 |" in text and "new" in text


class TestAgainstRealArtifacts:
    """The committed BENCH_mgl.json must satisfy its own gate."""

    def test_committed_baseline_self_compares_clean(self, tmp_path):
        baseline = json.loads((ROOT / "BENCH_mgl.json").read_text())
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(baseline))
        assert check_regression.main(
            [str(ROOT / "BENCH_mgl.json"), str(path)]
        ) == 0


def make_overhead(**overrides):
    section = {
        "name": "a",
        "scale": 0.05,
        "cells": 5600,
        "sample_every": 16,
        "plain_seconds": 5.0,
        "sampled_seconds": 5.15,
        "overhead_pct": 3.0,
        "plain_hash": "cafe",
        "sampled_hash": "cafe",
        "hashes_match": True,
        "span_count": 400,
        "structure_hash": "feed",
        "progress_events": 12,
    }
    section.update(overrides)
    return section


class TestTracingOverheadGate:
    def test_within_budget_passes(self, tmp_path):
        report = make_report([make_run("a")])
        report["tracing_overhead"] = make_overhead()
        assert run_main(tmp_path, report, report) == 0

    def test_hash_divergence_is_fatal(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        fresh = dict(report)
        fresh["tracing_overhead"] = make_overhead(
            sampled_hash="beef", hashes_match=False
        )
        assert run_main(tmp_path, report, fresh) == 1
        assert "diverged from the untraced run" in capsys.readouterr().err

    def test_overhead_above_budget_is_fatal(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        fresh = dict(report)
        fresh["tracing_overhead"] = make_overhead(
            overhead_pct=9.5, sampled_seconds=5.5
        )
        assert run_main(
            tmp_path, report, fresh, "--max-trace-overhead", "5.0"
        ) == 1
        err = capsys.readouterr().err
        assert "overhead +9.5% exceeds the 5% budget" in err

    def test_tiny_runs_never_gate_on_overhead(self, tmp_path):
        # Sub-min_seconds untraced runs measure timer noise.
        report = make_report([make_run("a")])
        fresh = dict(report)
        fresh["tracing_overhead"] = make_overhead(
            plain_seconds=0.02, overhead_pct=80.0
        )
        assert run_main(
            tmp_path, report, fresh, "--min-seconds", "0.5"
        ) == 0

    def test_absent_section_is_not_an_error(self, tmp_path):
        report = make_report([make_run("a")])
        assert run_main(tmp_path, report, report) == 0

    def test_summary_renders_the_section(self, tmp_path):
        report = make_report([make_run("a")])
        report["tracing_overhead"] = make_overhead()
        summary = tmp_path / "summary.md"
        assert run_main(
            tmp_path, report, report, "--summary", str(summary)
        ) == 0
        text = summary.read_text()
        assert "### Tracing overhead" in text
        assert "**3.0%**" in text and "12 progress events" in text


class TestStoreTrendGate:
    def store_args(self, tmp_path):
        return ("--store", str(tmp_path / "store"))

    def test_cold_store_passes_and_warms_up(self, tmp_path, capsys):
        report = make_report([make_run("a")])
        assert run_main(
            tmp_path, report, report, *self.store_args(tmp_path)
        ) == 0
        out = capsys.readouterr().out
        assert "trend not yet callable" in out
        assert "appended 1 record(s), 1 total" in out

    def test_steady_history_stays_clean(self, tmp_path, capsys):
        report = make_report([make_run("a", seconds=1.0)])
        for _ in range(4):
            assert run_main(
                tmp_path, report, report, *self.store_args(tmp_path)
            ) == 0
        assert "ok (+0.0% vs median)" in capsys.readouterr().out

    def test_injected_wall_time_regression_gates(self, tmp_path, capsys):
        steady = make_report([make_run("a", seconds=1.0)])
        for _ in range(3):
            assert run_main(
                tmp_path, steady, steady, *self.store_args(tmp_path)
            ) == 0
        slow = make_report([make_run("a", seconds=1.6)])
        # The fresh-vs-baseline time gate needs --min-seconds above the
        # case; only the store trend should fire here.
        assert run_main(
            tmp_path, steady, slow, *self.store_args(tmp_path),
            "--min-seconds", "5.0",
        ) == 1
        err = capsys.readouterr().err
        assert "store trend a@0.004: wall time 1.600s" in err
        assert "vs median 1.000s" in err

    def test_hash_flip_in_history_gates_without_timing(self, tmp_path):
        steady = make_report([make_run("a", placement_hash="aaaa")])
        for _ in range(2):
            run_main(tmp_path, steady, steady, *self.store_args(tmp_path))
        flipped = make_report([make_run("a", placement_hash="bbbb")])
        # Baseline is also flipped so only the store history detects it.
        assert run_main(
            tmp_path, flipped, flipped, *self.store_args(tmp_path)
        ) == 1
