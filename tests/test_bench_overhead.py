"""Tests for the tracing-overhead section of benchmarks/bench_perf.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench_perf", ROOT / "benchmarks" / "bench_perf.py"
)
bench_perf = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_perf)


def stub_runner(plain, sampled):
    """A runner that returns canned seconds and logs which run it was."""
    calls = []
    plain_times, sampled_times = iter(plain), iter(sampled)

    def one_run(traced):
        calls.append(traced)
        return {"seconds": next(sampled_times if traced else plain_times)}

    return one_run, calls


def test_pairs_alternate_and_the_gate_reads_the_median_pair():
    one_run, calls = stub_runner(
        plain=[1.0, 1.0, 2.0, 1.0, 1.0],
        sampled=[1.02, 1.5, 2.08, 0.97, 1.03],
    )
    summary = bench_perf.time_overhead_pairs(one_run, 5)
    # Each pair runs back to back; the pairs alternate which goes first.
    assert calls == [False, True, True, False] * 2 + [False, True]
    assert summary["pair_overheads_pct"] == [2.0, 50.0, 4.0, -3.0, 3.0]
    # One slow pair (+50%) moves neither the median nor the quartiles.
    assert summary["overhead_pct"] == 3.0
    assert summary["overhead_q1_pct"] == 2.0
    assert summary["overhead_q3_pct"] == 4.0
    assert summary["pairs"] == 5
    assert summary["plain_seconds"] == 1.0
    assert summary["sampled_seconds"] == 1.03


def test_one_pair_is_refused():
    one_run, calls = stub_runner(plain=[1.0], sampled=[1.0])
    with pytest.raises(ValueError, match="at least 2 pairs"):
        bench_perf.time_overhead_pairs(one_run, 1)
    assert calls == []


def test_section_records_every_pair_and_matching_hashes():
    section = bench_perf.run_tracing_overhead_section(
        "des_perf_b_md2", 0.001, 4, pairs=2
    )
    assert section["pairs"] == 2
    assert len(section["pair_overheads_pct"]) == 2
    assert section["overhead_q1_pct"] <= section["overhead_pct"]
    assert section["overhead_pct"] <= section["overhead_q3_pct"]
    assert section["hashes_match"]
    assert section["plain_hash"] == section["sampled_hash"]
    assert section["span_count"] > 0
