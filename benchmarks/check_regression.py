"""Bench regression gate: compare a fresh BENCH_mgl.json to a baseline.

CI generates a fresh report with ``bench_perf.py`` and compares it to the
committed ``BENCH_mgl.json``.  Two classes of failure:

* **Hash change** (always fatal): any benchmark case present in both
  reports whose placement hash differs.  The legalizer is deterministic
  across machines and Python versions, so a hash change means the
  algorithm's output changed — which must be a deliberate, reviewed
  baseline update, never an accident.
* **Wall-time regression** (tolerance-gated): a case slower than
  ``baseline * (1 + --max-regression)``.  Times are noisy across
  machines, so only cases whose *baseline* time is at least
  ``--min-seconds`` participate, and the threshold is generous by
  default (25%).  Machines slower than the baseline recorder would
  false-positive here; CI runners are faster than the recording box, so
  in practice this only trips on genuine algorithmic slowdowns.

Alongside the gates, the script prints **counter deltas** (insertion
points evaluated, window expansions) for every
common case whose counters moved — machine-independent early warning
that the search explored differently even when hashes and times pass —
and an explicit ``WARNING`` for every case present in only one report,
so a shrunken fresh run can't silently pass against a full baseline.

Two optional gates ride along: a **tracing-overhead** gate (fatal when
the fresh report's ``tracing_overhead`` section shows sampled tracing
costing more than ``--max-trace-overhead`` percent, or perturbing the
placement at all) and a **run-store trend** gate (``--store DIR``
appends the fresh report to a persistent store and compares each case
against the *median* of its stored history — the cross-run complement
to the single-baseline comparison above).

Usage::

    python benchmarks/check_regression.py BENCH_mgl.json fresh.json
    python benchmarks/check_regression.py baseline.json fresh.json \
        --max-regression 0.25 --min-seconds 0.5
    PYTHONPATH=src python benchmarks/check_regression.py \
        BENCH_mgl.json fresh.json --store .repro-runs

Exit status 0 when clean, 1 on any failure (each printed to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional


def load_report(path: str) -> Dict[str, object]:
    with open(path) as handle:
        data: Dict[str, object] = json.load(handle)
    return data


def compare_hashes(
    baseline: Dict[str, object], fresh: Dict[str, object]
) -> List[str]:
    """Fatal mismatches among cases present in both reports."""
    base_hashes = baseline.get("hashes")
    fresh_hashes = fresh.get("hashes")
    if not isinstance(base_hashes, dict) or not isinstance(fresh_hashes, dict):
        return ["missing 'hashes' section in one of the reports"]
    failures = []
    common = sorted(set(base_hashes) & set(fresh_hashes))
    if not common:
        failures.append("no common benchmark cases between the reports")
    for key in common:
        if base_hashes[key] != fresh_hashes[key]:
            failures.append(
                f"{key}: placement hash changed "
                f"{base_hashes[key]} -> {fresh_hashes[key]}"
            )
    return failures


def one_sided_cases(
    baseline: Dict[str, object], fresh: Dict[str, object]
) -> List[str]:
    """Warnings for cases present in only one of the two reports.

    Not fatal — quick mode legitimately runs a subset of the full
    baseline — but always surfaced, so a fresh report that silently
    dropped cases can't masquerade as a clean full run.
    """
    base_hashes = baseline.get("hashes")
    fresh_hashes = fresh.get("hashes")
    if not isinstance(base_hashes, dict) or not isinstance(fresh_hashes, dict):
        return []
    warnings = []
    only_base = sorted(set(base_hashes) - set(fresh_hashes))
    only_fresh = sorted(set(fresh_hashes) - set(base_hashes))
    if only_base:
        warnings.append(
            f"{len(only_base)} baseline case(s) missing from the fresh "
            f"report (not compared): {', '.join(only_base[:5])}"
            + (" ..." if len(only_base) > 5 else "")
        )
    if only_fresh:
        warnings.append(
            f"{len(only_fresh)} fresh case(s) absent from the baseline "
            f"(not compared): {', '.join(only_fresh[:5])}"
            + (" ..." if len(only_fresh) > 5 else "")
        )
    return warnings


COUNTER_FIELDS = ("insertions_evaluated", "window_expansions")


def compare_counters(
    baseline: Dict[str, object], fresh: Dict[str, object]
) -> List[str]:
    """Informational counter deltas for common cases whose work changed.

    A moved counter with an unchanged hash means the search explored
    differently but converged to the same placement — worth a look, not
    a failure.  Counters are machine-independent, so unlike wall time
    these deltas are exact.
    """
    def runs_by_key(report: Dict[str, object]) -> Dict[str, Dict[str, object]]:
        runs = report.get("runs")
        if not isinstance(runs, list):
            return {}
        return {
            f"{r['name']}@{r['scale']}": r
            for r in runs
            if isinstance(r, dict)
        }

    base_runs = runs_by_key(baseline)
    fresh_runs = runs_by_key(fresh)
    deltas = []
    for key in sorted(set(base_runs) & set(fresh_runs)):
        base_run, fresh_run = base_runs[key], fresh_runs[key]
        moved = []
        for metric in COUNTER_FIELDS:
            if metric not in base_run or metric not in fresh_run:
                continue
            base_v = float(base_run[metric])  # type: ignore[arg-type]
            fresh_v = float(fresh_run[metric])  # type: ignore[arg-type]
            if base_v == fresh_v:
                continue
            sign = "+" if fresh_v > base_v else ""
            moved.append(
                f"{metric} {int(base_v)} -> {int(fresh_v)} "
                f"({sign}{int(fresh_v - base_v)})"
            )
        if moved:
            deltas.append(f"{key}: " + ", ".join(moved))
    return deltas


def compare_times(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    max_regression: float,
    min_seconds: float,
) -> List[str]:
    """Wall-time regressions beyond tolerance, on comparable cases."""
    def runs_by_key(report: Dict[str, object]) -> Dict[str, float]:
        runs = report.get("runs")
        if not isinstance(runs, list):
            return {}
        return {
            f"{r['name']}@{r['scale']}": float(r["seconds"])
            for r in runs
            if isinstance(r, dict)
        }

    base_runs = runs_by_key(baseline)
    fresh_runs = runs_by_key(fresh)
    failures = []
    for key in sorted(set(base_runs) & set(fresh_runs)):
        base_s = base_runs[key]
        if base_s < min_seconds:
            continue  # Too fast to measure reliably across machines.
        fresh_s = fresh_runs[key]
        if fresh_s > base_s * (1.0 + max_regression):
            failures.append(
                f"{key}: {fresh_s:.3f}s vs baseline {base_s:.3f}s "
                f"(+{100.0 * (fresh_s / base_s - 1.0):.0f}%, "
                f"limit +{100.0 * max_regression:.0f}%)"
            )
    return failures


def check_parallel_section(fresh: Dict[str, object]) -> List[str]:
    """The fresh report's serial-vs-workers hashes must agree."""
    section = fresh.get("parallel")
    if section is None:
        return []  # Section skipped (--no-parallel-section).
    if not isinstance(section, dict):
        return ["malformed 'parallel' section in the fresh report"]
    if not section.get("hashes_match", False):
        return [
            f"{section.get('name')}: parallel placement hash "
            f"{section.get('parallel_hash')} diverged from serial "
            f"{section.get('serial_hash')}"
        ]
    return []


def check_backend_section(fresh: Dict[str, object]) -> List[str]:
    """The fresh report's scalar-vs-vector gates must hold.

    The vector backend is only legitimate while it reproduces the scalar
    oracle bit-exactly — same placement hash and same number of
    insertion points evaluated — so either mismatch is fatal, as is a
    diverged stacked (vector + workers) placement.
    """
    section = fresh.get("backend")
    if section is None:
        return []  # Section skipped (--no-backend-section) or old report.
    if not isinstance(section, dict):
        return ["malformed 'backend' section in the fresh report"]
    failures = []
    if not section.get("hashes_match", False):
        failures.append(
            f"{section.get('name')}: vector placement hash "
            f"{section.get('vector_hash')} diverged from scalar "
            f"{section.get('scalar_hash')}"
        )
    if not section.get("evals_match", False):
        failures.append(
            f"{section.get('name')}: vector insertions_evaluated diverged "
            f"from scalar"
        )
    if not section.get("stacked_hashes_match", False):
        failures.append(
            f"{section.get('name')}: stacked (vector + workers) placement "
            f"diverged from the scalar run at the same capacity"
        )
    return failures


def check_trace_section(fresh: Dict[str, object]) -> List[str]:
    """The fresh report's trace-structure determinism gate must hold."""
    section = fresh.get("trace_determinism")
    if section is None:
        return []  # Section skipped (--no-trace-section) or old report.
    if not isinstance(section, dict):
        return ["malformed 'trace_determinism' section in the fresh report"]
    failures = []
    if not section.get("structure_match", False):
        failures.append(
            f"{section.get('name')}: trace structure hash "
            f"{section.get('parallel_structure_hash')} ({section.get('workers')}"
            f" workers) diverged from serial "
            f"{section.get('serial_structure_hash')}"
        )
    if not section.get("hashes_match", False):
        failures.append(
            f"{section.get('name')}: traced parallel placement diverged "
            f"from the traced serial run"
        )
    return failures


def check_overhead_section(
    fresh: Dict[str, object],
    max_overhead_pct: float,
    min_seconds: float,
) -> List[str]:
    """The fresh report's tracing-overhead gates must hold.

    Hash divergence between the untraced and sampled-traced run is
    always fatal (observability must never perturb the placement); the
    overhead percentage is gated against ``--max-trace-overhead`` when
    the untraced run is long enough to measure reliably.
    """
    section = fresh.get("tracing_overhead")
    if section is None:
        return []  # Section skipped (--no-overhead-section / quick mode).
    if not isinstance(section, dict):
        return ["malformed 'tracing_overhead' section in the fresh report"]
    failures = []
    name = section.get("name")
    if not section.get("hashes_match", False):
        failures.append(
            f"{name}: sampled-traced placement "
            f"{section.get('sampled_hash')} diverged from the untraced "
            f"run {section.get('plain_hash')}"
        )
    plain_seconds = float(section.get("plain_seconds", 0.0))  # type: ignore[arg-type]
    overhead = float(section.get("overhead_pct", 0.0))  # type: ignore[arg-type]
    if plain_seconds >= min_seconds and overhead > max_overhead_pct:
        failures.append(
            f"{name}: sampled tracing overhead +{overhead:.1f}% exceeds "
            f"the {max_overhead_pct:.0f}% budget "
            f"(k={section.get('sample_every')}, "
            f"plain {plain_seconds:.3f}s vs "
            f"{float(section.get('sampled_seconds', 0.0)):.3f}s)"  # type: ignore[arg-type]
        )
    return failures


def check_store_trends(
    fresh: Dict[str, object],
    store_dir: str,
    max_drift_pct: float,
    history: int,
) -> List[str]:
    """Append the fresh report to a run store and gate on its trends.

    The store accumulates one record per bench case across CI runs
    (seeded via actions/cache), so the wall-time gate compares against
    the **median of history** rather than one committed number — a
    slow runner in the history shifts the median far less than it
    shifts a single baseline.  Each appended key is trended after the
    append; a key needs three stored runs before its time gate engages,
    so a cold store passes trivially while it warms up.
    """
    from repro.obs.runstore import RunStore

    store = RunStore(store_dir)
    added = store.add_bench_report(fresh, label="ci")
    keys = []
    for record in store.records():
        if record.get("id") in set(added):
            key = record.get("key")
            if isinstance(key, str) and key not in keys:
                keys.append(key)
    failures = []
    for key in keys:
        trend = store.trend(key, last=history, max_drift_pct=max_drift_pct)
        if trend.flagged:
            failures.append(f"store trend {key}: {trend.reason}")
        else:
            drift = (
                f"{trend.drift_pct:+.1f}% vs median"
                if trend.drift_pct is not None
                else f"{trend.runs} run(s), trend not yet callable"
            )
            print(f"store trend {key}: ok ({drift})")
    print(
        f"run store {store_dir}: appended {len(added)} record(s), "
        f"{len(store.records())} total"
    )
    return failures


def check_sharded_section(
    fresh: Dict[str, object], max_disp_growth: float
) -> List[str]:
    """The fresh report's sharded-legalization gates must hold.

    Three hard gates plus one budget: the sharded placement must be
    checker-legal; ``shards=1`` must reproduce the unsharded placement
    bit-exactly; workers 0 and N must agree bit-exactly at the fixed
    topology; and the average-displacement drift of the sharded
    topology over the unsharded baseline must stay within
    ``max_disp_growth`` (cross-topology drift is expected and bounded,
    never silent).
    """
    section = fresh.get("sharded")
    if section is None:
        return []  # Section skipped (--no-sharded-section) or old report.
    if not isinstance(section, dict):
        return ["malformed 'sharded' section in the fresh report"]
    failures = []
    name = section.get("name")
    if not section.get("legal", False):
        failures.append(
            f"{name}: sharded placement is not legal "
            f"({section.get('violations')} violations)"
        )
    if not section.get("shards1_match", False):
        failures.append(
            f"{name}: shards=1 placement {section.get('shards1_hash')} "
            f"diverged from the unsharded path "
            f"{section.get('baseline_hash')}"
        )
    if not section.get("workers_match", False):
        failures.append(
            f"{name}: sharded placement {section.get('sharded_workers_hash')}"
            f" ({section.get('workers')} workers) diverged from serial "
            f"{section.get('sharded_hash')} at the same topology"
        )
    drift = float(section.get("disp_delta_pct", 0.0))  # type: ignore[arg-type]
    if drift > 100.0 * max_disp_growth:
        failures.append(
            f"{name}: sharded avg displacement drifted "
            f"+{drift:.1f}% over the unsharded baseline "
            f"(budget +{100.0 * max_disp_growth:.0f}%)"
        )
    return failures


def render_summary(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    failures: List[str],
) -> str:
    """Markdown job summary: per-case table plus the sharded story.

    Written to ``--summary`` (CI points it at ``$GITHUB_STEP_SUMMARY``)
    so a regression is readable from the run page without downloading
    artifacts.
    """
    lines = ["## Bench regression", ""]
    base_hashes = baseline.get("hashes")
    fresh_runs = fresh.get("runs")
    if isinstance(fresh_runs, list) and fresh_runs:
        lines += [
            "| case | cells | time (s) | cells/sec | hash |",
            "|------|------:|---------:|----------:|------|",
        ]
        for run in fresh_runs:
            if not isinstance(run, dict):
                continue
            key = f"{run['name']}@{run['scale']}"
            if not isinstance(base_hashes, dict) or key not in base_hashes:
                status = "new"
            elif base_hashes[key] == run["placement_hash"]:
                status = "match"
            else:
                status = "**CHANGED**"
            lines.append(
                f"| {key} | {run.get('cells')} | {run.get('seconds')} "
                f"| {run.get('cells_per_sec')} | {status} |"
            )
        lines.append("")
    overhead = fresh.get("tracing_overhead")
    if isinstance(overhead, dict):
        status = (
            "ok" if overhead.get("hashes_match") else "**HASH DIVERGED**"
        )
        spread = (
            f", median of {overhead['pairs']} pairs, quartiles "
            f"{overhead.get('overhead_q1_pct')}% to "
            f"{overhead.get('overhead_q3_pct')}%"
            if "pairs" in overhead
            else ""
        )
        lines += [
            "### Tracing overhead",
            "",
            f"Sampled (k={overhead.get('sample_every')}) vs untraced on "
            f"{overhead.get('name')}@{overhead.get('scale')}: "
            f"{overhead.get('plain_seconds')}s -> "
            f"{overhead.get('sampled_seconds')}s "
            f"(**{overhead.get('overhead_pct')}%**{spread}), "
            f"{overhead.get('span_count')} spans, "
            f"{overhead.get('progress_events')} progress events — "
            f"{status}.",
            "",
        ]
    sharded = fresh.get("sharded")
    if isinstance(sharded, dict):
        lines += [
            "### Sharded legalization",
            "",
            "| cells | shards | workers | cells/sec | reconciled "
            "| disp drift | hashes |",
            "|------:|-------:|--------:|----------:|-----------:"
            "|-----------:|--------|",
        ]
        hash_status = (
            "ok"
            if sharded.get("shards1_match")
            and sharded.get("workers_match")
            and sharded.get("legal")
            else "**FAIL**"
        )
        lines += [
            f"| {sharded.get('cells')} | {sharded.get('shards_effective')} "
            f"| {sharded.get('workers')} | {sharded.get('cells_per_sec')} "
            f"| {sharded.get('reconciled')} "
            f"| {sharded.get('disp_delta_pct')}% | {hash_status} |",
            "",
        ]
    if failures:
        lines += [f"**{len(failures)} regression(s):**", ""]
        lines += [f"- {failure}" for failure in failures]
    else:
        count = len(base_hashes) if isinstance(base_hashes, dict) else 0
        lines.append(f"Regression gate clean ({count} baseline cases).")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument("fresh", help="freshly generated report")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        metavar="FRAC",
                        help="allowed fractional wall-time growth "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--min-seconds", type=float, default=0.5,
                        help="skip the time check for baseline runs "
                             "faster than this (default 0.5s)")
    parser.add_argument("--no-time-check", action="store_true",
                        help="only enforce the hash gates")
    parser.add_argument("--max-shard-disp-growth", type=float, default=0.25,
                        metavar="FRAC",
                        help="allowed fractional average-displacement "
                             "growth of the sharded topology over the "
                             "unsharded baseline (default 0.25 = +25%%)")
    parser.add_argument("--max-trace-overhead", type=float, default=5.0,
                        metavar="PCT",
                        help="allowed sampled-tracing wall overhead in "
                             "percent, when the fresh report carries a "
                             "tracing_overhead section (default 5)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="append the fresh report to the run store in "
                             "DIR and gate wall time on the median of "
                             "stored history (needs PYTHONPATH=src)")
    parser.add_argument("--store-history", type=int, default=10,
                        metavar="N",
                        help="history window per key for the --store "
                             "trend gate (default 10)")
    parser.add_argument("--summary", default=None, metavar="FILE",
                        help="append a markdown summary table to FILE "
                             "(CI passes $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)

    baseline = load_report(args.baseline)
    fresh = load_report(args.fresh)

    failures = compare_hashes(baseline, fresh)
    failures += check_parallel_section(fresh)
    failures += check_backend_section(fresh)
    failures += check_trace_section(fresh)
    failures += check_overhead_section(
        fresh, args.max_trace_overhead, args.min_seconds
    )
    failures += check_sharded_section(fresh, args.max_shard_disp_growth)
    if not args.no_time_check:
        failures += compare_times(
            baseline, fresh, args.max_regression, args.min_seconds
        )
    if args.store:
        failures += check_store_trends(
            fresh, args.store, 100.0 * args.max_regression,
            args.store_history,
        )

    for warning in one_sided_cases(baseline, fresh):
        print(f"WARNING: {warning}", file=sys.stderr)
    deltas = compare_counters(baseline, fresh)
    if deltas:
        print("counter deltas on common cases:")
        for delta in deltas:
            print(f"  {delta}")
    else:
        print("counter deltas on common cases: none")

    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(render_summary(baseline, fresh, failures))

    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        base_hashes = baseline.get("hashes")
        count = len(base_hashes) if isinstance(base_hashes, dict) else 0
        print(f"regression gate clean ({count} baseline cases)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
