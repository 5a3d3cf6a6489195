"""Render and diff run artifacts (``repro report``).

A *run* is located either by a directory holding the conventional
``profile.json`` / ``manifest.json`` / ``trace.json`` trio (what
``repro legalize --run-dir`` writes) or by a profile JSON path whose
manifest sits beside it per
:func:`repro.obs.manifest.manifest_path_for`.  One run renders as a
readable summary; two runs render as a diff: manifest mismatches,
counter/timing deltas, histogram drift, and an explicit list of metrics
present in only one run (never silently skipped).

A ``BENCH_mgl.json``-shaped file (a ``suite`` plus per-case ``runs``,
what ``benchmarks/bench_perf.py`` writes) is recognized by shape and
renders as the benchmark table with its parallel / backend / trace
determinism sections; two bench reports diff case-by-case — wall-time
deltas and, fatally interesting, placement-hash changes.

When a run's profile carries the ``scheduler.batch_occupancy``
histogram and its manifest records the scheduler capacity, the summary
ends with :mod:`repro.obs.autotune`'s capacity advice; sharded runs add
its band-sizing advice.  A run directory's ``metrics.prom`` snapshot is
parsed (:func:`repro.obs.metrics.parse_prometheus`) so two-run diffs
include per-series Prometheus deltas, and its ``trace.jsonl`` feeds the
span-profile view (``repro report --profile``) via
:func:`span_profile_for`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.autotune import advice_for_run, band_advice_for_run
from repro.obs.manifest import diff_manifests, load_manifest, manifest_path_for
from repro.obs.metrics import parse_prometheus

__all__ = [
    "RunArtifacts",
    "load_run",
    "render_diff",
    "render_metrics",
    "render_run",
    "span_profile_for",
]

PathLike = Union[str, Path]

JsonDict = Dict[str, Any]


@dataclass
class RunArtifacts:
    """Everything found for one run; absent artifacts stay None."""

    root: Path
    profile: Optional[JsonDict] = None
    manifest: Optional[JsonDict] = None
    trace_path: Optional[Path] = None
    trace_jsonl_path: Optional[Path] = None
    #: Flat series map parsed from the run dir's ``metrics.prom``.
    prom: Optional[Dict[str, float]] = None
    bench: Optional[JsonDict] = None
    problems: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return str(self.root)


def _read_json(path: Path) -> JsonDict:
    with open(path) as handle:
        data: JsonDict = json.load(handle)
    return data


def load_run(path: PathLike) -> RunArtifacts:
    """Locate a run's artifacts from a directory or a profile path."""
    root = Path(path)
    run = RunArtifacts(root=root)
    if root.is_dir():
        profile_path = root / "profile.json"
        manifest_path = root / "manifest.json"
        trace_path = root / "trace.json"
    elif root.exists():
        data = _read_json(root)
        if isinstance(data.get("runs"), list) and "suite" in data:
            run.bench = data  # bench_perf.py report, not a run trio
            return run
        profile_path = root
        manifest_path = manifest_path_for(root)
        trace_path = Path()  # No sidecar-trace convention for bare files.
    else:
        run.problems.append(f"{root}: no such run directory or profile")
        return run
    if profile_path.is_file():
        run.profile = _read_json(profile_path)
    else:
        run.problems.append(f"{root}: no profile ({profile_path.name} missing)")
    if manifest_path.is_file():
        run.manifest = load_manifest(manifest_path)
    else:
        run.problems.append(
            f"{root}: no manifest ({manifest_path.name} missing)"
        )
    if trace_path.is_file():
        run.trace_path = trace_path
    if root.is_dir():
        jsonl_path = root / "trace.jsonl"
        if jsonl_path.is_file():
            run.trace_jsonl_path = jsonl_path
        prom_path = root / "metrics.prom"
        if prom_path.is_file():
            run.prom = parse_prometheus(prom_path.read_text())
    return run


def span_profile_for(run: RunArtifacts) -> Optional[Any]:
    """The run's :class:`~repro.obs.profile.SpanProfile`, if derivable.

    Prefers a stored ``span_profile.json`` (what the run store keeps),
    falling back to folding the run dir's ``trace.jsonl``.  Returns
    None when the run carries neither.
    """
    from repro.obs.profile import (
        fold_spans,
        load_trace_jsonl,
        profile_from_dict,
    )

    stored = run.root / "span_profile.json" if run.root.is_dir() else None
    if stored is not None and stored.is_file():
        return profile_from_dict(_read_json(stored))
    if run.trace_jsonl_path is not None:
        return fold_spans(load_trace_jsonl(str(run.trace_jsonl_path)))
    return None


# ----------------------------------------------------------------------
# Single-run rendering
# ----------------------------------------------------------------------


def _section(profile: Optional[JsonDict], key: str) -> JsonDict:
    if not profile:
        return {}
    section = profile.get(key)
    return section if isinstance(section, dict) else {}


def _render_manifest(manifest: JsonDict, lines: List[str]) -> None:
    design = manifest.get("design") or {}
    lines.append("manifest")
    lines.append(
        f"  design          {design.get('name')} "
        f"({design.get('cells')} cells, {design.get('rows')} rows, "
        f"digest {design.get('digest')})"
    )
    lines.append(
        f"  run             workers={manifest.get('workers')} "
        f"seed={manifest.get('seed')} "
        f"placement_hash={manifest.get('placement_hash')}"
    )
    if manifest.get("trace_structure_hash"):
        lines.append(
            f"  trace           structure_hash="
            f"{manifest.get('trace_structure_hash')}"
        )
    lines.append(
        f"  environment     repro {manifest.get('package_version')}, "
        f"Python {manifest.get('python_version')}, "
        f"{manifest.get('platform')}"
    )
    params = manifest.get("params") or {}
    if params:
        rendered = " ".join(
            f"{key}={params[key]}" for key in sorted(params)
        )
        lines.append(f"  params          {rendered}")


def _render_histogram(name: str, data: JsonDict, lines: List[str]) -> None:
    counts = data.get("counts") or []
    bounds = data.get("bounds") or []
    lines.append(
        f"  {name}: count={data.get('count')} mean={data.get('mean')}"
    )
    peak = max((int(count) for count in counts), default=0)
    labels = [f"<={bound:g}" for bound in bounds] + ["inf"]
    for label, count in zip(labels, counts):
        if not count:
            continue
        bar = "#" * max(1, round(24 * int(count) / peak)) if peak else ""
        lines.append(f"    {label:>8s} {int(count):>8d} {bar}")


def _bench_runs(bench: JsonDict) -> Dict[str, JsonDict]:
    runs = bench.get("runs")
    if not isinstance(runs, list):
        return {}
    return {
        f"{record['name']}@{record['scale']}": record
        for record in runs
        if isinstance(record, dict)
    }


def _render_bench(bench: JsonDict, lines: List[str]) -> None:
    lines.append(
        f"benchmark suite: {bench.get('suite')} "
        f"(scales {bench.get('scales')})"
    )
    for key, record in sorted(_bench_runs(bench).items()):
        lines.append(
            f"  {str(record.get('name')):20s} scale={record.get('scale'):<6g} "
            f"cells={int(record.get('cells', 0)):>6d} "
            f"{float(record.get('seconds', 0.0)):>8.3f}s "
            f"{float(record.get('cells_per_sec', 0.0)):>8.1f} c/s "
            f"evals={int(record.get('insertions_evaluated', 0)):>8d} "
            f"hash={record.get('placement_hash')}"
        )
    parallel = bench.get("parallel")
    if isinstance(parallel, dict):
        lines.append(
            f"  parallel        {parallel.get('name')}: "
            f"workers={parallel.get('workers')} "
            f"speedup {parallel.get('speedup')}x "
            f"(on {parallel.get('cpu_count')} cpus) "
            f"hashes_match={parallel.get('hashes_match')}"
        )
    backend = bench.get("backend")
    if isinstance(backend, dict):
        lines.append(
            f"  backend         {backend.get('name')}: "
            f"vector {backend.get('vector_vs_scalar')}x serial, "
            f"stacked {backend.get('stacked_vs_scalar')}x "
            f"(on {backend.get('cpu_count')} cpus) "
            f"hashes_match={backend.get('hashes_match')} "
            f"evals_match={backend.get('evals_match')}"
        )
    trace = bench.get("trace_determinism")
    if isinstance(trace, dict):
        lines.append(
            f"  trace           {trace.get('name')}: "
            f"spans={trace.get('span_count')} "
            f"structure_match={trace.get('structure_match')} "
            f"hashes_match={trace.get('hashes_match')}"
        )


def render_metrics(profile: Optional[JsonDict]) -> List[str]:
    """The timings, counters, gauges and histograms of one profile.

    ``profile`` is a :meth:`MetricsRegistry.as_dict` snapshot (a run's
    ``profile.json``).  Each timing's share is of the total over the
    stage timings, the names without a dot: dotted sub-timers such as
    the ``parallel.worker<i>`` busy timers run inside a stage, so they
    show a share of that total but do not add to it.
    """
    lines: List[str] = []
    timings = _section(profile, "timings")
    if timings:
        lines.append("timings")
        total = sum(
            float(seconds)
            for name, seconds in timings.items()
            if "." not in name
        )
        for name in sorted(timings, key=lambda key: -float(timings[key])):
            seconds = float(timings[name])
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"  {name:24s} {seconds:9.3f}s  {share:5.1f}%")
    counters = _section(profile, "counters")
    if counters:
        lines.append("counters")
        for name in sorted(counters):
            lines.append(f"  {name:32s} {int(counters[name]):>12d}")
    gauges = _section(profile, "gauges")
    if gauges:
        lines.append("gauges")
        for name in sorted(gauges):
            lines.append(f"  {name:32s} {float(gauges[name]):>12.4f}")
    histograms = _section(profile, "histograms")
    if histograms:
        lines.append("histograms")
        for name in sorted(histograms):
            _render_histogram(name, histograms[name], lines)
    return lines


def render_run(run: RunArtifacts) -> str:
    """Human-readable summary of one run."""
    lines = [f"run: {run.label}"]
    for problem in run.problems:
        lines.append(f"  warning: {problem}")
    if run.bench is not None:
        _render_bench(run.bench, lines)
        return "\n".join(lines)
    if run.manifest:
        _render_manifest(run.manifest, lines)
    lines.extend(render_metrics(run.profile))
    if run.trace_path is not None:
        lines.append(f"trace: {run.trace_path} (load at https://ui.perfetto.dev)")
    advice = advice_for_run(run.profile, run.manifest)
    if advice is not None:
        lines.append(f"autotune: {advice.render()}")
    bands = band_advice_for_run(run.profile, run.manifest)
    if bands is not None:
        lines.append(f"autotune: {bands.render()}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Two-run diff
# ----------------------------------------------------------------------


def _fmt_delta(old: float, new: float) -> str:
    if old == new:
        return "unchanged"
    if old == 0:
        return f"{old:g} -> {new:g}"
    return f"{old:g} -> {new:g} ({100.0 * (new / old - 1.0):+.1f}%)"


def _diff_numeric_section(
    a: JsonDict, b: JsonDict, title: str, lines: List[str]
) -> None:
    common = sorted(set(a) & set(b))
    changed = [key for key in common if a[key] != b[key]]
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    if not changed and not only_a and not only_b:
        return
    lines.append(title)
    for key in changed:
        lines.append(
            f"  {key:32s} {_fmt_delta(float(a[key]), float(b[key]))}"
        )
    if only_a:
        lines.append(f"  only in first:  {', '.join(only_a)}")
    if only_b:
        lines.append(f"  only in second: {', '.join(only_b)}")


def _diff_histograms(a: JsonDict, b: JsonDict, lines: List[str]) -> None:
    names = sorted(set(a) | set(b))
    rendered: List[str] = []
    for name in names:
        if name not in a or name not in b:
            where = "first" if name in a else "second"
            rendered.append(f"  {name}: only in {where}")
            continue
        ha, hb = a[name], b[name]
        if ha == hb:
            continue
        rendered.append(
            f"  {name}: count {_fmt_delta(float(ha.get('count', 0)), float(hb.get('count', 0)))}, "
            f"mean {_fmt_delta(float(ha.get('mean', 0.0)), float(hb.get('mean', 0.0)))}"
        )
        bounds = ha.get("bounds") or []
        labels = [f"<={bound:g}" for bound in bounds] + ["inf"]
        counts_a = ha.get("counts") or []
        counts_b = hb.get("counts") or []
        for label, count_a, count_b in zip(labels, counts_a, counts_b):
            if count_a != count_b:
                rendered.append(
                    f"    {label:>8s} {int(count_a)} -> {int(count_b)}"
                )
    if rendered:
        lines.append("histogram drift")
        lines.extend(rendered)


def _diff_bench(a: JsonDict, b: JsonDict, lines: List[str]) -> None:
    runs_a, runs_b = _bench_runs(a), _bench_runs(b)
    hash_changes = [
        f"  {key}: placement hash {runs_a[key].get('placement_hash')} -> "
        f"{runs_b[key].get('placement_hash')}"
        for key in sorted(set(runs_a) & set(runs_b))
        if runs_a[key].get("placement_hash") != runs_b[key].get("placement_hash")
    ]
    if hash_changes:
        lines.append("placement hash changes (determinism drift!)")
        lines.extend(hash_changes)
    else:
        lines.append("placement hashes agree on all common cases")
    _diff_numeric_section(
        {key: run.get("seconds", 0.0) for key, run in runs_a.items()},
        {key: run.get("seconds", 0.0) for key, run in runs_b.items()},
        "wall-time deltas (seconds)",
        lines,
    )
    _diff_numeric_section(
        {
            key: run.get("insertions_evaluated", 0)
            for key, run in runs_a.items()
        },
        {
            key: run.get("insertions_evaluated", 0)
            for key, run in runs_b.items()
        },
        "insertions-evaluated deltas",
        lines,
    )


def render_diff(a: RunArtifacts, b: RunArtifacts) -> str:
    """Diff of two runs: manifests, timings, counters, gauges, histograms."""
    lines = [f"diff: {a.label}  vs  {b.label}"]
    for run in (a, b):
        for problem in run.problems:
            lines.append(f"  warning: {problem}")
    if a.bench is not None and b.bench is not None:
        _diff_bench(a.bench, b.bench, lines)
        return "\n".join(lines)
    if a.bench is not None or b.bench is not None:
        lines.append(
            "  warning: one side is a benchmark report, the other a run "
            "directory — nothing comparable"
        )
        return "\n".join(lines)
    if a.manifest and b.manifest:
        mismatches = diff_manifests(a.manifest, b.manifest)
        if mismatches:
            lines.append("manifest diff")
            lines.extend(f"  {line}" for line in mismatches)
        else:
            lines.append("manifests agree")
    _diff_numeric_section(
        _section(a.profile, "timings"),
        _section(b.profile, "timings"),
        "timing deltas (seconds)",
        lines,
    )
    _diff_numeric_section(
        _section(a.profile, "counters"),
        _section(b.profile, "counters"),
        "counter deltas",
        lines,
    )
    _diff_numeric_section(
        _section(a.profile, "gauges"),
        _section(b.profile, "gauges"),
        "gauge deltas",
        lines,
    )
    _diff_histograms(
        _section(a.profile, "histograms"),
        _section(b.profile, "histograms"),
        lines,
    )
    if a.prom is not None and b.prom is not None:
        _diff_numeric_section(
            dict(a.prom),
            dict(b.prom),
            "prometheus series deltas (metrics.prom)",
            lines,
        )
    elif a.prom is not None or b.prom is not None:
        where = "first" if a.prom is not None else "second"
        lines.append(f"  note: metrics.prom present only in {where} run")
    if len(lines) == 1:
        lines.append("no differences found")
    return "\n".join(lines)
