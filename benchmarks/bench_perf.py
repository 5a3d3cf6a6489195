"""MGL hot-path benchmark: wall time, throughput, and determinism hashes.

Runs the synthetic ICCAD-2017 suite through bare MGL (the stage this
repo's perf work targets) at three sizes and writes ``BENCH_mgl.json``
with, per run: wall time, cells/second, insertion points evaluated and
window expansions — plus a placement hash so two runs (or two
revisions) can be diffed for determinism drift.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full: 3 scales
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI smoke

``--quick`` runs the smallest scale on a case subset.  CI runs it twice
and fails when the two reports' hashes differ.

Both modes also run a **serial-vs-workers** section: the largest case is
legalized with ``scheduler_workers=0`` and with a process pool at the
same capacity; the report records the wall-clock speedup and the run
*fails* if the two placements are not bit-identical.  The speedup is
informational by default (it depends on the host's core count; this is
~1x on a single-core box) — pass ``--require-speedup X`` to enforce a
floor on capable machines.

A **scalar-vs-vector** section runs the big (``>=2k`` cells) scale with
``eval_backend=scalar`` and ``eval_backend=vector``: the placements and
``insertions_evaluated`` counts must be bit-identical (fatal when not),
and the report records both throughputs plus the ratio.  A second pair
stacks the vector backend on the process-pool scheduler at batch
capacity, against a scalar serial run at the same capacity — the
combined ratio is what multicore hosts see.  Like the worker speedup,
both ratios are informational by default (the serial ratio is
host-independent but modest; the stacked ratio scales with cores) —
``--require-backend-speedup X`` enforces a floor on the stacked ratio.

A **tracing-overhead** section legalizes the backend-scale case in
pairs of one untraced run and one run traced at ``sample_every=16``
with a live progress emitter attached, alternating which runs first:
the
placements must be bit-identical (fatal), and the median of the
per-pair wall overheads, with its quartiles, is recorded for the
``check_regression.py --max-trace-overhead`` budget gate.  Skipped in
``--quick`` mode unless ``--overhead-scale`` is given — tiny runs
measure timer noise, not tracing.

The consistency self-checks (``Occupancy.verify_consistent``) are
disabled so measured time is the algorithm, not the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.benchgen.suites import iccad2017_suite
from repro.core.mgl import MGLegalizer
from repro.core.occupancy import set_expensive_checks
from repro.core.params import LegalizerParams
from repro.model.placement import Placement
from repro.obs.manifest import build_manifest, placement_digest, write_manifest
from repro.obs.observer import Observer
from repro.obs.tracer import SpanTracer

SCALES = [0.004, 0.01, 0.02]
QUICK_SCALE = 0.004
QUICK_CASES = ["des_perf_b_md2", "fft_a_md2", "pci_bridge32_b_md3"]
# Scalar-vs-vector comparison case: >=2k cells (5634 at this scale).
BACKEND_SCALE = 0.05
BACKEND_CASE = "des_perf_b_md2"
# Sharded-legalization case: >=20k cells (the CI scale-tier gate).
SHARD_SCALE = 0.2
SHARD_CASE = "des_perf_b_md2"
SHARD_COUNT = 4
SHARD_HALO_ROWS = 2
# Tracing-overhead case: the sampling stride the <5% budget is quoted
# at, measured on the backend scale (big enough for stable wall times).
OVERHEAD_SCALE = BACKEND_SCALE
OVERHEAD_CASE = BACKEND_CASE
OVERHEAD_SAMPLE_EVERY = 16
# Untraced/sampled pairs the overhead gate takes its median over: one
# pair of runs swings by tens of percent on a busy 2-core host.
OVERHEAD_PAIRS = 5

RunRecord = Dict[str, Union[str, int, float]]


def placement_hash(placement: Placement) -> str:
    """Order-stable digest of all cell positions (manifest-compatible)."""
    return placement_digest(placement)


def run_mgl(
    design_name: str,
    scale: float,
    params: LegalizerParams,
) -> RunRecord:
    """Legalize one suite case with bare MGL and collect the record."""
    case = next(
        c for c in iccad2017_suite(scale=scale, names=[design_name])
    )
    design = case.build()
    legalizer = MGLegalizer(design, params)
    start = time.perf_counter()
    placement = legalizer.run()
    seconds = time.perf_counter() - start
    return {
        "name": design_name,
        "scale": scale,
        "cells": design.num_cells,
        "seconds": round(seconds, 4),
        "cells_per_sec": round(design.num_cells / seconds, 1),
        "insertions_evaluated": legalizer.stats["insertions_evaluated"],
        "window_expansions": legalizer.stats["window_expansions"],
        "scheduler_capacity": params.scheduler_capacity,
        "eval_backend": params.eval_backend,
        "placement_hash": placement_hash(placement),
    }


def run_parallel_section(
    name: str, scale: float, workers: int, capacity: int
) -> Dict[str, Union[str, int, float, bool]]:
    """Serial vs. process-pool comparison at a fixed scheduler capacity.

    Both runs use the same ``scheduler_capacity`` so the only variable
    is *where* evaluations execute; the placements must therefore be
    bit-identical (that assertion is the determinism gate CI relies on),
    and the wall-clock ratio is the measured multicore speedup.
    """
    serial = run_mgl(
        name, scale, LegalizerParams(scheduler_capacity=capacity)
    )
    parallel = run_mgl(
        name,
        scale,
        LegalizerParams(scheduler_capacity=capacity, scheduler_workers=workers),
    )
    return {
        "name": name,
        "scale": scale,
        "capacity": capacity,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "serial_seconds": serial["seconds"],
        "parallel_seconds": parallel["seconds"],
        "speedup": round(
            float(serial["seconds"]) / max(float(parallel["seconds"]), 1e-9), 3
        ),
        "serial_hash": serial["placement_hash"],
        "parallel_hash": parallel["placement_hash"],
        "hashes_match": serial["placement_hash"] == parallel["placement_hash"],
    }


def run_backend_section(
    name: str, scale: float, workers: int, capacity: int
) -> Dict[str, Union[str, int, float, bool]]:
    """Scalar-vs-vector equivalence and throughput on the big scale.

    The scalar backend is the oracle: the vector backend must reproduce
    its placement *and* its ``insertions_evaluated`` count bit-exactly
    (both are fatal gates in ``main``).  Two comparisons are recorded:

    * serial: backend is the only variable (capacity 1, no workers) —
      ``vector_vs_scalar`` is the host-independent vectorization gain;
    * stacked: vector backend + process pool at ``capacity`` against a
      scalar serial run at the same capacity — ``stacked_vs_scalar`` is
      the combined gain and grows with the host's core count.
    """
    scalar = run_mgl(name, scale, LegalizerParams(eval_backend="scalar"))
    vector = run_mgl(name, scale, LegalizerParams(eval_backend="vector"))
    scalar_cap = run_mgl(
        name,
        scale,
        LegalizerParams(eval_backend="scalar", scheduler_capacity=capacity),
    )
    stacked = run_mgl(
        name,
        scale,
        LegalizerParams(
            eval_backend="vector",
            scheduler_capacity=capacity,
            scheduler_workers=workers,
        ),
    )
    return {
        "name": name,
        "scale": scale,
        "cells": scalar["cells"],
        "capacity": capacity,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "scalar_seconds": scalar["seconds"],
        "vector_seconds": vector["seconds"],
        "scalar_cells_per_sec": scalar["cells_per_sec"],
        "vector_cells_per_sec": vector["cells_per_sec"],
        "vector_vs_scalar": round(
            float(scalar["seconds"]) / max(float(vector["seconds"]), 1e-9), 3
        ),
        "stacked_seconds": stacked["seconds"],
        "stacked_cells_per_sec": stacked["cells_per_sec"],
        "stacked_vs_scalar": round(
            float(scalar_cap["seconds"])
            / max(float(stacked["seconds"]), 1e-9),
            3,
        ),
        "scalar_hash": scalar["placement_hash"],
        "vector_hash": vector["placement_hash"],
        "hashes_match": (
            scalar["placement_hash"] == vector["placement_hash"]
        ),
        "evals_match": (
            scalar["insertions_evaluated"] == vector["insertions_evaluated"]
        ),
        "stacked_hashes_match": (
            scalar_cap["placement_hash"] == stacked["placement_hash"]
        ),
        "insertions_evaluated": scalar["insertions_evaluated"],
    }


def run_trace_determinism_section(
    name: str,
    scale: float,
    workers: int,
    capacity: int,
    trace_dir: Optional[Path] = None,
) -> Dict[str, Union[str, int, float, bool]]:
    """Trace-structure determinism: workers 0 vs N at equal capacity.

    Both runs record a span tree; their *structure* hashes (names,
    attributes, children — timestamps excluded) and their placements
    must be bit-identical.  This is the CI gate for the repro.obs
    determinism contract.  When ``trace_dir`` is given, the serial run's
    Chrome trace and manifest are written there as build artifacts.
    """
    case = next(c for c in iccad2017_suite(scale=scale, names=[name]))
    tracers: Dict[int, SpanTracer] = {}
    placements: Dict[int, Placement] = {}
    for worker_count in (0, workers):
        design = case.build()
        params = LegalizerParams(
            scheduler_capacity=capacity, scheduler_workers=worker_count
        )
        tracer = SpanTracer()
        placements[worker_count] = MGLegalizer(
            design, params, observer=Observer(tracer=tracer)
        ).run()
        tracers[worker_count] = tracer
    serial_structure = tracers[0].structure_hash()
    parallel_structure = tracers[workers].structure_hash()
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracers[0].write_chrome_trace(str(trace_dir / "trace.json"))
        tracers[0].write_jsonl(str(trace_dir / "trace.jsonl"))
        design = case.build()
        write_manifest(
            build_manifest(
                design,
                LegalizerParams(scheduler_capacity=capacity),
                placements[0],
                trace_structure_hash=serial_structure,
            ),
            trace_dir / "manifest.json",
        )
    return {
        "name": name,
        "scale": scale,
        "capacity": capacity,
        "workers": workers,
        "span_count": tracers[0].span_count(),
        "serial_structure_hash": serial_structure,
        "parallel_structure_hash": parallel_structure,
        "structure_match": serial_structure == parallel_structure,
        "hashes_match": (
            placement_hash(placements[0]) == placement_hash(placements[workers])
        ),
    }


def run_sharded_section(
    name: str,
    scale: float,
    shards: int,
    halo_rows: int,
    workers: int,
    artifact_dir: Optional[Path] = None,
) -> Dict[str, Union[str, int, float, bool, None]]:
    """Sharded-vs-unsharded MGL at bench scale, with determinism gates.

    Four runs of the same case:

    * **baseline** — unsharded sequential MGL (the committed-hash path);
    * **shards1** — the sharded code path forced at ``shards=1``, which
      must reproduce the baseline bit-exactly (the shards=1 identity
      contract);
    * **sharded serial** (workers 0, traced) and **sharded pooled**
      (workers N) at the requested topology — these must match each
      other bit-exactly (the fixed-topology worker-invariance contract;
      tracing never perturbs placements).

    The sharded placement is checker-verified and its average movable
    displacement compared to the baseline; ``check_regression.py``
    gates the legality bit and the displacement drift.  When
    ``artifact_dir`` is given, the serial sharded run's trace and a
    manifest recording the shard topology are written there (the CI
    scale job uploads them).
    """
    from repro.checker.legality import check_legal
    from repro.core.mgl import MGLegalizer as MGL
    from repro.core.shard import run_sharded_mgl

    case = next(c for c in iccad2017_suite(scale=scale, names=[name]))

    def avg_disp(placement: Placement) -> float:
        cells = placement.design.movable_cells()
        if not cells:
            return 0.0
        return sum(placement.displacement(c) for c in cells) / len(cells)

    design = case.build()
    start = time.perf_counter()
    baseline_placement = MGL(design, LegalizerParams()).run()
    baseline_seconds = time.perf_counter() - start
    baseline_hash = placement_hash(baseline_placement)
    baseline_disp = avg_disp(baseline_placement)

    start = time.perf_counter()
    shards1_placement, _ = run_sharded_mgl(case.build(), LegalizerParams())
    shards1_seconds = time.perf_counter() - start
    shards1_hash = placement_hash(shards1_placement)

    sharded_params = LegalizerParams(shards=shards, shard_halo_rows=halo_rows)
    tracer = SpanTracer()
    design = case.build()
    serial_legalizer = MGL(
        design, sharded_params, observer=Observer(tracer=tracer)
    )
    start = time.perf_counter()
    serial_placement = serial_legalizer.run()
    serial_seconds = time.perf_counter() - start
    serial_hash = placement_hash(serial_placement)
    topology = serial_legalizer.shard_topology
    assert topology is not None

    pooled_params = LegalizerParams(
        shards=shards, shard_halo_rows=halo_rows, scheduler_workers=workers
    )
    start = time.perf_counter()
    pooled_placement = MGL(case.build(), pooled_params).run()
    pooled_seconds = time.perf_counter() - start
    pooled_hash = placement_hash(pooled_placement)

    report = check_legal(serial_placement)
    sharded_disp = avg_disp(serial_placement)
    stats = serial_legalizer.stats

    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(str(artifact_dir / "shard_trace.json"))
        tracer.write_jsonl(str(artifact_dir / "shard_trace.jsonl"))
        write_manifest(
            build_manifest(
                design,
                sharded_params,
                serial_placement,
                trace_structure_hash=tracer.structure_hash(),
                shard_topology=topology.as_dict(),
            ),
            artifact_dir / "shard_manifest.json",
        )

    return {
        "name": name,
        "scale": scale,
        "cells": design.num_cells,
        "shards": shards,
        "shards_effective": len(topology.shards),
        "halo_rows": halo_rows,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "baseline_seconds": round(baseline_seconds, 4),
        "shards1_seconds": round(shards1_seconds, 4),
        "sharded_seconds": round(serial_seconds, 4),
        "sharded_workers_seconds": round(pooled_seconds, 4),
        "speedup": round(baseline_seconds / max(pooled_seconds, 1e-9), 3),
        "cells_per_sec": round(design.num_cells / max(pooled_seconds, 1e-9), 1),
        "baseline_hash": baseline_hash,
        "shards1_hash": shards1_hash,
        "sharded_hash": serial_hash,
        "sharded_workers_hash": pooled_hash,
        "shards1_match": shards1_hash == baseline_hash,
        "workers_match": serial_hash == pooled_hash,
        "legal": report.is_legal,
        "violations": len(report.all_messages()),
        "baseline_avg_disp": round(baseline_disp, 4),
        "sharded_avg_disp": round(sharded_disp, 4),
        "disp_delta_pct": round(
            100.0 * (sharded_disp - baseline_disp) / max(baseline_disp, 1e-9),
            2,
        ),
        "reconciled": stats.get("shard_reconciled", 0),
        "halo_cells": stats.get("shard_halo_cells", 0),
        "deferred": stats.get("shard_deferred", 0),
        "shard_fallbacks": stats.get("shard_fallbacks", 0),
        "shard_worker_failures": stats.get("shard_worker_failures", 0),
        "topology": topology.as_dict(),
    }


def time_overhead_pairs(
    one_run: Callable[[bool], RunRecord], pairs: int
) -> Dict[str, Union[int, float, List[float]]]:
    """Time untraced and traced runs in pairs; summarize their overheads.

    ``one_run(traced)`` legalizes once and returns a record with its
    ``seconds``.  Each pair is one untraced and one traced run back to
    back, so host drift slower than a pair cancels out of its overhead,
    and the pairs alternate which runs first, so neither configuration
    always inherits the other's warm or cold state.  Returns the median
    and quartiles of the per-pair overheads in percent, plus the median
    seconds of each configuration.
    """
    if pairs < 2:
        raise ValueError(f"need at least 2 pairs, got {pairs}")
    plain_seconds: List[float] = []
    sampled_seconds: List[float] = []
    overheads: List[float] = []
    for index in range(pairs):
        seconds: Dict[bool, float] = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            seconds[traced] = float(one_run(traced)["seconds"])
        plain, sampled = seconds[False], seconds[True]
        plain_seconds.append(plain)
        sampled_seconds.append(sampled)
        overheads.append(100.0 * (sampled - plain) / max(plain, 1e-9))
    q1, median, q3 = statistics.quantiles(overheads, n=4, method="inclusive")
    return {
        "pairs": pairs,
        "plain_seconds": round(statistics.median(plain_seconds), 4),
        "sampled_seconds": round(statistics.median(sampled_seconds), 4),
        "overhead_pct": round(median, 2),
        "overhead_q1_pct": round(q1, 2),
        "overhead_q3_pct": round(q3, 2),
        "pair_overheads_pct": [round(value, 2) for value in overheads],
    }


def run_tracing_overhead_section(
    name: str, scale: float, sample_every: int, pairs: int = OVERHEAD_PAIRS
) -> Dict[str, Union[str, int, float, bool, List[float]]]:
    """Untraced vs sampled-traced serial MGL: wall overhead + identity.

    The always-on observability budget: a run traced at
    ``sample_every=k`` with a live progress emitter attached must (a)
    produce the bit-identical placement of the un-instrumented run —
    fatal in ``main`` when it does not — and (b) cost only a few
    percent of wall time (``check_regression.py --max-trace-overhead``
    gates the percentage; ``--require-trace-overhead`` enforces it here
    directly).  The percentage is the median over ``pairs`` alternating
    untraced/sampled pairs (:func:`time_overhead_pairs`); a single pair
    cannot resolve 5% on a 2-core host.
    """
    from repro.obs.progress import ProgressEmitter

    case = next(c for c in iccad2017_suite(scale=scale, names=[name]))
    records: Dict[bool, List[RunRecord]] = {False: [], True: []}

    def one_run(traced: bool) -> RunRecord:
        design = case.build()
        tracer = SpanTracer(sample_every=sample_every) if traced else None
        events: List[Dict[str, object]] = []
        progress = (
            ProgressEmitter(callback=events.append, min_interval=0.05)
            if traced
            else None
        )
        legalizer = MGLegalizer(
            design,
            LegalizerParams(),
            observer=Observer(tracer=tracer, progress=progress),
        )
        start = time.perf_counter()
        placement = legalizer.run()
        seconds = time.perf_counter() - start
        record: RunRecord = {
            "seconds": seconds,
            "hash": placement_hash(placement),
            "cells": design.num_cells,
        }
        if tracer is not None:
            record["span_count"] = tracer.span_count()
            record["structure_hash"] = tracer.structure_hash()
            record["progress_events"] = len(events)
        records[traced].append(record)
        return record

    timing = time_overhead_pairs(one_run, pairs)
    plain, sampled = records[False][0], records[True][0]
    hashes = {str(r["hash"]) for r in records[False] + records[True]}
    return {
        "name": name,
        "scale": scale,
        "cells": int(plain["cells"]),
        "sample_every": sample_every,
        **timing,
        "plain_hash": str(plain["hash"]),
        "sampled_hash": str(sampled["hash"]),
        "hashes_match": len(hashes) == 1,
        "span_count": int(sampled["span_count"]),
        "structure_hash": str(sampled["structure_hash"]),
        "progress_events": int(sampled["progress_events"]),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smallest scale, case subset")
    parser.add_argument("--scales", type=float, nargs="+", default=None,
                        help=f"cell-count scales to run (default {SCALES})")
    parser.add_argument("--cases", nargs="+", default=None,
                        help="suite case names (default: whole suite)")
    parser.add_argument("-o", "--output", default="BENCH_mgl.json",
                        help="report path (default BENCH_mgl.json)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for the serial-vs-workers "
                             "section (default: 4, or 2 with --quick)")
    parser.add_argument("--parallel-capacity", type=int, default=None,
                        help="scheduler capacity for that section "
                             "(default: 32, or 8 with --quick)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the parallel section reaches X "
                             "speedup (use on machines with enough cores)")
    parser.add_argument("--no-parallel-section", action="store_true",
                        help="skip the serial-vs-workers comparison")
    parser.add_argument("--no-backend-section", action="store_true",
                        help="skip the scalar-vs-vector comparison")
    parser.add_argument("--require-backend-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the stacked (vector + workers) "
                             "configuration reaches X speedup over scalar "
                             "serial (use on machines with enough cores)")
    parser.add_argument("--no-sharded-section", action="store_true",
                        help="skip the sharded-legalization comparison")
    parser.add_argument("--sharded-case", default=None,
                        help="suite case for the sharded section "
                             f"(default {SHARD_CASE}, or the first quick "
                             "case with --quick)")
    parser.add_argument("--sharded-scale", type=float, default=None,
                        help="cell-count scale for the sharded section "
                             f"(default {SHARD_SCALE} — >=20k cells — or "
                             "the quick scale with --quick)")
    parser.add_argument("--shards", type=int, default=None,
                        help="row-band shard count for the sharded "
                             f"section (default {SHARD_COUNT}, or 2 with "
                             "--quick)")
    parser.add_argument("--halo-rows", type=int, default=SHARD_HALO_ROWS,
                        help="halo rows per shard side for the sharded "
                             f"section (default {SHARD_HALO_ROWS})")
    parser.add_argument("--shard-artifact-dir", default=None, metavar="DIR",
                        help="write the sharded section's trace and "
                             "topology manifest to DIR (CI uploads these "
                             "as artifacts)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write the trace-determinism section's Chrome "
                             "trace, JSONL stream, and run manifest to DIR "
                             "(CI uploads these as artifacts)")
    parser.add_argument("--no-trace-section", action="store_true",
                        help="skip the trace-structure determinism check")
    parser.add_argument("--no-overhead-section", action="store_true",
                        help="skip the tracing-overhead measurement")
    parser.add_argument("--overhead-scale", type=float, default=None,
                        help="cell-count scale for the tracing-overhead "
                             f"section (default {OVERHEAD_SCALE}; with "
                             "--quick the section is skipped unless this "
                             "is given — tiny runs measure noise)")
    parser.add_argument("--overhead-sample-every", type=int,
                        default=OVERHEAD_SAMPLE_EVERY, metavar="K",
                        help="sampling stride for the tracing-overhead "
                             f"section (default {OVERHEAD_SAMPLE_EVERY})")
    parser.add_argument("--require-trace-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail when sampled tracing costs more than "
                             "PCT%% wall over the untraced run (use on "
                             "machines with stable clocks; "
                             "check_regression.py gates this in CI)")
    args = parser.parse_args(argv)

    set_expensive_checks(False)
    scales = args.scales or ([QUICK_SCALE] if args.quick else SCALES)
    if args.cases is not None:
        names = args.cases
    elif args.quick:
        names = QUICK_CASES
    else:
        names = [case.name for case in iccad2017_suite(scale=QUICK_SCALE)]

    report: List[RunRecord] = []
    for scale in scales:
        for name in names:
            record = run_mgl(name, scale, LegalizerParams())
            report.append(record)
            print(
                f"{name:20s} scale={scale:<6g} cells={record['cells']:>6} "
                f"{record['seconds']:>8.3f}s {record['cells_per_sec']:>8.1f} c/s "
                f"evals={record['insertions_evaluated']:>8} "
                f"hash={record['placement_hash']}"
            )

    failures: List[str] = []

    parallel_section: Optional[Dict[str, Union[str, int, float, bool]]] = None
    if not args.no_parallel_section:
        workers = args.workers or (2 if args.quick else 4)
        capacity = args.parallel_capacity or (8 if args.quick else 32)
        # The largest case benchmarked above: most cells at the top scale.
        largest = max(
            report, key=lambda r: (float(r["scale"]), int(r["cells"]))
        )
        parallel_section = run_parallel_section(
            str(largest["name"]), float(largest["scale"]), workers, capacity
        )
        print(
            f"parallel: {parallel_section['name']} cap={capacity} "
            f"workers={workers}  serial {parallel_section['serial_seconds']}s "
            f"vs {parallel_section['parallel_seconds']}s  "
            f"speedup {parallel_section['speedup']}x "
            f"(on {parallel_section['cpu_count']} cpus)  "
            f"hashes_match={parallel_section['hashes_match']}"
        )
        if not parallel_section["hashes_match"]:
            failures.append(
                f"{parallel_section['name']}: {workers}-worker placement "
                f"diverged from the serial run"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if (
            args.require_speedup is not None
            and float(parallel_section["speedup"]) < args.require_speedup
        ):
            failures.append(
                f"{parallel_section['name']}: speedup "
                f"{parallel_section['speedup']}x below the required "
                f"{args.require_speedup}x"
            )
            print(f"PERF FAILURE: {failures[-1]}", file=sys.stderr)

    backend_section: Optional[Dict[str, Union[str, int, float, bool]]] = None
    if not args.no_backend_section:
        workers = args.workers or (2 if args.quick else 4)
        capacity = args.parallel_capacity or (8 if args.quick else 32)
        backend_name = QUICK_CASES[0] if args.quick else BACKEND_CASE
        backend_scale = QUICK_SCALE if args.quick else BACKEND_SCALE
        backend_section = run_backend_section(
            backend_name, backend_scale, workers, capacity
        )
        print(
            f"backend: {backend_section['name']} scale={backend_scale} "
            f"cells={backend_section['cells']}  "
            f"scalar {backend_section['scalar_seconds']}s vs vector "
            f"{backend_section['vector_seconds']}s  "
            f"serial {backend_section['vector_vs_scalar']}x, stacked "
            f"{backend_section['stacked_vs_scalar']}x "
            f"(cap={capacity} workers={workers} on "
            f"{backend_section['cpu_count']} cpus)  "
            f"hashes_match={backend_section['hashes_match']} "
            f"evals_match={backend_section['evals_match']}"
        )
        if not backend_section["hashes_match"]:
            failures.append(
                f"{backend_section['name']}: vector placement hash "
                f"{backend_section['vector_hash']} diverged from scalar "
                f"{backend_section['scalar_hash']}"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if not backend_section["evals_match"]:
            failures.append(
                f"{backend_section['name']}: vector insertions_evaluated "
                f"diverged from scalar"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if not backend_section["stacked_hashes_match"]:
            failures.append(
                f"{backend_section['name']}: stacked (vector + workers) "
                f"placement diverged from scalar at capacity {capacity}"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if (
            args.require_backend_speedup is not None
            and float(backend_section["stacked_vs_scalar"])
            < args.require_backend_speedup
        ):
            failures.append(
                f"{backend_section['name']}: stacked speedup "
                f"{backend_section['stacked_vs_scalar']}x below the "
                f"required {args.require_backend_speedup}x"
            )
            print(f"PERF FAILURE: {failures[-1]}", file=sys.stderr)

    trace_section: Optional[Dict[str, Union[str, int, float, bool]]] = None
    if not args.no_trace_section:
        trace_workers = args.workers or 2
        trace_capacity = args.parallel_capacity or 8
        trace_section = run_trace_determinism_section(
            names[0],
            scales[0],
            trace_workers,
            trace_capacity,
            trace_dir=Path(args.trace_dir) if args.trace_dir else None,
        )
        print(
            f"trace: {trace_section['name']} cap={trace_capacity} "
            f"workers=0 vs {trace_workers}  "
            f"spans={trace_section['span_count']}  "
            f"structure_match={trace_section['structure_match']}  "
            f"hashes_match={trace_section['hashes_match']}"
        )
        if not trace_section["structure_match"]:
            failures.append(
                f"{trace_section['name']}: trace structure differs between "
                f"workers 0 and {trace_workers}"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if not trace_section["hashes_match"]:
            failures.append(
                f"{trace_section['name']}: traced {trace_workers}-worker "
                f"placement diverged from the traced serial run"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)

    overhead_section: Optional[
        Dict[str, Union[str, int, float, bool, List[float]]]
    ] = None
    run_overhead = not args.no_overhead_section and (
        not args.quick or args.overhead_scale is not None
    )
    if run_overhead:
        overhead_scale = args.overhead_scale or OVERHEAD_SCALE
        overhead_section = run_tracing_overhead_section(
            OVERHEAD_CASE, overhead_scale, args.overhead_sample_every
        )
        print(
            f"overhead: {overhead_section['name']} scale={overhead_scale} "
            f"cells={overhead_section['cells']} "
            f"k={overhead_section['sample_every']}  "
            f"plain {overhead_section['plain_seconds']}s vs sampled "
            f"{overhead_section['sampled_seconds']}s  "
            f"overhead {overhead_section['overhead_pct']:+}% median of "
            f"{overhead_section['pairs']} pairs "
            f"(quartiles {overhead_section['overhead_q1_pct']:+}% to "
            f"{overhead_section['overhead_q3_pct']:+}%)  "
            f"spans={overhead_section['span_count']} "
            f"events={overhead_section['progress_events']}  "
            f"hashes_match={overhead_section['hashes_match']}"
        )
        if not overhead_section["hashes_match"]:
            failures.append(
                f"{overhead_section['name']}: sampled-traced placement "
                f"{overhead_section['sampled_hash']} diverged from the "
                f"untraced run {overhead_section['plain_hash']}"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if (
            args.require_trace_overhead is not None
            and float(overhead_section["overhead_pct"])
            > args.require_trace_overhead
        ):
            failures.append(
                f"{overhead_section['name']}: sampled tracing overhead "
                f"{overhead_section['overhead_pct']}% exceeds the "
                f"{args.require_trace_overhead}% budget"
            )
            print(f"PERF FAILURE: {failures[-1]}", file=sys.stderr)

    sharded_section: Optional[Dict[str, Union[str, int, float, bool, None]]]
    sharded_section = None
    if not args.no_sharded_section:
        shard_workers = args.workers or (2 if args.quick else 4)
        shard_count = args.shards or (2 if args.quick else SHARD_COUNT)
        shard_name = args.sharded_case or (
            QUICK_CASES[0] if args.quick else SHARD_CASE
        )
        shard_scale = args.sharded_scale or (
            QUICK_SCALE if args.quick else SHARD_SCALE
        )
        sharded_section = run_sharded_section(
            shard_name,
            shard_scale,
            shard_count,
            args.halo_rows,
            shard_workers,
            artifact_dir=(
                Path(args.shard_artifact_dir)
                if args.shard_artifact_dir
                else None
            ),
        )
        print(
            f"sharded: {sharded_section['name']} scale={shard_scale} "
            f"cells={sharded_section['cells']}  "
            f"shards={sharded_section['shards_effective']} "
            f"halo={args.halo_rows} workers={shard_workers}  "
            f"baseline {sharded_section['baseline_seconds']}s vs "
            f"{sharded_section['sharded_workers_seconds']}s  "
            f"speedup {sharded_section['speedup']}x "
            f"(on {sharded_section['cpu_count']} cpus)  "
            f"reconciled={sharded_section['reconciled']} "
            f"legal={sharded_section['legal']} "
            f"disp {sharded_section['disp_delta_pct']:+}%  "
            f"shards1_match={sharded_section['shards1_match']} "
            f"workers_match={sharded_section['workers_match']}"
        )
        if not sharded_section["shards1_match"]:
            failures.append(
                f"{sharded_section['name']}: shards=1 placement "
                f"{sharded_section['shards1_hash']} diverged from the "
                f"unsharded path {sharded_section['baseline_hash']}"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if not sharded_section["workers_match"]:
            failures.append(
                f"{sharded_section['name']}: {shard_workers}-worker sharded "
                f"placement diverged from the serial sharded run at the "
                f"same topology"
            )
            print(f"DETERMINISM FAILURE: {failures[-1]}", file=sys.stderr)
        if not sharded_section["legal"]:
            failures.append(
                f"{sharded_section['name']}: sharded placement has "
                f"{sharded_section['violations']} legality violations"
            )
            print(f"LEGALITY FAILURE: {failures[-1]}", file=sys.stderr)

    payload = {
        "suite": "iccad2017_synthetic",
        "scales": scales,
        "runs": report,
        "parallel": parallel_section,
        "backend": backend_section,
        "trace_determinism": trace_section,
        "tracing_overhead": overhead_section,
        "sharded": sharded_section,
        "hashes": {
            f"{r['name']}@{r['scale']}": r["placement_hash"] for r in report
        },
    }
    if sharded_section is not None:
        # The sharded case's hashes join the cross-machine determinism
        # gate: the baseline run under its plain key (identical to the
        # runs-section value when the case overlaps), the sharded run
        # under a topology-qualified key so a deliberate topology change
        # reads as a new case, never as drift.
        hashes = payload["hashes"]
        assert isinstance(hashes, dict)
        hashes[f"{sharded_section['name']}@{sharded_section['scale']}"] = (
            sharded_section["baseline_hash"]
        )
        hashes[
            f"{sharded_section['name']}@{sharded_section['scale']}"
            f"#shards{sharded_section['shards']}"
            f"h{sharded_section['halo_rows']}"
        ] = sharded_section["sharded_hash"]
    if overhead_section is not None:
        # The sampled run's hash joins the gate under a stride-qualified
        # key (it equals the plain hash by the fatal check above, but a
        # distinct key keeps cross-report stride changes readable).
        hashes = payload["hashes"]
        assert isinstance(hashes, dict)
        hashes[
            f"{overhead_section['name']}@{overhead_section['scale']}"
            f"#sampled{overhead_section['sample_every']}"
        ] = overhead_section["sampled_hash"]
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
