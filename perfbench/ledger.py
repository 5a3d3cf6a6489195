"""The traced run: per-layer metrics from stage-by-stage public calls.

The run calls each layer through its public function, places its own
spans around those calls, and reads the counters the calls already
return, so no instrumentation inside ``repro`` is switched on:

1. set-up (``repro.benchgen``, ``Legalizer.__init__``);
2. one untraced ``legalize()``, the reference placement, scored by
   ``repro.checker`` under checker spans;
3. one ``legalize()`` under ``SpanTracer(sample_every=16)`` (``repro.obs``);
4. the flow again, stage by stage: ``MGLegalizer.run`` (with its
   ``try_insert``/``apply_insertion`` seams timed on the instance),
   ``optimize_max_displacement``, ``build_problem``,
   ``optimize_fixed_row_order``, and the built problem solved again on
   the backend stage 3 picked (``flowopt.solve_s``, ``flowopt.pivots``);
5. the layer ladder: the MGL stage once per rung of ``LADDER``; the
   rung with the workload's own knobs is step 4's MGL run.

Steps 3 and 4 must reproduce the reference digest bit for bit (the
composition check), and each ``SAME_PLACEMENT`` rung pair must agree.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import Legalizer, legalize
from repro.checker import check_legal, contest_score
from repro.checker.routability import count_routability_violations
from repro.core.flowopt import (
    build_dual_graph,
    build_problem,
    optimize_fixed_row_order,
    solve_lp,
)
from repro.core.matching import optimize_max_displacement
from repro.core.mgl import MGLegalizer
from repro.core.refine import RoutabilityGuard
from repro.flow.network_simplex import NetworkSimplex
from repro.obs import SpanTracer

from common import Attempts, inject_illegal, warm_up
from workloads import (
    LADDER,
    RUNG_ALIASES,
    SAME_PLACEMENT,
    Workload,
    rung_params,
)

#: Sampling period of the observer-overhead run (``obs.sampled_trace_s``).
SAMPLE_EVERY = 16


@dataclass
class SpanRecord:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Spans the benchmark places around its calls into each layer.

    Kept in memory and printed as a self/total table when the run ends.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self.records.append(SpanRecord(name, parent, perf_counter()))
        index = len(self.records) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index].end = perf_counter()

    def seconds(self, name: str) -> float:
        return sum(r.seconds for r in self.records if r.name == name)

    def table(self) -> List[str]:
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record.parent is not None:
                child_time[record.parent] += record.seconds
        lines = [f"{'span':<28} {'total_s':>9} {'self_s':>9}"]
        for index, record in enumerate(self.records):
            depth, parent = 0, record.parent
            while parent is not None:
                depth, parent = depth + 1, self.records[parent].parent
            name = "  " * depth + record.name
            lines.append(
                f"{name:<28} {record.seconds:9.4f} "
                f"{record.seconds - child_time[index]:9.4f}"
            )
        return lines


@dataclass
class SeamTimer:
    """Times the ``try_insert``/``apply_insertion`` seams of one legalizer.

    Wraps the bound methods on the instance, so only calls made in this
    process are seen: every call on the serial path, the re-evaluations
    and chip-window fallbacks of the scheduler path, and the
    reconciliation pass of the sharded path.
    """

    try_insert_s: float = 0.0
    try_insert_calls: int = 0
    exhaustive_calls: int = 0
    apply_s: float = 0.0

    def attach(self, legalizer: MGLegalizer) -> None:
        try_insert, apply_insertion = (
            legalizer.try_insert, legalizer.apply_insertion
        )

        def timed_try_insert(occupancy, cell, window, exhaustive=False):
            start = perf_counter()
            try:
                return try_insert(occupancy, cell, window, exhaustive=exhaustive)
            finally:
                self.try_insert_s += perf_counter() - start
                self.try_insert_calls += 1
                self.exhaustive_calls += bool(exhaustive)

        def timed_apply(occupancy, cell, insertion):
            start = perf_counter()
            try:
                return apply_insertion(occupancy, cell, insertion)
            finally:
                self.apply_s += perf_counter() - start

        legalizer.try_insert = timed_try_insert
        legalizer.apply_insertion = timed_apply


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mgl_metrics(
    mgl: MGLegalizer, seconds: float, seams: SeamTimer, cells: int
) -> Dict[str, float]:
    stats = mgl.stats
    evals = stats["insertions_evaluated"]
    expansions = stats["window_expansions"]
    hits, misses = stats["gap_cache_hits"], stats["gap_cache_misses"]
    batches = stats.get("parallel_batches", 0)
    tasks = stats.get("parallel_tasks", 0)
    bands = (
        [band["cells"] for band in mgl.shard_topology.as_dict()["bands"]]
        if mgl.shard_topology is not None
        else []
    )
    return {
        "mgl.run_s": seconds,
        "mgl.insertions_evaluated": evals,
        "mgl.evals_per_cell": _share(evals, cells),
        "mgl.us_per_eval": _share(seconds * 1e6, evals),
        "mgl.window_expansions": expansions,
        "mgl.expansions_per_cell": _share(expansions, cells),
        "mgl.exhaustive_calls": seams.exhaustive_calls,
        "mgl.try_insert_s": seams.try_insert_s,
        "mgl.try_insert_calls": seams.try_insert_calls,
        "mgl.apply_s": seams.apply_s,
        "scheduler.batches": stats["scheduler_batches"],
        "scheduler.reevaluations": stats["scheduler_reevaluations"],
        "parallel.tasks": tasks,
        "parallel.tasks_per_batch": _share(tasks, batches),
        "parallel.delta_ops": stats.get("parallel_delta_ops", 0),
        "parallel.delta_bytes": stats.get("parallel_delta_bytes", 0),
        "parallel.fallbacks": stats.get("parallel_fallbacks", 0),
        "parallel.worker_failures": stats.get("parallel_worker_failures", 0),
        "gap_cache.hit_rate": 100.0 * _share(hits, hits + misses),
        "shard.count": stats.get("shard_count", 0),
        "shard.halo_cells": stats.get("shard_halo_cells", 0),
        "shard.reconciled": stats.get("shard_reconciled", 0),
        "shard.reconciled_share": _share(stats.get("shard_reconciled", 0), cells),
        "shard.deferred": stats.get("shard_deferred", 0),
        "shard.fallbacks": stats.get("shard_fallbacks", 0),
        "shard.worker_failures": stats.get("shard_worker_failures", 0),
        "shard.band_imbalance": (
            max(bands) / (sum(bands) / len(bands)) if bands else 0.0
        ),
    }


def _fresh_guard(design: Any, params: Any) -> Optional[RoutabilityGuard]:
    """A cold guard, so no stage run inherits another's warm memo."""
    return RoutabilityGuard(design, params) if params.routability else None


def ledger(
    workload: Workload, seed: int, smoke: bool, inject: bool
) -> Tuple[Dict[str, float], Attempts, Spans]:
    """Run every layer of the workload once; returns the per-layer metrics."""
    spans = Spans()
    span = spans.span
    attempts = Attempts()
    params = workload.params()
    metrics: Dict[str, float] = {}

    with span("setup"):
        with span("benchgen.generate"):
            design = workload.build(seed, smoke)
        with span("legalizer.init"):
            Legalizer(design, params)
    cells = len(design.movable_cells())
    warm_up(workload)

    gc.collect()
    with span("legalize"):
        reference = legalize(design, params).placement
    if inject:
        inject_illegal(reference)
    expected = attempts.check("legalize", reference)
    with span("checker.legal"):
        check_legal(reference)
    with span("checker.routability"):
        routability = count_routability_violations(reference)
    with span("checker.score"):
        score = contest_score(reference, routability)

    gc.collect()
    with span("obs.sampled_trace"):
        traced = legalize(
            design, params, tracer=SpanTracer(sample_every=SAMPLE_EVERY)
        ).placement
    attempts.check("legalize(tracer)", traced, expected)

    gc.collect()
    with span("stages"):
        mgl = MGLegalizer(design, params, guard=_fresh_guard(design, params))
        seams = SeamTimer()
        seams.attach(mgl)
        with span("mgl"):
            placement = mgl.run()
        mgl_digest = attempts.check("stages.mgl", placement)
        with span("matching"):
            matching = optimize_max_displacement(placement, params)
        guard = _fresh_guard(design, params)
        with span("flowopt.build"):
            problem = build_problem(placement, params, guard)
        with span("flowopt"):
            flow = optimize_fixed_row_order(placement, params, guard=guard)
        # Re-solve the problem built above on the backend stage 3 picked,
        # timing the solver alone and reading the simplex pivot count.
        n0 = params.flow_n0 * max(problem.weights, default=1)
        pivots = 0
        with span("flowopt.solve"):
            if flow.backend == "mcf":
                simplex = NetworkSimplex(build_dual_graph(problem, n0)[0])
                simplex.solve()
                pivots = simplex.iterations
            else:
                solve_lp(problem, n0)
    attempts.check("stages", placement, expected)

    metrics.update(_mgl_metrics(mgl, spans.seconds("mgl"), seams, cells))
    metrics.update({
        "benchgen.generate_s": spans.seconds("benchgen.generate"),
        "legalizer.init_s": spans.seconds("legalizer.init"),
        "matching.run_s": spans.seconds("matching"),
        "matching.groups": matching.groups,
        "matching.cells_considered": matching.cells_considered,
        "matching.cells_moved": matching.cells_moved,
        "matching.moved_share": _share(
            matching.cells_moved, matching.cells_considered
        ),
        "matching.largest_group": max(matching.group_sizes, default=0),
        "matching.max_disp_cut": (
            matching.max_disp_before - matching.max_disp_after
        ),
        "flowopt.run_s": spans.seconds("flowopt"),
        "flowopt.build_s": spans.seconds("flowopt.build"),
        "flowopt.solve_s": spans.seconds("flowopt.solve"),
        "flowopt.pivots": pivots,
        "flowopt.pairs": len(problem.pairs),
        "flowopt.cells_moved": flow.moved,
        "flowopt.objective_cut": _share(
            flow.objective_before - flow.objective_after,
            flow.objective_before,
        ),
        "checker.legal_s": spans.seconds("checker.legal"),
        "checker.routability_s": spans.seconds("checker.routability"),
        "checker.score_s": spans.seconds("checker.score"),
        "obs.sampled_trace_s": spans.seconds("obs.sampled_trace"),
        "obs.trace_overhead": _share(
            spans.seconds("obs.sampled_trace"), spans.seconds("legalize")
        ) - 1.0,
        "hpwl_ratio": score.hpwl_ratio,
        "pin_violations": score.pin_violations,
        "edge_violations": score.edge_violations,
    })

    # The staged MGL run already is the rung of the workload's own knobs.
    own = next(r for r in LADDER if rung_params(workload, r) == params)
    digests = {own: mgl_digest}
    metrics[f"ladder.{own}_s"] = metrics["mgl.run_s"]
    with span("ladder"):
        for rung in LADDER:
            if rung == own:
                continue
            knobs = rung_params(workload, rung)
            gc.collect()
            rung_mgl = MGLegalizer(
                design, knobs, guard=_fresh_guard(design, knobs)
            )
            label = f"ladder.{rung}"
            try:
                with span(label):
                    rung_placement = rung_mgl.run()
            except Exception as error:  # a failed rung is counted, not fatal
                attempts.raised(label, error)
                continue
            digests[rung] = attempts.check(label, rung_placement)
            metrics[f"{label}_s"] = spans.seconds(label)
    for slow, fast in SAME_PLACEMENT:
        if slow in digests and fast in digests and digests[slow] != digests[fast]:
            attempts.fail(
                f"ladder.{fast}",
                f"digest {digests[fast]} != ladder.{slow} {digests[slow]}",
            )
    for alias, rung in RUNG_ALIASES.items():
        if rung in digests:
            metrics[f"ladder.{alias}_s"] = metrics[f"ladder.{rung}_s"]

    metrics["fail_rate"] = attempts.failed / attempts.attempted
    print(f"{cells} movable cells; stage-3 backend {flow.backend}", file=sys.stderr)
    return metrics, attempts, spans
