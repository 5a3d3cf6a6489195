"""The full three-stage legalization flow (paper Fig. 2).

1. **MGL** inserts every cell near its GP position (§3.1, §3.5);
2. **matching** trims the maximum displacement by permuting same-type
   cells within each fence region (§3.2);
3. **fixed-row-fixed-order MCF** shifts cells horizontally for the final
   weighted average + maximum displacement optimum (§3.3, §3.4).

:func:`legalize` is the one-call public entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.flowopt import FlowOptStats, optimize_fixed_row_order
from repro.core.globalmove import GlobalMoveStats, optimize_global_moves
from repro.core.matching import MatchingStats, optimize_max_displacement
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
from repro.model.design import Design
from repro.model.placement import Placement
from repro.obs.clock import monotonic
from repro.obs.metrics import DISPLACEMENT_BUCKETS
from repro.obs.progress import NULL_PROGRESS, NullProgress
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.perf import PerfRecorder


@dataclass
class StageMetrics:
    """Displacement snapshot after one stage."""

    avg_disp: float
    max_disp: float
    seconds: float


@dataclass
class LegalizationResult:
    """Everything the flow produced."""

    placement: Placement
    after_mgl: StageMetrics
    after_matching: Optional[StageMetrics] = None
    after_flow: Optional[StageMetrics] = None
    after_global_moves: Optional[StageMetrics] = None
    matching_stats: Optional[MatchingStats] = None
    flow_stats: Optional[FlowOptStats] = None
    global_move_stats: Optional[GlobalMoveStats] = None
    mgl_stats: Dict[str, int] = field(default_factory=dict)
    #: Row-band partition of a sharded MGL run (``params.shards > 1``),
    #: in the JSON form of ``ShardTopology.as_dict``; None otherwise.
    shard_topology: Optional[Dict[str, object]] = None

    @property
    def total_seconds(self) -> float:
        total = self.after_mgl.seconds
        if self.after_matching is not None:
            total += self.after_matching.seconds
        if self.after_flow is not None:
            total += self.after_flow.seconds
        if self.after_global_moves is not None:
            total += self.after_global_moves.seconds
        return total


def _snapshot(placement: Placement, seconds: float) -> StageMetrics:
    disps = [placement.displacement(c) for c in placement.design.movable_cells()]
    if not disps:
        return StageMetrics(0.0, 0.0, seconds)
    return StageMetrics(sum(disps) / len(disps), max(disps), seconds)


class Legalizer:
    """The complete legalization pipeline for one design."""

    def __init__(
        self,
        design: Design,
        params: Optional[LegalizerParams] = None,
        recorder: Optional[PerfRecorder] = None,
        tracer: Optional[NullTracer] = None,
        progress: Optional[NullProgress] = None,
    ):
        design.validate()
        self.design = design
        self.params = params or LegalizerParams()
        self.params.validate()
        self.guard = (
            RoutabilityGuard(design, self.params) if self.params.routability else None
        )
        #: Optional perf instrumentation; stages record into it when set.
        self.recorder = recorder
        #: Span tracer; the shared zero-overhead null tracer by default.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Streaming progress emitter; the shared null emitter by default.
        #: Observational only — never perturbs the placement.
        self.progress = progress if progress is not None else NULL_PROGRESS

    def _record_stage(self, name: str, seconds: float) -> None:
        if self.recorder is not None:
            self.recorder.record(name, seconds)

    def _observe_final_metrics(self, placement: Placement) -> None:
        """Record the final per-height-class displacement histograms.

        One ``disp.h<height>`` histogram per cell height class, in
        row-height units — the distribution behind the S_am (Eq. 2) and
        max-disp quality numbers.
        """
        if self.recorder is None:
            return
        registry = self.recorder.registry
        design = self.design
        for cell in design.movable_cells():
            height = design.cell_type_of(cell).height
            registry.observe(
                f"disp.h{height}",
                placement.displacement(cell),
                DISPLACEMENT_BUCKETS,
            )

    def run(self) -> LegalizationResult:
        """Run all enabled stages and return placement plus metrics."""
        params = self.params
        tracer = self.tracer
        progress = self.progress

        with tracer.span("legalize") as root:
            if tracer.enabled:
                root.set(
                    design=self.design.name, cells=self.design.num_cells
                )
            progress.phase(
                "mgl",
                design=self.design.name,
                cells=self.design.num_cells,
            )
            start = monotonic()
            with tracer.span("mgl") as mgl_span:
                mgl = MGLegalizer(
                    self.design, params, guard=self.guard,
                    recorder=self.recorder, tracer=tracer,
                    progress=progress,
                )
                placement = mgl.run()
                if tracer.enabled:
                    # Only worker-count-invariant stats become span
                    # attrs; cache/parallel counters depend on where
                    # each evaluation happened to run.
                    mgl_span.set(
                        cells_placed=mgl.stats["cells_placed"],
                        window_expansions=mgl.stats["window_expansions"],
                        scheduler_batches=mgl.stats["scheduler_batches"],
                        scheduler_reevaluations=mgl.stats[
                            "scheduler_reevaluations"
                        ],
                    )
            mgl_seconds = monotonic() - start
            result = LegalizationResult(
                placement=placement,
                after_mgl=_snapshot(placement, mgl_seconds),
                mgl_stats=dict(mgl.stats),
                shard_topology=(
                    mgl.shard_topology.as_dict()
                    if mgl.shard_topology is not None
                    else None
                ),
            )
            self._record_stage("mgl", mgl_seconds)
            if self.recorder is not None:
                self.recorder.merge_counters(mgl.stats, prefix="mgl.")

            if params.use_matching:
                progress.phase("matching")
                start = monotonic()
                with tracer.span("matching") as span:
                    result.matching_stats = optimize_max_displacement(
                        placement, params
                    )
                    result.after_matching = _snapshot(
                        placement, monotonic() - start
                    )
                    if tracer.enabled:
                        span.set(
                            avg_disp=result.after_matching.avg_disp,
                            max_disp=result.after_matching.max_disp,
                        )
                self._record_stage("matching", result.after_matching.seconds)

            if params.use_flow_opt:
                progress.phase("flow_opt")
                start = monotonic()
                with tracer.span("flow_opt") as span:
                    result.flow_stats = optimize_fixed_row_order(
                        placement, params, guard=self.guard
                    )
                    result.after_flow = _snapshot(placement, monotonic() - start)
                    if tracer.enabled:
                        span.set(
                            avg_disp=result.after_flow.avg_disp,
                            max_disp=result.after_flow.max_disp,
                        )
                self._record_stage("flow_opt", result.after_flow.seconds)

            if params.use_global_moves:
                progress.phase("global_moves")
                start = monotonic()
                with tracer.span("global_moves") as span:
                    result.global_move_stats = optimize_global_moves(
                        placement, params, guard=self.guard
                    )
                    result.after_global_moves = _snapshot(
                        placement, monotonic() - start
                    )
                    if tracer.enabled:
                        span.set(
                            avg_disp=result.after_global_moves.avg_disp,
                            max_disp=result.after_global_moves.max_disp,
                        )
                self._record_stage(
                    "global_moves", result.after_global_moves.seconds
                )

            self._observe_final_metrics(placement)
            if progress.enabled:
                final = _snapshot(placement, result.total_seconds)
                progress.phase(
                    "done",
                    avg_disp=round(final.avg_disp, 4),
                    max_disp=round(final.max_disp, 4),
                    seconds=round(result.total_seconds, 4),
                )
                progress.close()
        return result


def legalize(
    design: Design,
    params: Optional[LegalizerParams] = None,
    recorder: Optional[PerfRecorder] = None,
    tracer: Optional[NullTracer] = None,
    progress: Optional[NullProgress] = None,
) -> LegalizationResult:
    """Legalize ``design`` with the paper's full flow.

    Example::

        from repro import legalize
        result = legalize(design)
        placement = result.placement

    Pass a :class:`repro.perf.PerfRecorder` to collect per-stage wall
    times and the legalizer's counters (``repro legalize --profile``
    from the CLI), a :class:`repro.obs.SpanTracer` to record the span
    tree (``repro legalize --trace``), and/or a
    :class:`repro.obs.progress.ProgressEmitter` to stream progress
    events while the run is going (``repro legalize --progress``); none
    of them perturbs the placement.
    """
    return Legalizer(
        design, params, recorder=recorder, tracer=tracer, progress=progress
    ).run()
