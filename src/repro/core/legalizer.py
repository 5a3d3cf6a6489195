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
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.core.flowopt import FlowOptStats, optimize_fixed_row_order
from repro.core.globalmove import GlobalMoveStats, optimize_global_moves
from repro.core.matching import MatchingStats, optimize_max_displacement
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
from repro.model.design import Design
from repro.model.placement import Placement
from repro.obs.metrics import DISPLACEMENT_BUCKETS, MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.progress import NullProgress
from repro.obs.tracer import NullTracer

_Stats = TypeVar("_Stats")


@dataclass
class StageMetrics:
    """Displacement snapshot after one stage.

    ``seconds`` is the stage's wall time, the same number the metrics
    registry records under the stage name.
    """

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


def _displacement(placement: Placement) -> Tuple[float, float]:
    """Average and maximum displacement over the movable cells."""
    disps = [placement.displacement(c) for c in placement.design.movable_cells()]
    if not disps:
        return 0.0, 0.0
    return sum(disps) / len(disps), max(disps)


class Legalizer:
    """The complete legalization pipeline for one design.

    ``tracer``, ``metrics`` and ``progress`` are bundled into one
    :class:`repro.obs.observer.Observer` (:attr:`observer`), the only
    observability handle the stages below see.
    """

    def __init__(
        self,
        design: Design,
        params: Optional[LegalizerParams] = None,
        *,
        tracer: Optional[NullTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[NullProgress] = None,
    ):
        design.validate()
        self.design = design
        self.params = params or LegalizerParams()
        self.params.validate()
        self.guard = (
            RoutabilityGuard(design, self.params) if self.params.routability else None
        )
        #: Observational only — never perturbs the placement.
        self.observer = Observer(tracer, metrics, progress)

    def _observe_final_metrics(self, placement: Placement) -> None:
        """Record the final per-height-class displacement histograms.

        One ``disp.h<height>`` histogram per cell height class, in
        row-height units — the distribution behind the S_am (Eq. 2) and
        max-disp quality numbers.
        """
        design = self.design
        for cell in design.movable_cells():
            height = design.cell_type_of(cell).height
            self.observer.observe(
                f"disp.h{height}",
                placement.displacement(cell),
                DISPLACEMENT_BUCKETS,
            )

    def _run_stage(
        self, name: str, placement: Placement, optimize: Callable[[], _Stats]
    ) -> Tuple[_Stats, StageMetrics]:
        """Run one post-MGL stage under its observer stage.

        The stage span carries the displacement the stage left behind.
        """
        with self.observer.stage(name) as stage:
            stats = optimize()
            avg_disp, max_disp = _displacement(placement)
            if stage.span.recording:
                stage.span.set(avg_disp=avg_disp, max_disp=max_disp)
        return stats, StageMetrics(avg_disp, max_disp, stage.seconds)

    def run(self) -> LegalizationResult:
        """Run all enabled stages and return placement plus metrics."""
        params = self.params
        observer = self.observer
        tracer = observer.tracer

        with tracer.span("legalize") as root:
            if tracer.enabled:
                root.set(
                    design=self.design.name, cells=self.design.num_cells
                )
            with observer.stage(
                "mgl", design=self.design.name, cells=self.design.num_cells
            ) as stage:
                mgl = MGLegalizer(
                    self.design, params, guard=self.guard, observer=observer
                )
                placement = mgl.run()
                if tracer.enabled:
                    # Only worker-count-invariant stats become span
                    # attrs; parallel counters depend on where each
                    # evaluation happened to run.
                    stage.span.set(
                        cells_placed=mgl.stats["cells_placed"],
                        window_expansions=mgl.stats["window_expansions"],
                        scheduler_batches=mgl.stats["scheduler_batches"],
                        scheduler_reevaluations=mgl.stats[
                            "scheduler_reevaluations"
                        ],
                    )
            result = LegalizationResult(
                placement=placement,
                after_mgl=StageMetrics(
                    *_displacement(placement), stage.seconds
                ),
                mgl_stats=dict(mgl.stats),
                shard_topology=(
                    mgl.shard_topology.as_dict()
                    if mgl.shard_topology is not None
                    else None
                ),
            )
            for key, value in mgl.stats.items():
                observer.count(f"mgl.{key}", value)

            if params.use_matching:
                result.matching_stats, result.after_matching = (
                    self._run_stage(
                        "matching", placement,
                        lambda: optimize_max_displacement(placement, params),
                    )
                )
            if params.use_flow_opt:
                result.flow_stats, result.after_flow = self._run_stage(
                    "flow_opt", placement,
                    lambda: optimize_fixed_row_order(
                        placement, params, guard=self.guard
                    ),
                )
            if params.use_global_moves:
                result.global_move_stats, result.after_global_moves = (
                    self._run_stage(
                        "global_moves", placement,
                        lambda: optimize_global_moves(
                            placement, params, guard=self.guard
                        ),
                    )
                )

            self._observe_final_metrics(placement)
            progress = observer.progress
            if progress.enabled:
                avg_disp, max_disp = _displacement(placement)
                progress.phase(
                    "done",
                    avg_disp=round(avg_disp, 4),
                    max_disp=round(max_disp, 4),
                    seconds=round(result.total_seconds, 4),
                )
                progress.close()
        return result


def legalize(
    design: Design,
    params: Optional[LegalizerParams] = None,
    *,
    tracer: Optional[NullTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[NullProgress] = None,
) -> LegalizationResult:
    """Legalize ``design`` with the paper's full flow.

    Example::

        from repro import legalize
        result = legalize(design)
        placement = result.placement

    Pass a :class:`repro.obs.SpanTracer` to record the span tree
    (``repro legalize --trace``), a :class:`repro.obs.MetricsRegistry`
    to collect per-stage wall times, the legalizer's counters and its
    histograms (``repro legalize --profile``), and/or a
    :class:`repro.obs.ProgressEmitter` to stream progress events while
    the run is going (``repro legalize --progress``); none of them
    perturbs the placement.
    """
    return Legalizer(
        design, params, tracer=tracer, metrics=metrics, progress=progress
    ).run()
