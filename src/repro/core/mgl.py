"""Multi-row global legalization — MGL (paper §3.1, Algorithm 1).

Cells are legalized sequentially.  For each target cell a window around
its GP position is searched: all insertion points are enumerated, each is
costed through displacement curves measured **from GP positions** (the
defining difference from MLL), and the cheapest feasible one is applied,
spreading local cells aside.  The window grows geometrically whenever no
feasible insertion point exists.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

from repro.core.insertion import EvaluatedInsertion, InsertionContext
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
from repro.core.soa import SoAState
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.obs.clock import monotonic
from repro.obs.metrics import EXPANSION_BUCKETS
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.tracer import Span, SpanPayload

if TYPE_CHECKING:
    from repro.core.shard import ShardTopology


#: Multiplicative window growth per failed insertion attempt.
WINDOW_EXPAND = 1.6

#: Window attempts before the final exhaustive chip-window search; a
#: cell that fails that too means an over-full fence region.
MAX_EXPANSIONS = 12


class LegalizationError(Exception):
    """Raised when a cell cannot be placed anywhere in its fence region."""


def evaluation_span_payload(
    evaluated: int,
    best: Optional[EvaluatedInsertion],
    *,
    reeval: bool = False,
    exhaustive: bool = False,
    duration: Optional[float] = None,
    worker: Optional[int] = None,
) -> SpanPayload:
    """The wire/trace form of one window evaluation (an ``evaluate`` span).

    Every structural attribute is a pure function of the evaluation
    inputs, so a payload built by a worker process and one built by the
    parent's in-process fallback for the same task are identical —
    which is what keeps :func:`repro.obs.tracer.structure_hash` stable
    across ``scheduler_workers`` values.  ``duration`` and ``worker``
    ride along as non-structural extras.
    """
    payload: SpanPayload = {
        "name": "evaluate",
        "attrs": {
            "evaluated": evaluated,
            "found": best is not None,
            "cost": best.cost if best is not None else None,
            "reeval": reeval,
            "exhaustive": exhaustive,
        },
        "children": [],
    }
    if duration is not None:
        payload["duration"] = duration
    if worker is not None:
        payload["worker"] = worker
    return payload


def height_weights(design: Design) -> Callable[[int], float]:
    """Per-cell weights ``n_i = 1 / |C_h|`` implementing Eq. 2."""
    counts: Dict[int, int] = {}
    for group_height, cells in design.cells_by_height().items():
        counts[group_height] = len(cells)

    def weight(cell: int) -> float:
        return 1.0 / counts[design.cell_type_of(cell).height]

    return weight


def mgl_cell_order(design: Design) -> List[int]:
    """Deterministic processing order of the movable cells.

    Tall/large cells go first (they have the fewest feasible spots),
    swept by GP x within equal footprints.
    """
    def key(cell: int) -> Tuple[int, int, float, float, int]:
        cell_type = design.cell_type_of(cell)
        return (
            -cell_type.height,
            -(cell_type.height * cell_type.width),
            design.gp_x[cell],
            design.gp_y[cell],
            cell,
        )

    return sorted(design.movable_cells(), key=key)


def fixed_cell_occupancy(design: Design, placement: Placement) -> Occupancy:
    """A fresh occupancy holding the fixed cells, pinned at their GP spots.

    The starting state of every MGL run: the serial loop, the
    scheduler, the sharded parent and each shard interior.
    """
    occupancy = Occupancy(design, placement)
    for cell in range(design.num_cells):
        if design.cells[cell].fixed:
            placement.move(cell, int(design.gp_x[cell]), int(design.gp_y[cell]))
            occupancy.add(cell)
    return occupancy


def disp_so_far(occupancy: Occupancy) -> Callable[[], float]:
    """Deferred displacement-so-far for progress events.

    O(placed cells); only invoked for events that pass the emitter's
    throttle, so the per-cell cost on the hot loop is one closure
    allocation.  Fixed cells are pinned at their GP positions, so
    summing every placed cell equals summing the movable ones.
    """
    placement = occupancy.placement

    def total() -> float:
        return sum(
            placement.displacement(cell) for cell in occupancy.placed_cells
        )

    return total


class MGLegalizer:
    """Window-based sequential legalizer minimizing displacement from GP.

    Args:
        design: the problem instance (validated by the caller).
        params: tunables; see :class:`LegalizerParams`.
        guard: routability guard, built automatically whenever
            ``params.routability`` is set, rails and pins or not.
        observer: spans, metrics and progress events for the run
            (:class:`repro.obs.observer.Observer`); the shared
            :data:`~repro.obs.observer.NULL_OBSERVER` when omitted.  The
            scheduler, its worker pool and the shard path all record
            through it.  Observational only — placements are
            bit-identical with any observer.
    """

    def __init__(
        self,
        design: Design,
        params: Optional[LegalizerParams] = None,
        guard: Optional[RoutabilityGuard] = None,
        reference: str = "gp",
        observer: Observer = NULL_OBSERVER,
    ):
        self.design = design
        self.params = params or LegalizerParams()
        self.params.validate()
        self.reference = reference
        self.observer = observer
        if guard is None and self.params.routability:
            guard = RoutabilityGuard(design, self.params)
        self.guard = guard
        self.weight_of: Callable[[int], float] = (
            height_weights(design) if self.params.height_weighted else (lambda _c: 1.0)
        )
        self.stats: Dict[str, int] = {
            "insertions_evaluated": 0,
            "window_expansions": 0,
            "cells_placed": 0,
            # Fixed at 0 (no gap cache); perfbench/ledger.py reads both.
            "gap_cache_hits": 0,
            "gap_cache_misses": 0,
            # Scheduler counters: stay 0 on the plain sequential path
            # (scheduler_capacity == 1) so profile reports always carry
            # the keys (see `repro legalize --profile`).
            "scheduler_batches": 0,
            "scheduler_reevaluations": 0,
        }
        # Shared SoA mirror for the vector evaluation backend, rebuilt
        # when the target occupancy changes; see :meth:`soa_for`.
        self._soa: Optional[SoAState] = None
        #: The row-band partition of the last sharded run (params.shards
        #: > 1); None on the unsharded paths.  See repro.core.shard.
        self.shard_topology: Optional["ShardTopology"] = None

    # ------------------------------------------------------------------

    def initial_window(self, cell: int, scale: float = 1.0) -> Rect:
        """The window around the cell's GP position at a given scale.

        For cells assigned to an explicit fence whose GP lies outside it,
        the window center is clamped into the fence's bounding box so the
        search starts where placement is possible at all.
        """
        design = self.design
        cell_type = design.cell_type_of(cell)
        cx = design.gp_x[cell] + cell_type.width / 2.0
        cy = design.gp_y[cell] + cell_type.height / 2.0
        fence_id = design.fence_of(cell)
        if fence_id != 0:
            box = design.fence_region(fence_id).bounding_box
            cx = min(max(cx, box.xlo), box.xhi)
            cy = min(max(cy, box.ylo), box.yhi)
        half_w = max(self.params.window_width * scale, cell_type.width + 2) / 2.0
        half_h = max(self.params.window_height * scale, cell_type.height + 2) / 2.0
        chip = design.chip_rect
        return Rect(
            max(chip.xlo, cx - half_w),
            max(chip.ylo, cy - half_h),
            min(chip.xhi, cx + half_w),
            min(chip.yhi, cy + half_h),
        )

    def soa_for(self, occupancy: Occupancy) -> Optional[SoAState]:
        """The shared SoA mirror of ``occupancy`` (None on the scalar backend).

        Memoized on the legalizer; the memo write only happens when the
        occupancy identity changes (once per run in practice).  The
        mirror's per-row snapshots are version-checked, so sharing one
        instance across evaluations is safe and is exactly what lets
        batch members reuse each other's row snapshots.
        """
        if self.params.eval_backend != "vector":
            return None
        soa = self._soa
        if (
            soa is None
            or soa.occupancy is not occupancy
            or soa.num_cells != self.design.num_cells
        ):
            soa = SoAState(self.design, occupancy)
            self._soa = soa
        return soa

    def evaluate_insert(
        self,
        occupancy: Occupancy,
        cell: int,
        window: Rect,
        exhaustive: bool = False,
        soa: Optional[SoAState] = None,
    ) -> Tuple[Optional[EvaluatedInsertion], int]:
        """Best feasible insertion of ``cell`` within ``window`` (unapplied).

        Returns the best evaluated insertion (or None) plus the number of
        insertion points evaluated.  This is the *pure* evaluation path:
        it mutates neither the legalizer nor the occupancy (repro-lint
        C002), which is what lets worker processes run it against their
        occupancy mirrors (§3.5).  Stats aggregation lives in
        :meth:`try_insert`.

        The winner is defined order-independently: walk candidates by
        ``(lower bound, enumeration ordinal)``, stop once the bound
        exceeds the incumbent cost plus ``prune_margin``, and keep the
        minimum ``(cost, y, x, ordinal)``.
        :meth:`InsertionContext.evaluate_best_first` computes this lazily
        through a heap with row-level short-circuits; an exhaustive
        replay of the same rule is the test oracle (see
        tests/test_perf_equivalence.py).

        ``exhaustive`` lifts the per-row gap and combination caps and
        drops the routability guard — used by the final chip-window
        fallback, where completeness matters more than speed: routability
        is a *soft* constraint (§2), so when the only rows a fence allows
        are rail-conflicted, the cell is placed there anyway and the
        violations are simply counted.

        ``soa`` is the shared SoA mirror for the vector backend.  It is
        deliberately *not* resolved here — :meth:`soa_for` memoizes on
        the legalizer, a write this contract-pure method may not make.
        Callers resolve it and pass it in (see
        :meth:`evaluate_and_count`, :meth:`evaluate_insert_many`);
        leaving it None simply runs the scalar backend, which is
        result-identical.
        """
        context = InsertionContext(
            self.design,
            occupancy,
            cell,
            window,
            weight_of=self.weight_of,
            guard=None if exhaustive else self.guard,
            reference=self.reference,
            max_gaps_per_row=(
                1 << 30 if exhaustive else self.params.max_gaps_per_row
            ),
            soa=soa,
        )
        margin = self.params.prune_margin
        max_points = (
            1 << 30 if exhaustive else self.params.max_insertion_points
        )
        return context.evaluate_best_first(max_points, margin)

    def evaluate_insert_many(
        self,
        occupancy: Occupancy,
        tasks: Sequence[Tuple[int, Rect]],
        exhaustive: bool = False,
    ) -> List[Tuple[Optional[EvaluatedInsertion], int]]:
        """Batched :meth:`evaluate_insert` over ``(cell, window)`` tasks.

        All tasks are evaluated against the same frozen occupancy and —
        on the vector backend — share the legalizer's SoA mirror, so row
        snapshots built for one window are reused by every later batch
        member touching the same rows.  Results are element-for-element
        exactly ``evaluate_insert(occupancy, cell, window)``.
        """
        soa = self.soa_for(occupancy)
        return [
            self.evaluate_insert(
                occupancy, cell, window,
                exhaustive=exhaustive, soa=soa,
            )
            for cell, window in tasks
        ]

    def try_insert(
        self,
        occupancy: Occupancy,
        cell: int,
        window: Rect,
        exhaustive: bool = False,
    ) -> Optional[EvaluatedInsertion]:
        """Serial-path wrapper of :meth:`evaluate_insert` that records stats.

        The stats update is a read-modify-write on shared state, so
        concurrent evaluation must run :meth:`evaluate_insert` and
        aggregate the counts serially instead (repro-lint C001).
        """
        best, _evaluated_points = self.evaluate_and_count(
            occupancy, cell, window, exhaustive=exhaustive
        )
        return best

    def evaluate_and_count(
        self,
        occupancy: Occupancy,
        cell: int,
        window: Rect,
        exhaustive: bool = False,
    ) -> Tuple[Optional[EvaluatedInsertion], int]:
        """:meth:`try_insert`'s computation, also returning the point count.

        The count feeds ``evaluate`` span payloads; callers that don't
        need it use :meth:`try_insert` (which tests may monkeypatch as
        the serial-evaluation seam).
        """
        best, evaluated_points = self.evaluate_insert(
            occupancy, cell, window, exhaustive=exhaustive,
            soa=self.soa_for(occupancy),
        )
        self.stats["insertions_evaluated"] += evaluated_points
        return best, evaluated_points

    def traced_evaluate(
        self,
        occupancy: Occupancy,
        cell: int,
        window: Rect,
        exhaustive: bool = False,
        reeval: bool = False,
    ) -> Optional[EvaluatedInsertion]:
        """Serial evaluation that records an ``evaluate`` span when tracing.

        With the :class:`NullTracer` this is exactly :meth:`try_insert`
        (including the monkeypatch seam); with a recording tracer it
        attaches the same payload a worker process would have produced
        for this evaluation, keeping the trace structure worker-count
        independent.  Cells dropped by the tracer's sampling policy take
        the untraced path — the keep/drop decision is cell-based, so it
        too is worker-count independent.
        """
        tracer = self.observer.tracer
        if not tracer.enabled or not tracer.sampled(cell):
            return self.try_insert(occupancy, cell, window, exhaustive=exhaustive)
        started = monotonic()
        best, evaluated_points = self.evaluate_and_count(
            occupancy, cell, window, exhaustive=exhaustive
        )
        tracer.attach_payloads([
            evaluation_span_payload(
                evaluated_points,
                best,
                reeval=reeval,
                exhaustive=exhaustive,
                duration=monotonic() - started,
            )
        ])
        return best

    def place(
        self,
        occupancy: Occupancy,
        span: Span,
        cell: int,
        window: Rect,
        expansions: int,
        insertion: EvaluatedInsertion,
        exhaustive: bool = False,
    ) -> None:
        """Commit one evaluated insertion found after ``expansions`` retries.

        Applies it, records the ``mgl.expansion_depth`` sample and
        stamps the cell's ``window`` span: the one commit path of the
        serial loop, the scheduler and shard reconciliation.  Every span
        attr is a pure function of the legalization inputs (the
        displacement comes from the just-applied placement), so the
        structure hash stays deterministic.  Sampled-out cells hand in
        the shared null span, whose ``recording`` flag skips the attrs.
        """
        self.apply_insertion(occupancy, cell, insertion)
        self.observer.observe(
            "mgl.expansion_depth", float(expansions), EXPANSION_BUCKETS
        )
        if not span.recording:
            return
        span.set(
            cell=cell,
            expansions=expansions,
            window_xlo=window.xlo,
            window_ylo=window.ylo,
            window_xhi=window.xhi,
            window_yhi=window.yhi,
            x=insertion.x,
            y=insertion.y,
            cost=insertion.cost,
            disp=occupancy.placement.displacement(cell),
            exhaustive=exhaustive,
        )

    def place_exhaustive(
        self, occupancy: Occupancy, span: Span, cell: int
    ) -> EvaluatedInsertion:
        """Last resort: the whole chip as the window, with all caps lifted.

        Raises:
            LegalizationError: when not even the chip window holds the
                cell, naming the cell and its fence.
        """
        chip = self.design.chip_rect
        insertion = self.traced_evaluate(occupancy, cell, chip, exhaustive=True)
        if insertion is None:
            raise LegalizationError(
                f"cell {cell} ({self.design.cells[cell].name!r}) cannot be "
                f"placed; fence {self.design.fence_of(cell)} appears over-full"
            )
        self.place(
            occupancy, span, cell, chip, MAX_EXPANSIONS, insertion,
            exhaustive=True,
        )
        return insertion

    def apply_insertion(
        self, occupancy: Occupancy, cell: int, insertion: EvaluatedInsertion
    ) -> None:
        """Spread local cells and register the target at its new position."""
        placement = occupancy.placement
        right_moves = sorted(
            (move for move in insertion.moves if move[1] > placement.x[move[0]]),
            key=lambda move: -placement.x[move[0]],
        )
        left_moves = sorted(
            (move for move in insertion.moves if move[1] < placement.x[move[0]]),
            key=lambda move: placement.x[move[0]],
        )
        for moved_cell, new_x in right_moves:
            occupancy.update_x(moved_cell, new_x)
        for moved_cell, new_x in left_moves:
            occupancy.update_x(moved_cell, new_x)
        placement.move(cell, insertion.x, insertion.y)
        occupancy.add(cell)
        self.stats["cells_placed"] += 1

    def legalize_cell(self, occupancy: Occupancy, cell: int) -> EvaluatedInsertion:
        """Place one cell, expanding the window on failure.

        Raises:
            LegalizationError: when no feasible insertion exists even at
                the final (chip-sized) window.
        """
        scale = 1.0
        with self.observer.tracer.cell_span("window", cell) as span:
            for attempt in range(MAX_EXPANSIONS):
                window = self.initial_window(cell, scale)
                insertion = self.traced_evaluate(occupancy, cell, window)
                if insertion is not None:
                    self.place(
                        occupancy, span, cell, window, attempt, insertion
                    )
                    return insertion
                self.stats["window_expansions"] += 1
                scale *= WINDOW_EXPAND
            return self.place_exhaustive(occupancy, span, cell)

    def run(self, placement: Optional[Placement] = None) -> Placement:
        """Legalize every movable cell; returns the placement.

        A fresh placement is created unless one is supplied (whose
        positions are overwritten for movable cells; fixed cells are
        pinned at their GP positions).
        """
        design = self.design
        if placement is None:
            placement = Placement(design)
        occupancy = fixed_cell_occupancy(design, placement)
        # Register the fixed cell order with the tracer's sampling
        # policy before any per-cell span opens; the sampled set is a
        # pure function of this order, never of the execution path
        # (serial / scheduler / sharded) chosen below.
        order = mgl_cell_order(design)
        self.observer.tracer.set_cell_population(order)
        if self.params.shards > 1:
            from repro.core.shard import run_sharded

            run_sharded(self, occupancy)
        elif self.params.scheduler_capacity > 1:
            from repro.core.scheduler import WindowScheduler

            WindowScheduler(self, occupancy).run()
        else:
            total = len(order)
            progress = self.observer.progress
            progress.phase("mgl_serial", cells=total)
            for placed, cell in enumerate(order, start=1):
                self.legalize_cell(occupancy, cell)
                progress.cells(
                    placed, total, disp=disp_so_far(occupancy),
                    window_expansions=self.stats["window_expansions"],
                )
        return placement
