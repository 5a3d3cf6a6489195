"""Deterministic multi-window scheduler (paper §3.5).

The paper parallelizes MGL by processing non-overlapping windows
simultaneously: a scheduler keeps a processing list ``L_p`` (bounded
capacity) and a waiting list ``L_w``; windows that fail get expanded and
re-queued.  Because the scheduler synchronizes after every batch and
selects windows deterministically, the outcome is identical for any
thread count once the ``L_p`` capacity is fixed.

Our reproduction keeps exactly that structure.  Batch members are
pairwise non-overlapping; their insertions are **evaluated** against the
frozen batch-start occupancy — in-process, or in ``scheduler_workers``
lanes of a process pool whose lane 0 is this process (see
:mod:`repro.core.parallel`), which sidesteps the GIL that would
serialize Python threads — and then **applied**
serially in selection order.  Since pushes may exit a window (up to the
nearest wall), each application first verifies the evaluated moves are
still conflict-free and silently re-evaluates when an earlier batch
member interfered.  The result is therefore a pure function of the
batch order — deterministic regardless of worker count or timing, the
property the paper claims.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.core.insertion import EvaluatedInsertion
from repro.core.mgl import (
    MAX_EXPANSIONS,
    WINDOW_EXPAND,
    MGLegalizer,
    disp_so_far,
    evaluation_span_payload,
    mgl_cell_order,
)
from repro.core.occupancy import Occupancy
from repro.model.geometry import Rect
from repro.obs.clock import monotonic
from repro.obs.metrics import BATCH_OCCUPANCY_BUCKETS, BATCH_WIDTH_BUCKETS
from repro.obs.tracer import SpanPayload

if TYPE_CHECKING:
    from repro.core.parallel import EvalTask, ParallelEvaluator, ResultSpec

#: One batch member's evaluation: the insertion (or None) plus, when a
#: tracer is enabled, the ``evaluate`` span payload that produced it.
EvalOutcome = Tuple[Optional[EvaluatedInsertion], Optional[SpanPayload]]

#: A queued cell: (cell, window scale, failed attempts, its window).  The
#: window is ``initial_window(cell, scale)``, computed once per (re)queue.
Queued = Tuple[int, float, int, Rect]


def evaluate_member(
    legalizer: MGLegalizer, occupancy: Occupancy, task: "EvalTask"
) -> "ResultSpec":
    """Evaluate one batch member in this process.

    The scheduler's one local evaluation: every member of a batch
    without a pool, and, as the pool's local function, lane 0's members
    and every member a lost worker held.  Nothing is applied until the
    whole batch is evaluated, so it reads the batch-start state, as the
    workers' mirrors do.  Only sampled cells get an ``evaluate`` payload.
    """
    cell, window = task
    tracer = legalizer.observer.tracer
    sampled = tracer.enabled and tracer.sampled(cell)
    started = monotonic() if sampled else 0.0
    best, points = legalizer.evaluate_insert(
        occupancy, cell, window, soa=legalizer.soa()
    )
    payload = (
        evaluation_span_payload(points, best, duration=monotonic() - started)
        if sampled
        else None
    )
    return best, points, payload


class WindowScheduler:
    """Batches non-overlapping MGL windows with bounded capacity."""

    def __init__(self, legalizer: MGLegalizer, occupancy: Occupancy):
        self.legalizer = legalizer
        self.occupancy = occupancy
        self.capacity = legalizer.params.scheduler_capacity
        self.workers = legalizer.params.scheduler_workers
        self.batches_run = 0
        self.reevaluations = 0
        #: Live process-pool backend, when ``scheduler_workers`` >= 2
        #: and a worker came up (see :meth:`run`).
        self.parallel: Optional["ParallelEvaluator"] = None
        #: Every row's version when the current batch began; None
        #: outside :meth:`run`.
        self._batch_versions: Optional[List[int]] = None

    def run(self) -> None:
        """Process every movable cell to completion.

        Raises:
            LegalizationError: propagated from the legalizer when a cell
                cannot be placed at the maximum window size.
        """
        legalizer = self.legalizer
        waiting: Deque[Queued] = deque(
            (cell, 1.0, 0, legalizer.initial_window(cell, 1.0))
            for cell in mgl_cell_order(legalizer.design)
        )
        total_cells = len(waiting)
        observer = legalizer.observer
        progress = observer.progress
        progress.phase(
            "mgl_scheduler",
            cells=total_cells,
            capacity=self.capacity,
            workers=self.workers,
        )
        parallel = None
        if self.workers >= 2:
            from repro.core.parallel import ParallelEvaluator, ParallelUnavailable

            try:
                # The local function holds the legalizer and occupancy,
                # not this scheduler, which holds the evaluator: no
                # reference cycle outlives the run.
                parallel = ParallelEvaluator(
                    legalizer, self.occupancy, self.workers,
                    partial(evaluate_member, legalizer, self.occupancy),
                )
            except ParallelUnavailable:
                # Degrade to the (identical-output) in-process path.
                parallel = None
        self.parallel = parallel

        tracer = observer.tracer
        try:
            while waiting:
                batch = self._select_batch(waiting)
                self.batches_run += 1
                self._batch_versions = self.occupancy.row_versions()
                observer.observe(
                    "scheduler.batch_occupancy",
                    float(len(batch)),
                    BATCH_OCCUPANCY_BUCKETS,
                )
                with tracer.span("batch") as batch_span:
                    if tracer.enabled:
                        batch_span.set(size=len(batch))
                    evaluations = self._evaluate_batch(batch)
                    for (cell, scale, attempts, window), (
                        insertion, payload
                    ) in zip(batch, evaluations):
                        with tracer.cell_span("window", cell) as span:
                            # The payload gate mirrors cell_span's
                            # sampling decision: worker processes build
                            # payloads for every member, but only
                            # sampled cells' spans join the tree.
                            if payload is not None and tracer.sampled(cell):
                                tracer.attach_payloads([payload])
                            if insertion is not None and not self._still_valid(
                                cell, insertion
                            ):
                                # An earlier batch member's spread
                                # interfered; redo this one against the
                                # current state.
                                self.reevaluations += 1
                                insertion = legalizer.traced_evaluate(
                                    self.occupancy, cell, window, reeval=True
                                )
                            if insertion is not None:
                                legalizer.place(
                                    self.occupancy, span, cell, window,
                                    attempts, insertion,
                                )
                                continue
                            legalizer.stats["window_expansions"] += 1
                            attempts += 1
                            if attempts >= MAX_EXPANSIONS:
                                # Final attempt at chip scale,
                                # synchronously and exhaustively.
                                legalizer.place_exhaustive(
                                    self.occupancy, span, cell
                                )
                            else:
                                # Re-queue at the front: a failed (usually
                                # large) cell must not fall behind the
                                # small cells that would otherwise fragment
                                # its remaining space.
                                if span.recording:
                                    span.set(cell=cell, requeued=True)
                                grown = scale * WINDOW_EXPAND
                                waiting.appendleft((
                                    cell, grown, attempts,
                                    legalizer.initial_window(cell, grown),
                                ))
                if progress.enabled:
                    alive = (
                        len(self.parallel.pool.alive)
                        if self.parallel is not None
                        else 0
                    )
                    progress.cells(
                        legalizer.stats["cells_placed"],
                        total_cells,
                        disp=disp_so_far(self.occupancy),
                        batches=self.batches_run,
                        reevals=self.reevaluations,
                        deferred=len(waiting),
                        workers_alive=alive,
                    )
            legalizer.stats["scheduler_batches"] = self.batches_run
            legalizer.stats["scheduler_reevaluations"] = self.reevaluations
        finally:
            self._batch_versions = None
            if parallel is not None:
                parallel.close()

    # ------------------------------------------------------------------

    def _select_batch(self, waiting: Deque[Queued]) -> List[Queued]:
        """Fill L_p: first-fit scan of L_w for pairwise-disjoint windows.

        Pops the batch off the front of ``waiting``.  Entries skipped for
        overlapping an earlier member go back to its front in their
        order, preserving the deterministic queue order.
        """
        batch: List[Queued] = []
        taken: List[Tuple[float, float, float, float]] = []
        skipped: List[Queued] = []
        capacity = self.capacity
        while waiting and len(batch) < capacity:
            queued = waiting.popleft()
            window = queued[3]
            xlo, ylo, xhi, yhi = window.xlo, window.ylo, window.xhi, window.yhi
            # Rect.overlaps, inlined over the members' bounds.
            for other_xlo, other_ylo, other_xhi, other_yhi in taken:
                if (
                    xlo < other_xhi and other_xlo < xhi
                    and ylo < other_yhi and other_ylo < yhi
                ):
                    skipped.append(queued)
                    break
            else:
                batch.append(queued)
                taken.append((xlo, ylo, xhi, yhi))
        waiting.extendleft(reversed(skipped))
        return batch

    def _evaluate_batch(self, batch: List[Queued]) -> List[EvalOutcome]:
        """Evaluate all members against the frozen batch-start state.

        Returns one ``(insertion, payload)`` pair per batch member; the
        payload is the member's ``evaluate`` span and stays None when no
        tracer is enabled.  Whichever lane runs the evaluation — worker
        process or this one — the payload is the same pure function of
        the task, so the trace structure never depends on the lanes.

        Multi-member batches go to the process pool while it has a live
        worker; :func:`evaluate_member` evaluates its lane 0 and every
        member it loses, and every member of a batch without a pool.
        The batch width lands in the ``mgl.batch_width`` histogram here,
        once per batch, so the distribution is the same for any worker
        count.
        """
        legalizer = self.legalizer
        legalizer.observer.observe(
            "mgl.batch_width", float(len(batch)), BATCH_WIDTH_BUCKETS
        )
        tasks: List["EvalTask"] = [
            (cell, window) for cell, _scale, _attempts, window in batch
        ]
        parallel = self.parallel
        if parallel is not None and not parallel.active:
            # Every worker failed earlier; continue in process for the
            # rest of the run (identical placements either way).
            parallel.close()
            self.parallel = parallel = None
        if parallel is not None and len(tasks) > 1:
            results = parallel.evaluate_batch(
                tasks, want_payloads=legalizer.observer.tracer.enabled
            )
        else:
            results = [
                evaluate_member(legalizer, self.occupancy, task)
                for task in tasks
            ]
        stats = legalizer.stats
        outcomes: List[EvalOutcome] = []
        for best, points, payload in results:
            stats["insertions_evaluated"] += points
            outcomes.append((best, payload))
        return outcomes

    def _still_valid(self, target: int, insertion: EvaluatedInsertion) -> bool:
        """Check the evaluated moves against the *current* occupancy.

        Every planned span (spread moves plus the target itself) must be
        overlap-free and edge-spacing-clean against cells outside the
        plan; planned cells are consistent among themselves by
        construction.  The check reads only the rows the plan spans, so
        during :meth:`run`, when none of them changed since the batch
        began, it holds as it did when the plan was evaluated, and the
        scan is skipped.
        """
        occupancy = self.occupancy
        placement = occupancy.placement
        planned: Dict[int, Tuple[int, int]] = {
            cell: (new_x, placement.y[cell]) for cell, new_x in insertion.moves
        }
        planned[target] = (insertion.x, insertion.y)
        start = self._batch_versions
        if start is None:
            return self._scan_valid(planned)
        heights = self.legalizer.design.cell_heights
        for cell, (_x, y) in planned.items():
            for row in range(y, y + heights[cell]):
                if occupancy.row_version(row) != start[row]:
                    return self._scan_valid(planned)
        return True

    def _scan_valid(self, planned: Dict[int, Tuple[int, int]]) -> bool:
        """:meth:`_still_valid`'s scan over the plan's rows."""
        from repro.checker.routability import required_gap

        design = self.legalizer.design
        placement = self.occupancy.placement
        for cell, (x, y) in planned.items():
            cell_type = design.cell_type_of(cell)
            for row in range(y, y + cell_type.height):
                for other in self.occupancy.cells_in_range(
                    row, x - 64, x + cell_type.width + 64
                ):
                    if other == cell or other in planned:
                        continue
                    other_x = placement.x[other]
                    other_w = design.cell_type_of(other).width
                    if other_x < x:
                        if other_x + other_w + required_gap(
                            design, other, cell
                        ) > x:
                            return False
                    else:
                        if x + cell_type.width + required_gap(
                            design, cell, other
                        ) > other_x:
                            return False
        return True
