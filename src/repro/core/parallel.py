"""Process-based parallel evaluation backend for the MGL scheduler (§3.5).

Python threads cannot speed up the scheduler's evaluation phase — the
GIL serializes them — so this module fans batches out to a persistent
pool of **worker processes** instead.  The design preserves the paper's
determinism guarantee exactly:

* Every worker holds a read-only copy of the :class:`~repro.model.design.Design`
  and rebuilds the same :class:`~repro.core.mgl.MGLegalizer` evaluation
  state (routability guard, height weights) from
  ``(design, params, reference)``; all of these are pure functions of
  the design and parameters.
* Workers mirror the scheduler's :class:`~repro.core.occupancy.Occupancy`
  and are kept in sync with compact per-batch **deltas** — the journal
  of ``add``/``update_x``/``remove`` ops recorded by the occupancy since
  the worker's last batch — instead of full snapshots.  Each shipped
  task is tagged with the parent's :meth:`Occupancy.row_version` for
  every row its window spans; the worker verifies its mirrored versions
  match (modulo a fixed offset captured at spawn) before evaluating, so
  a protocol bug fails loudly instead of silently diverging.
* Workers only ever run the *pure* :meth:`MGLegalizer.evaluate_insert`
  against their mirror; results (:class:`EvaluatedInsertion`) flow back
  to the parent, which applies them **serially in selection order** with
  the scheduler's usual conflict re-check.  The placement is therefore a
  pure function of the batch order — bit-identical to the in-process
  path for any worker count, including zero.

Failure policy: a worker that cannot be spawned, crashes, hangs past
:data:`WORKER_TIMEOUT`, or chokes on (un)pickling is retired and its
share of the batch is re-evaluated in-process, so no cell is ever lost
to a parallel-infrastructure failure; when every worker has been
retired the scheduler simply continues on the serial path.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.insertion import EvaluatedInsertion
from repro.core.occupancy import DeltaOp, Occupancy
from repro.core.params import LegalizerParams
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.obs.clock import monotonic
from repro.obs.tracer import SpanPayload

if TYPE_CHECKING:
    from multiprocessing.context import ForkContext, SpawnContext
    from multiprocessing.process import BaseProcess

    from repro.core.mgl import MGLegalizer
    from repro.perf import PerfRecorder

#: Seconds the parent waits for one worker's batch results (or its spawn
#: handshake) before retiring it and re-evaluating in-process.  Generous:
#: a batch share is at most ``scheduler_capacity`` window evaluations.
WORKER_TIMEOUT = 300.0

#: One evaluation request: (slot in the batch, cell, window, row tags).
#: The tags are ``(row, parent_row_version)`` pairs covering every row
#: the window spans — the exact occupancy state the evaluation reads.
TaskSpec = Tuple[int, int, Rect, Tuple[Tuple[int, int], ...]]

#: One evaluation response: (slot, best insertion or None, points
#: evaluated, ``evaluate`` span payload or None).  The payload — built by
#: :func:`repro.core.mgl.evaluation_span_payload`, a pure function of the
#: task — is only populated when the batch message asked for spans.
ResultSpec = Tuple[
    int, Optional[EvaluatedInsertion], int, Optional[SpanPayload]
]


class ParallelUnavailable(RuntimeError):
    """Raised when the worker pool cannot be brought up at all."""


def _pick_context() -> "ForkContext | SpawnContext":
    """The cheapest start method available: fork where supported.

    Forked workers still receive their full state through the init
    message (nothing is read from inherited globals), so the choice of
    start method affects spawn latency only, never results.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _apply_ops(
    occupancy: Occupancy, placement: Placement, ops: Sequence[DeltaOp]
) -> None:
    """Replay a journal slice onto the worker's occupancy mirror."""
    for op, cell, a, b in ops:
        if op == "a":
            placement.move(cell, a, b)
            occupancy.add(cell)
        elif op == "m":
            occupancy.update_x(cell, a)
        else:  # "r"
            occupancy.remove(cell)


def worker_main(conn: Connection) -> None:
    """Entry point of one evaluation worker process.

    Protocol (all messages are tuples; the first element is the tag):

    * receive ``("init", design, params, reference, placed, versions)``
      once — build the legalizer and the occupancy mirror, reply
      ``("ready",)``;
    * then repeatedly receive ``("batch", ops_blob, tasks, want_spans)``
      — apply the pickled journal slice, verify row-version tags,
      evaluate every task (building ``evaluate`` span payloads when
      ``want_spans``), reply ``("results", results, busy_seconds)``;
    * ``("stop",)`` ends the loop.

    Any exception is reported as ``("error", message)`` and kills the
    worker: its mirror can no longer be trusted, and the parent falls
    back to in-process evaluation for its share of the work.
    """
    from repro.core.mgl import MGLegalizer, evaluation_span_payload

    try:
        message = conn.recv()
        if message[0] != "init":  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected init, got {message[0]!r}")
        design, params, reference, placed, parent_versions = message[1:]
        assert isinstance(params, LegalizerParams)
        legalizer = MGLegalizer(design, params, reference=reference)
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        for cell, x, y in placed:
            placement.move(cell, x, y)
            occupancy.add(cell)
        # The parent's row versions include history from before this
        # snapshot; remember the per-row offset so tags can be checked
        # against the mirror's own counters.
        offsets: List[int] = [
            int(parent_versions[row]) - occupancy.row_version(row)
            for row in range(design.num_rows)
        ]
        # Vector backend: one SoA mirror per worker, resolved once — the
        # mirror's occupancy identity never changes here, and its per-row
        # snapshots re-sync from row versions as journal deltas land, so
        # every task in every batch reads fresh state through it.  None
        # on the scalar backend.
        soa = legalizer.soa_for(occupancy)
        conn.send(("ready",))

        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] != "batch":  # pragma: no cover - protocol guard
                raise RuntimeError(f"expected batch, got {message[0]!r}")
            _tag, ops_blob, tasks, want_spans = message
            _apply_ops(occupancy, placement, pickle.loads(ops_blob))
            results: List[ResultSpec] = []
            busy_start = monotonic()
            for slot, cell, window, row_tags in tasks:
                for row, version in row_tags:
                    mirrored = occupancy.row_version(row) + offsets[row]
                    if mirrored != version:
                        raise RuntimeError(
                            f"occupancy mirror out of sync: row {row} at "
                            f"version {mirrored}, parent at {version}"
                        )
                eval_start = monotonic()
                best, points = legalizer.evaluate_insert(
                    occupancy, cell, window, soa=soa
                )
                payload = (
                    evaluation_span_payload(
                        points, best, duration=monotonic() - eval_start
                    )
                    if want_spans
                    else None
                )
                if best is not None:
                    # Strip the Gap tuple: the parent only needs the
                    # position and spread moves, and gaps reference
                    # Segment objects that would bloat the response.
                    best = EvaluatedInsertion(
                        x=best.x, y=best.y, cost=best.cost, moves=best.moves
                    )
                results.append((slot, best, points, payload))
            conn.send(("results", results, monotonic() - busy_start))
    except EOFError:
        pass  # Parent went away; nothing to report to.
    except Exception as error:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError, pickle.PicklingError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    index: int
    process: "BaseProcess"
    conn: Connection
    #: Absolute journal position this worker's mirror has applied.
    position: int = 0
    alive: bool = True


class ParallelEvaluator:
    """Persistent process pool evaluating scheduler batches.

    Spawned once per :meth:`WindowScheduler.run`; attach/detach happens
    in :meth:`__init__`/:meth:`close`.  The occupancy journal is hooked
    on construction so every subsequent mutation (the apply phase
    between batches) lands in the delta stream automatically.

    Args:
        legalizer: the scheduler's legalizer (provides params, stats and
            the in-process fallback evaluation).
        occupancy: the live occupancy the scheduler mutates.
        num_workers: processes to spawn (>= 1).
        recorder: optional perf recorder for per-worker busy timers.

    Raises:
        ParallelUnavailable: when no worker survives the spawn
            handshake; the caller should continue on the serial path.
    """

    def __init__(
        self,
        legalizer: "MGLegalizer",
        occupancy: Occupancy,
        num_workers: int,
        recorder: Optional["PerfRecorder"] = None,
        timeout: float = WORKER_TIMEOUT,
    ):
        self.legalizer = legalizer
        self.occupancy = occupancy
        self.recorder = recorder
        self.timeout = timeout
        self._journal: List[DeltaOp] = []
        self._base = 0  # Absolute journal position of self._journal[0].
        self.workers: List[_Worker] = []
        stats = legalizer.stats
        for key in (
            "parallel_batches",
            "parallel_tasks",
            "parallel_fallbacks",
            "parallel_delta_ops",
            "parallel_delta_bytes",
            "parallel_worker_failures",
            "scheduler_workers_spawned",
        ):
            stats.setdefault(key, 0)

        design = legalizer.design
        placement = occupancy.placement
        placed = sorted(occupancy.placed_cells)
        init_message = (
            "init",
            design,
            legalizer.params,
            legalizer.reference,
            [(cell, placement.x[cell], placement.y[cell]) for cell in placed],
            [occupancy.row_version(row) for row in range(design.num_rows)],
        )
        context = _pick_context()
        for index in range(num_workers):
            try:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                parent_conn.send(init_message)
                self.workers.append(_Worker(index, process, parent_conn))
            except Exception:  # noqa: BLE001 - spawn failure => fewer workers
                stats["parallel_worker_failures"] += 1
        # Handshake: a worker that cannot init (or hangs) is retired now.
        for worker in self.workers:
            try:
                if not worker.conn.poll(self.timeout):
                    raise TimeoutError("worker init handshake timed out")
                reply = worker.conn.recv()
                if reply[0] != "ready":
                    raise RuntimeError(f"worker init failed: {reply!r}")
            except Exception:  # noqa: BLE001
                self._retire(worker)
        if not any(worker.alive for worker in self.workers):
            self.close()
            raise ParallelUnavailable(
                f"none of {num_workers} evaluation workers came up"
            )
        stats["scheduler_workers_spawned"] += sum(
            1 for worker in self.workers if worker.alive
        )
        occupancy.set_journal(self._journal)

    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether at least one worker can still take work."""
        return any(worker.alive for worker in self.workers)

    def evaluate_batch(
        self,
        batch: Sequence[Tuple[int, float, int, Rect]],
        want_payloads: bool = False,
    ) -> List[Tuple[Optional[EvaluatedInsertion], Optional[SpanPayload]]]:
        """Evaluate one scheduler batch on the pool.

        Tasks are striped over the live workers; each worker receives
        exactly one message (its journal delta plus its task share) and
        sends exactly one reply.  Shares of workers that fail at any
        point are evaluated in-process against the live occupancy —
        which still holds the batch-start state, so results are
        identical.  The returned list is aligned with ``batch``; each
        entry pairs the insertion with its ``evaluate`` span payload
        when ``want_payloads`` (None otherwise).  Fallback evaluations
        build the identical payload in-process, so worker failures never
        change the trace structure.
        """
        from repro.core.mgl import evaluation_span_payload

        legalizer = self.legalizer
        stats = legalizer.stats
        results: List[
            Tuple[Optional[EvaluatedInsertion], Optional[SpanPayload]]
        ] = [(None, None)] * len(batch)
        alive = [worker for worker in self.workers if worker.alive]
        fallback: List[TaskSpec] = []
        if alive:
            shares: Dict[int, List[TaskSpec]] = {
                worker.index: [] for worker in alive
            }
            for slot, (cell, _scale, _attempts, window) in enumerate(batch):
                task: TaskSpec = (slot, cell, window, self._row_tags(window))
                shares[alive[slot % len(alive)].index].append(task)
            journal_end = self._base + len(self._journal)
            pending: List[Tuple[_Worker, List[TaskSpec]]] = []
            by_index = {worker.index: worker for worker in self.workers}
            for index, tasks in shares.items():
                if not tasks:
                    continue
                worker = by_index[index]
                ops = self._journal[worker.position - self._base :]
                try:
                    blob = pickle.dumps(ops, protocol=pickle.HIGHEST_PROTOCOL)
                    worker.conn.send(("batch", blob, tasks, want_payloads))
                except Exception:  # noqa: BLE001 - retire, evaluate locally
                    self._retire(worker)
                    fallback.extend(tasks)
                    continue
                worker.position = journal_end
                stats["parallel_delta_ops"] += len(ops)
                stats["parallel_delta_bytes"] += len(blob)
                stats["parallel_tasks"] += len(tasks)
                pending.append((worker, tasks))
            for worker, tasks in pending:
                try:
                    if not worker.conn.poll(self.timeout):
                        raise TimeoutError("worker batch reply timed out")
                    reply = worker.conn.recv()
                    if reply[0] != "results":
                        raise RuntimeError(f"worker reported: {reply!r}")
                    _tag, worker_results, busy_seconds = reply
                    if self.recorder is not None:
                        self.recorder.record(
                            f"parallel.worker{worker.index}", busy_seconds
                        )
                    for slot, best, points, payload in worker_results:
                        if payload is not None:
                            # Which worker ran it is non-structural meta.
                            payload["worker"] = worker.index
                        results[slot] = (best, payload)
                        stats["insertions_evaluated"] += points
                except Exception:  # noqa: BLE001 - retire, evaluate locally
                    self._retire(worker)
                    fallback.extend(tasks)
            stats["parallel_batches"] += 1
            self._compact()
        else:
            fallback = [
                (slot, cell, window, ())
                for slot, (cell, _scale, _attempts, window) in enumerate(batch)
            ]
        for slot, cell, window, _tags in fallback:
            # In-process re-evaluation: the live occupancy still holds
            # the batch-start state (applies happen after evaluation),
            # so this is the exact computation the worker would have
            # produced — including the span payload, whose structural
            # attrs are a pure function of the task.
            stats["parallel_fallbacks"] += 1
            if want_payloads:
                best, points = legalizer.evaluate_and_count(
                    self.occupancy, cell, window
                )
                results[slot] = (
                    best, evaluation_span_payload(points, best)
                )
            else:
                results[slot] = (
                    legalizer.try_insert(self.occupancy, cell, window), None
                )
        return results

    def close(self) -> None:
        """Detach the journal and shut the pool down."""
        self.occupancy.set_journal(None)
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except Exception:  # noqa: BLE001
                    pass
            worker.alive = False
            worker.conn.close()
        for worker in self.workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)

    # ------------------------------------------------------------------

    def _row_tags(self, window: Rect) -> Tuple[Tuple[int, int], ...]:
        """Parent row versions for every row the window spans."""
        occupancy = self.occupancy
        lo = max(0, int(math.floor(window.ylo)))
        hi = min(self.legalizer.design.num_rows, int(math.ceil(window.yhi)))
        return tuple(
            (row, occupancy.row_version(row)) for row in range(lo, hi)
        )

    def _retire(self, worker: _Worker) -> None:
        """Permanently remove a failed worker from the rotation."""
        if not worker.alive:
            return
        worker.alive = False
        self.legalizer.stats["parallel_worker_failures"] += 1
        # The in-process fallback makes retirement invisible in the
        # placement, so surface it in the metrics registry explicitly.
        if self.recorder is not None:
            self.recorder.registry.count("scheduler.worker_retired")
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.terminate()

    def _compact(self) -> None:
        """Drop journal prefix every live worker has already applied."""
        alive_positions = [
            worker.position for worker in self.workers if worker.alive
        ]
        if not alive_positions:
            return
        cut = min(alive_positions) - self._base
        if cut > 2048:
            del self._journal[:cut]
            self._base += cut
