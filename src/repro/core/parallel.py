"""Worker processes for MGL's two parallel paths (§3.5).

Python threads cannot speed MGL up — the GIL serializes them — so both
parallel paths run on worker **processes**, through one
:class:`WorkerPool`.  The pool owns the start method, spawning, the
``("init", ...)`` handshake, striping items over the live workers with
exactly one ``("work", share)`` message and one
``("results", results, busy_seconds)`` reply per worker and round,
retirement, and shutdown.  It has two users, each with its own worker
entry point:

* :class:`ParallelEvaluator` evaluates the window scheduler's batches
  (:mod:`repro.core.scheduler`) with :func:`worker_main`.  Every worker
  rebuilds the same :class:`~repro.core.mgl.MGLegalizer` evaluation
  state (routability guard, height weights) from
  ``(design, params, reference)`` and mirrors the scheduler's
  :class:`~repro.core.occupancy.Occupancy`, kept in sync with compact
  per-batch **deltas** — the journal of ``add``/``update_x``/``remove``
  ops recorded since the worker's last batch — instead of full
  snapshots.  Each task is tagged with the parent's
  :meth:`Occupancy.row_version` for every row its window spans; the
  worker verifies its mirrored versions match (modulo a fixed offset
  captured at spawn) before evaluating, so a protocol bug fails loudly
  instead of silently diverging.  Workers only ever run the *pure*
  :meth:`MGLegalizer.evaluate_insert`; the scheduler applies the
  results **serially in selection order** with its usual conflict
  re-check.
* :func:`repro.core.shard.run_sharded` legalizes fresh shard interiors
  with :func:`repro.core.shard.shard_worker_main`.

Either way a worker computes exactly what the parent would compute in
process, so the placement is bit-identical for any worker count,
including zero.

Failure policy: a worker that cannot be spawned (or finds no start
method at all), crashes, hangs past :data:`WORKER_TIMEOUT`, or is handed
a share that cannot be pickled is retired.  The items it held come back
as None from :meth:`WorkerPool.run`, and the caller computes them in
process, so no cell is ever lost to a parallel-infrastructure failure.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import (
    Any, Callable, List, Optional, Sequence, Tuple, TypeVar, TYPE_CHECKING,
)

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
    from repro.core.scheduler import EvalOutcome

#: Seconds the parent waits for one worker's reply (its init handshake
#: or one round's results) before retiring it.  Generous: a share is at
#: most ``scheduler_capacity`` window evaluations or a few shard
#: interiors.
WORKER_TIMEOUT = 300.0

#: One evaluation request: (cell, window, row tags).  The tags are
#: ``(row, parent_row_version)`` pairs covering every row the window
#: spans — the exact occupancy state the evaluation reads.
TaskSpec = Tuple[int, Rect, Tuple[Tuple[int, int], ...]]

#: One evaluation response: (best insertion or None, points evaluated,
#: ``evaluate`` span payload or None).  The payload — built by
#: :func:`repro.core.mgl.evaluation_span_payload`, a pure function of the
#: task — is only populated when the work message asked for spans.
ResultSpec = Tuple[Optional[EvaluatedInsertion], int, Optional[SpanPayload]]

Item = TypeVar("Item")


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
    """Entry point of one window-evaluation worker process.

    Protocol (see :class:`WorkerPool`):

    * receive ``("init", design, params, reference, placed, versions)``
      once — build the legalizer and the occupancy mirror, reply
      ``("ready",)``;
    * then repeatedly receive
      ``("work", (index, ops_blob, tasks, want_spans))`` — apply the
      pickled journal slice, verify row-version tags, evaluate every
      task (building ``evaluate`` span payloads, stamped with this
      worker's ``index``, when ``want_spans``), reply
      ``("results", results, busy_seconds)``;
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
            if message[0] != "work":  # pragma: no cover - protocol guard
                raise RuntimeError(f"expected work, got {message[0]!r}")
            index, ops_blob, tasks, want_spans = message[1]
            _apply_ops(occupancy, placement, pickle.loads(ops_blob))
            results: List[ResultSpec] = []
            busy_start = monotonic()
            for cell, window, row_tags in tasks:
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
                        points, best,
                        duration=monotonic() - eval_start, worker=index,
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
                results.append((best, points, payload))
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


@dataclass(frozen=True)
class PoolNames:
    """Where one pool user records its workers."""

    #: Stats key counting workers lost at spawn, handshake or work.
    failures: str
    #: Stats key counting workers that completed the handshake.
    spawned: str
    #: Metrics counter of workers retired after they were started.
    retired: str
    #: Prefix of the per-worker busy timers (``<busy><index>``).
    busy: str


SCHEDULER_POOL = PoolNames(
    failures="parallel_worker_failures",
    spawned="scheduler_workers_spawned",
    retired="scheduler.worker_retired",
    busy="parallel.worker",
)


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    index: int
    process: "BaseProcess"
    conn: Connection
    alive: bool = True


class WorkerPool:
    """Persistent worker processes, each taking one share per round.

    Every worker runs ``target(conn)``, receives ``("init", *init)``
    and must answer ``("ready",)``; :meth:`run` then sends it
    ``("work", share)`` and expects ``("results", results,
    busy_seconds)`` with one result per share item, in order, and
    :meth:`close` sends ``("stop",)``.  A worker may answer
    ``("error", message)`` instead; the pool retires it.

    Args:
        target: the worker entry point, looked up by the caller when the
            pool is built (tests and the sanitizer replace it by name).
        init: the payload of the init message.
        num_workers: processes to spawn.
        legalizer: its ``stats`` and ``observer`` record the workers.
        names: the stats keys and metric names those records use.
    """

    def __init__(
        self,
        target: Callable[[Connection], None],
        init: Tuple[Any, ...],
        num_workers: int,
        legalizer: "MGLegalizer",
        names: PoolNames,
    ):
        self.names = names
        self.stats = legalizer.stats
        self.observer = legalizer.observer
        self.workers: List[_Worker] = []
        self.stats.setdefault(names.failures, 0)
        self.stats.setdefault(names.spawned, 0)
        try:
            context = _pick_context()
        except Exception:  # noqa: BLE001 - no start method: no workers
            self.stats[names.failures] += num_workers
            return
        for index in range(num_workers):
            try:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=target, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                parent_conn.send(("init", *init))
                self.workers.append(_Worker(index, process, parent_conn))
            except Exception:  # noqa: BLE001 - spawn failure => fewer workers
                self.stats[names.failures] += 1
        # Handshake: a worker that cannot init (or hangs) is retired now.
        for worker in self.workers:
            try:
                reply = self._receive(worker)
                if reply[0] != "ready":
                    raise RuntimeError(f"worker init failed: {reply!r}")
            except Exception:  # noqa: BLE001
                self._retire(worker)
        self.stats[names.spawned] += len(self.alive)

    @property
    def alive(self) -> List[_Worker]:
        """The workers that can still take work."""
        return [worker for worker in self.workers if worker.alive]

    def run(
        self,
        items: Sequence[Item],
        share: Optional[Callable[[int, List[Item]], Any]] = None,
    ) -> List[Any]:
        """One round: every live worker computes its stripe of ``items``.

        Item ``i`` goes to live worker ``i mod n``; ``share(index,
        stripe)`` builds the payload of that worker's one work message
        (the stripe itself when ``share`` is None).  Returns the results
        aligned with ``items``, with None for every item whose worker
        failed at any point of the round — the caller computes those in
        process.
        """
        results: List[Any] = [None] * len(items)
        alive = self.alive
        pending: List[Tuple[_Worker, range]] = []
        for position, worker in enumerate(alive):
            slots = range(position, len(items), len(alive))
            if not slots:
                continue
            stripe = [items[slot] for slot in slots]
            try:
                payload = stripe if share is None else share(worker.index, stripe)
                worker.conn.send(("work", payload))
            except Exception:  # noqa: BLE001 - retire, caller recomputes
                self._retire(worker)
                continue
            pending.append((worker, slots))
        for worker, slots in pending:
            try:
                reply = self._receive(worker)
                if reply[0] != "results":
                    raise RuntimeError(f"worker reported: {reply!r}")
                _tag, worker_results, busy_seconds = reply
                self.observer.record_time(
                    f"{self.names.busy}{worker.index}", busy_seconds
                )
                for slot, result in zip(slots, worker_results):
                    results[slot] = result
            except Exception:  # noqa: BLE001 - retire, caller recomputes
                self._retire(worker)
        return results

    def close(self) -> None:
        """Stop every live worker and reap all processes (idempotent)."""
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

    def _receive(self, worker: _Worker) -> Any:
        if not worker.conn.poll(WORKER_TIMEOUT):
            raise TimeoutError(f"worker {worker.index} timed out")
        return worker.conn.recv()

    def _retire(self, worker: _Worker) -> None:
        """Permanently remove a failed worker from the rotation."""
        if not worker.alive:
            return
        worker.alive = False
        self.stats[self.names.failures] += 1
        # The in-process recompute makes retirement invisible in the
        # placement, so surface it in the metrics registry explicitly.
        self.observer.count(self.names.retired)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.terminate()


class ParallelEvaluator:
    """The scheduler's :class:`WorkerPool`, plus the occupancy journal.

    Spawned once per :meth:`WindowScheduler.run`; attach/detach happens
    in :meth:`__init__`/:meth:`close`.  The occupancy journal is hooked
    on construction so every subsequent mutation (the apply phase
    between batches) lands in the delta stream automatically.

    Args:
        legalizer: the scheduler's legalizer (provides params, stats,
            and the observer that receives per-worker busy timers and
            retirement counts).
        occupancy: the live occupancy the scheduler mutates.
        num_workers: processes to spawn (>= 1).

    Raises:
        ParallelUnavailable: when no worker survives the spawn
            handshake; the caller should continue on the serial path.
    """

    def __init__(
        self, legalizer: "MGLegalizer", occupancy: Occupancy, num_workers: int
    ):
        self.legalizer = legalizer
        self.occupancy = occupancy
        self._journal: List[DeltaOp] = []
        self._base = 0  # Absolute journal position of self._journal[0].
        #: Absolute journal position each worker's mirror has applied.
        self._positions = [0] * num_workers
        stats = legalizer.stats
        for key in (
            "parallel_batches",
            "parallel_tasks",
            "parallel_fallbacks",
            "parallel_delta_ops",
            "parallel_delta_bytes",
        ):
            stats.setdefault(key, 0)

        design = legalizer.design
        placement = occupancy.placement
        placed = sorted(occupancy.placed_cells)
        self.pool = WorkerPool(
            worker_main,
            (
                design,
                legalizer.params,
                legalizer.reference,
                [(cell, placement.x[cell], placement.y[cell]) for cell in placed],
                [occupancy.row_version(row) for row in range(design.num_rows)],
            ),
            num_workers,
            legalizer,
            SCHEDULER_POOL,
        )
        if not self.pool.alive:
            self.pool.close()
            raise ParallelUnavailable(
                f"none of {num_workers} evaluation workers came up"
            )
        occupancy.set_journal(self._journal)

    @property
    def active(self) -> bool:
        """Whether at least one worker can still take work."""
        return bool(self.pool.alive)

    def evaluate_batch(
        self,
        batch: Sequence[Tuple[int, float, int, Rect]],
        want_payloads: bool = False,
    ) -> List[Optional[EvalOutcome]]:
        """Evaluate one scheduler batch on the pool.

        Returns one ``(insertion, payload)`` pair per batch member (the
        payload only when ``want_payloads``), or None for each member
        whose worker failed; the scheduler evaluates those in process
        against the live occupancy, which still holds the batch-start
        state.
        """
        stats = self.legalizer.stats
        journal_end = self._base + len(self._journal)

        def share(
            index: int, tasks: List[TaskSpec]
        ) -> Tuple[int, bytes, List[TaskSpec], bool]:
            # Each worker gets the journal suffix its mirror has not
            # replayed yet.
            ops = self._journal[self._positions[index] - self._base :]
            blob = pickle.dumps(ops, protocol=pickle.HIGHEST_PROTOCOL)
            self._positions[index] = journal_end
            stats["parallel_delta_ops"] += len(ops)
            stats["parallel_delta_bytes"] += len(blob)
            return index, blob, tasks, want_payloads

        tasks: List[TaskSpec] = [
            (cell, window, self._row_tags(window))
            for cell, _scale, _attempts, window in batch
        ]
        outcomes: List[Optional[EvalOutcome]] = [None] * len(batch)
        for slot, result in enumerate(self.pool.run(tasks, share)):
            if result is not None:
                best, points, payload = result
                stats["insertions_evaluated"] += points
                outcomes[slot] = (best, payload)
        lost = outcomes.count(None)
        stats["parallel_batches"] += 1
        stats["parallel_tasks"] += len(outcomes) - lost
        stats["parallel_fallbacks"] += lost
        self._compact()
        return outcomes

    def close(self) -> None:
        """Detach the journal and shut the pool down."""
        self.occupancy.set_journal(None)
        self.pool.close()

    # ------------------------------------------------------------------

    def _row_tags(self, window: Rect) -> Tuple[Tuple[int, int], ...]:
        """Parent row versions for every row the window spans."""
        occupancy = self.occupancy
        lo = max(0, int(math.floor(window.ylo)))
        hi = min(self.legalizer.design.num_rows, int(math.ceil(window.yhi)))
        return tuple(
            (row, occupancy.row_version(row)) for row in range(lo, hi)
        )

    def _compact(self) -> None:
        """Drop journal prefix every live worker has already applied."""
        alive_positions = [
            self._positions[worker.index] for worker in self.pool.alive
        ]
        if not alive_positions:
            return
        cut = min(alive_positions) - self._base
        if cut > 2048:
            del self._journal[:cut]
            self._base += cut
