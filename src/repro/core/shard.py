"""Sharded MGL: fence-aware row bands, parallel interiors, halo stitching.

The §3.5 scheduler (and its process pool, :mod:`repro.core.parallel`)
parallelizes *windows* against one shared occupancy; this module
parallelizes *regions*.  The die is partitioned into horizontal row
bands — never cutting through a fence region — and each band is
legalized independently in its own process with its own
:class:`~repro.core.occupancy.Occupancy`, after which a deterministic
reconciliation pass stitches the bands back into one full-die placement.

The pipeline:

1. **Topology** (:func:`compute_topology`): evenly spaced cut rows,
   each adjusted to the nearest row that does not split a fence
   bounding box (preferring the lower candidate on ties, dropped —
   i.e. bands merged — when no legal row exists).  The shard count is
   additionally capped so every band can hold the tallest movable
   cell.  Every movable cell is assigned to exactly one band: fenced
   cells to the band containing their fence (whole, by construction),
   default-fence cells by their GP row.
2. **Interiors** (:func:`legalize_shard_interior`): each shard runs the
   plain sequential MGL loop over its assigned cells with every search
   window clamped to the shard's *halo-extended* rect — the band plus
   ``shard_halo_rows`` rows on each side.  A cell with no feasible
   insertion even at the exhaustive shard-rect window is **deferred**
   to reconciliation instead of raising.  Because
   ``InsertionContext.candidate_rows`` only yields bottom rows whose
   cell fits entirely inside the window, every interior placement lies
   strictly within the halo-extended row range.
3. **Stitch + reconcile** (:func:`run_sharded`): interior placements
   can only overlap each other inside a *halo band* — the rows within
   ``shard_halo_rows`` of a cut, the only rows two halo-extended rects
   share — so every cell whose rect intersects a halo band (plus every
   deferred cell) is withheld from the stitch and re-legalized against
   the stitched full-die occupancy with the ordinary full-die
   :meth:`MGLegalizer.legalize_cell`, in the fixed global
   :func:`mgl_cell_order`.  All remaining cells are provably
   conflict-free and are committed directly.

Determinism: an interior result is a pure function of
``(design, params, shard)`` — the worker pool computes exactly
:func:`legalize_shard_interior`, the same function the in-process
fallback runs, and reconciliation always runs in the parent in a fixed
order — so for a fixed topology the final placement is bit-identical
for any worker count, including zero.  With ``shards=1`` the single
shard's rect *is* the chip rect, the window clamp is the identity, and
the interior loop degenerates to exactly the sequential path of
:meth:`MGLegalizer.run` (reconciliation has no halo bands and nothing
to do), reproducing the unsharded placement bit-exactly.

Interiors run on :class:`repro.core.parallel.WorkerPool`, the process
pool the §3.5 scheduler uses too, and share its failure policy: a shard
worker that cannot spawn, crashes, hangs past
:data:`~repro.core.parallel.WORKER_TIMEOUT`, or is handed shards that
cannot be pickled is retired, and its shards are recomputed in-process,
so sharding can slow down but never lose cells or change the answer.
"""

from __future__ import annotations

import math
import pickle
from bisect import bisect_right
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mgl import (
    MAX_EXPANSIONS,
    WINDOW_EXPAND,
    MGLegalizer,
    disp_so_far,
    fixed_cell_occupancy,
    mgl_cell_order,
)
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.core.parallel import PoolNames, WorkerPool
from repro.model.design import Design
from repro.model.fence import DEFAULT_FENCE
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.obs.clock import monotonic
from repro.obs.metrics import SHARD_OCCUPANCY_BUCKETS
from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = [
    "Shard",
    "ShardTopology",
    "compute_topology",
    "legalize_shard_interior",
    "run_sharded",
    "run_sharded_mgl",
]

#: Stats keys the sharded path maintains on the legalizer (all start 0).
SHARD_STAT_KEYS = (
    "shard_count",
    "shard_halo_cells",
    "shard_deferred",
    "shard_reconciled",
    "shard_fallbacks",
    "shard_worker_failures",
    "shard_workers_spawned",
)


@dataclass(frozen=True)
class Shard:
    """One row band: interior rows, halo-extended rows, assigned cells.

    ``row_lo``/``row_hi`` bound the interior band (half-open);
    ``halo_lo``/``halo_hi`` extend it by the topology's halo rows,
    clamped to the chip.  Interior placement happens anywhere inside the
    halo-extended range; cell *assignment* partitions on the interiors.
    Plain ints and tuples throughout so instances pickle cheaply to
    worker processes.
    """

    index: int
    row_lo: int
    row_hi: int
    halo_lo: int
    halo_hi: int
    cells: Tuple[int, ...]

    def rect(self, design: Design) -> Rect:
        """The halo-extended search rect (full chip width)."""
        return Rect(0, self.halo_lo, design.num_sites, self.halo_hi)


@dataclass(frozen=True)
class ShardTopology:
    """A full-die partition into row bands plus the halo policy."""

    num_rows: int
    halo_rows: int
    #: ``len(shards) + 1`` strictly increasing cut rows, first 0, last
    #: ``num_rows``; shard ``i`` owns rows ``[boundaries[i], boundaries[i+1])``.
    boundaries: Tuple[int, ...]
    shards: Tuple[Shard, ...]

    def halo_bands(self) -> List[Tuple[int, int]]:
        """Row ranges within ``halo_rows`` of an interior cut.

        These are exactly the rows two adjacent halo-extended shard
        rects share, hence the only rows where interior placements from
        different shards can overlap.  Empty when ``halo_rows == 0``
        (adjacent interiors are then disjoint by construction) or when
        there is a single shard.
        """
        if self.halo_rows <= 0:
            return []
        return [
            (max(0, cut - self.halo_rows), min(self.num_rows, cut + self.halo_rows))
            for cut in self.boundaries[1:-1]
        ]

    def as_dict(self) -> Dict[str, object]:
        """Compact JSON form for manifests and bench reports."""
        return {
            "shards": len(self.shards),
            "halo_rows": self.halo_rows,
            "boundaries": list(self.boundaries),
            "bands": [
                {
                    "index": shard.index,
                    "row_lo": shard.row_lo,
                    "row_hi": shard.row_hi,
                    "halo_lo": shard.halo_lo,
                    "halo_hi": shard.halo_hi,
                    "cells": len(shard.cells),
                }
                for shard in self.shards
            ],
        }


def compute_topology(
    design: Design, num_shards: int, halo_rows: int
) -> ShardTopology:
    """Partition the die into fence-aware row bands.

    Deterministic: cuts start evenly spaced; a cut that would pass
    strictly through a fence region's bounding-box row span is moved to
    the nearest legal row (lower candidate preferred on equal distance)
    and dropped entirely — merging the two bands — when no legal row
    remains between its neighbors.  The requested count is capped so a
    band (before halo extension) can hold the tallest movable cell.
    """
    num_rows = design.num_rows
    max_height = 1
    for cell in design.movable_cells():
        height = design.cell_type_of(cell).height
        if height > max_height:
            max_height = height
    requested = max(1, min(num_shards, num_rows // max_height))

    # Rows a cut may not pass through: strictly inside some fence's
    # bounding-box row span.  Cutting at the span's first or one-past-
    # last row keeps the fence whole on one side.
    forbidden = set()
    for fence in design.fences:
        box = fence.bounding_box
        for row in range(int(math.floor(box.ylo)) + 1, int(math.ceil(box.yhi))):
            forbidden.add(row)

    cuts: List[int] = []
    previous = 0
    for i in range(1, requested):
        target = (i * num_rows) // requested
        chosen: Optional[int] = None
        for distance in range(num_rows):
            for candidate in (target - distance, target + distance):
                if previous < candidate < num_rows and candidate not in forbidden:
                    chosen = candidate
                    break
            if chosen is not None:
                break
        if chosen is None:
            continue  # No legal row left: merge into the next band.
        cuts.append(chosen)
        previous = chosen
    boundaries = tuple([0] + cuts + [num_rows])

    def band_of(row: int) -> int:
        return bisect_right(boundaries, row) - 1

    assigned: List[List[int]] = [[] for _ in range(len(boundaries) - 1)]
    for cell in design.movable_cells():
        fence_id = design.fence_of(cell)
        if fence_id != DEFAULT_FENCE:
            # The fence's whole row span lies inside one band (its
            # interior rows are cut-forbidden), so anchoring on the
            # span's first row assigns the cell to that band.
            row = int(
                math.floor(design.fence_region(fence_id).bounding_box.ylo)
            )
        else:
            row = int(round(design.gp_y[cell]))
        row = min(max(row, 0), num_rows - 1)
        assigned[band_of(row)].append(cell)

    shards = tuple(
        Shard(
            index=i,
            row_lo=boundaries[i],
            row_hi=boundaries[i + 1],
            halo_lo=max(0, boundaries[i] - halo_rows),
            halo_hi=min(num_rows, boundaries[i + 1] + halo_rows),
            cells=tuple(assigned[i]),
        )
        for i in range(len(boundaries) - 1)
    )
    return ShardTopology(
        num_rows=num_rows,
        halo_rows=halo_rows,
        boundaries=boundaries,
        shards=shards,
    )


# ----------------------------------------------------------------------
# Shard interiors (runs in worker processes and in-process fallback)
# ----------------------------------------------------------------------


@dataclass
class ShardInteriorResult:
    """One shard's interior outcome, shipped back to the parent.

    ``positions`` holds ``(cell, x, y)`` for every assigned cell placed
    inside the halo-extended rect; ``deferred`` lists assigned cells
    with no feasible insertion there (re-legalized full-die during
    reconciliation); ``stats`` is the interior legalizer's counter dict.
    """

    positions: List[Tuple[int, int, int]]
    deferred: List[int]
    stats: Dict[str, int]


def interior_params(params: LegalizerParams) -> LegalizerParams:
    """The parameter set every shard interior runs with.

    Worker processes and the in-process fallback must compute the same
    pure function, so nested parallelism is stripped and the interior
    always runs the plain sequential MGL loop (the §3.5 scheduler
    applies to the unsharded path only; shards are the parallel unit).
    """
    return replace(
        params,
        shards=1,
        scheduler_workers=0,
        scheduler_capacity=1,
    )


def legalize_shard_interior(
    design: Design,
    params: LegalizerParams,
    reference: str,
    shard: Shard,
) -> ShardInteriorResult:
    """Legalize one shard's assigned cells inside its halo-extended rect.

    A pure function of its arguments: builds a fresh legalizer,
    placement, and occupancy (fixed cells pinned by
    :func:`fixed_cell_occupancy`, as in :meth:`MGLegalizer.run`), walks
    the assigned cells in the global :func:`mgl_cell_order`, and runs
    the standard expand-on-failure window loop with every window —
    including the final exhaustive one — intersected with the shard
    rect.  With the chip-sized shard of a ``shards=1`` topology the
    clamp is the identity and this reproduces the sequential path of
    :meth:`MGLegalizer.run` bit-exactly.
    """
    legalizer = MGLegalizer(design, params, reference=reference)
    placement = Placement(design)
    occupancy = fixed_cell_occupancy(design, placement)
    shard_rect = shard.rect(design)
    assigned = frozenset(shard.cells)
    deferred: List[int] = []
    for cell in mgl_cell_order(design):
        if cell not in assigned:
            continue
        if not _legalize_cell_clamped(legalizer, occupancy, cell, shard_rect):
            deferred.append(cell)
    positions = [
        (cell, placement.x[cell], placement.y[cell])
        for cell in sorted(assigned)
        if occupancy.is_placed(cell)
    ]
    return ShardInteriorResult(
        positions=positions,
        deferred=deferred,
        stats=dict(legalizer.stats),
    )


def _legalize_cell_clamped(
    legalizer: MGLegalizer,
    occupancy: Occupancy,
    cell: int,
    shard_rect: Rect,
) -> bool:
    """:meth:`MGLegalizer.legalize_cell` with windows clamped to the shard.

    Returns False (defer) instead of raising when even the exhaustive
    shard-rect window holds no feasible insertion — inside a shard
    that is an expected outcome near over-full bands, not an error.
    """
    scale = 1.0
    for _attempt in range(MAX_EXPANSIONS):
        window = legalizer.initial_window(cell, scale).intersect(shard_rect)
        if not window.empty:
            insertion = legalizer.try_insert(occupancy, cell, window)
            if insertion is not None:
                legalizer.apply_insertion(occupancy, cell, insertion)
                return True
        legalizer.stats["window_expansions"] += 1
        scale *= WINDOW_EXPAND
    insertion = legalizer.try_insert(occupancy, cell, shard_rect, exhaustive=True)
    if insertion is not None:
        legalizer.apply_insertion(occupancy, cell, insertion)
        return True
    return False


# ----------------------------------------------------------------------
# Worker entry point (the pool itself is repro.core.parallel.WorkerPool)
# ----------------------------------------------------------------------

#: Where the shard pool records its workers.
SHARD_POOL = PoolNames(
    failures="shard_worker_failures",
    spawned="shard_workers_spawned",
    retired="shard.worker_retired",
    busy="shard.worker",
)


def shard_worker_main(conn: Connection) -> None:
    """Entry point of one shard worker process.

    Protocol (see :class:`~repro.core.parallel.WorkerPool`; no occupancy
    journal — shard occupancies are disjoint, so there is no shared
    state to mirror):

    * receive ``("init", design, params, reference)`` once, reply
      ``("ready",)``;
    * then repeatedly receive ``("work", [Shard, ...])`` — run
      :func:`legalize_shard_interior` on each, reply
      ``("results", [ShardInteriorResult, ...], busy_seconds)``;
    * ``("stop",)`` ends the loop.

    Any exception is reported as ``("error", message)`` and kills the
    worker; the parent recomputes its shards in-process.
    """
    try:
        message = conn.recv()
        if message[0] != "init":  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected init, got {message[0]!r}")
        design, params, reference = message[1:]
        assert isinstance(params, LegalizerParams)
        conn.send(("ready",))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] != "work":  # pragma: no cover - protocol guard
                raise RuntimeError(f"expected work, got {message[0]!r}")
            busy_start = monotonic()
            results = [
                legalize_shard_interior(design, params, reference, shard)
                for shard in message[1]
            ]
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
# Orchestration (parent)
# ----------------------------------------------------------------------

#: Interior-legalizer counters folded into the parent's stats; the rest
#: (scheduler/parallel keys) stay 0 on the interior path by construction.
_MERGED_STAT_KEYS = (
    "insertions_evaluated",
    "window_expansions",
    "cells_placed",
)


def _intersects_bands(y: int, height: int, bands: Sequence[Tuple[int, int]]) -> bool:
    """Whether rows ``[y, y + height)`` touch any halo band."""
    for lo, hi in bands:
        if y < hi and y + height > lo:
            return True
    return False


def run_sharded(legalizer: MGLegalizer, occupancy: Occupancy) -> None:
    """Run the sharded MGL flow against a prepared occupancy.

    The occupancy (and its placement) must already hold the fixed cells
    — exactly the state :meth:`MGLegalizer.run` hands over.  On return
    every movable cell is placed, ``legalizer.stats`` carries the
    interior counters plus the ``shard_*`` keys, and
    ``legalizer.shard_topology`` records the partition.

    Raises:
        LegalizationError: from the reconciliation pass, when a cell
            cannot be placed anywhere in its fence even full-die (the
            same over-full condition as the unsharded path).
    """
    design = legalizer.design
    params = legalizer.params
    observer = legalizer.observer
    tracer = observer.tracer
    progress = observer.progress
    stats = legalizer.stats
    for key in SHARD_STAT_KEYS:
        stats.setdefault(key, 0)

    # The fixed global order drives both the tracer's sampling policy
    # and the reconciliation pass; registering it here keeps direct
    # run_sharded_mgl() callers under the same sampling contract as
    # MGLegalizer.run() (the call is idempotent).
    global_order = mgl_cell_order(design)
    tracer.set_cell_population(global_order)

    topology = compute_topology(design, params.shards, params.shard_halo_rows)
    legalizer.shard_topology = topology
    stats["shard_count"] = len(topology.shards)
    iparams = interior_params(params)

    with tracer.span("shard_mgl") as root:
        if tracer.enabled:
            root.set(
                shards=len(topology.shards), halo_rows=topology.halo_rows
            )

        pooled: List[Optional[ShardInteriorResult]] = [None] * len(
            topology.shards
        )
        num_workers = min(params.scheduler_workers, len(topology.shards))
        progress.phase(
            "shard_interiors",
            shards=len(topology.shards),
            halo_rows=topology.halo_rows,
            workers=num_workers,
        )
        if num_workers >= 1:
            pool = WorkerPool(
                shard_worker_main,
                (design, iparams, legalizer.reference),
                num_workers,
                legalizer,
                SHARD_POOL,
            )
            try:
                pooled = pool.run(topology.shards)
            finally:
                pool.close()
            stats["shard_fallbacks"] += pooled.count(None)
        # Shards the pool lost (or all of them, without one) are
        # computed here: the same pure function the workers run.
        results = [
            result if result is not None else legalize_shard_interior(
                design, iparams, legalizer.reference, shard
            )
            for shard, result in zip(topology.shards, pooled)
        ]

        # Merge interior counters and emit per-shard observability in
        # shard order — everything below is derived from the results,
        # so it is identical for any worker count.
        for shard, result in zip(topology.shards, results):
            for key in _MERGED_STAT_KEYS:
                stats[key] += result.stats.get(key, 0)
            if tracer.enabled:
                with tracer.span("shard") as span:
                    span.set(
                        index=shard.index,
                        row_lo=shard.row_lo,
                        row_hi=shard.row_hi,
                        halo_lo=shard.halo_lo,
                        halo_hi=shard.halo_hi,
                        cells=len(shard.cells),
                        placed=len(result.positions),
                        deferred=len(result.deferred),
                    )
            observer.observe(
                "shard.occupancy",
                float(len(result.positions)),
                SHARD_OCCUPANCY_BUCKETS,
            )
            progress.heartbeat(
                "shard",
                shard=shard.index,
                cells=len(shard.cells),
                placed=len(result.positions),
                deferred=len(result.deferred),
            )

        # Stitch: withhold halo-band residents and deferred cells;
        # commit everything else (provably conflict-free — interior
        # placements stay inside their halo-extended rects, which only
        # overlap inside the halo bands).
        placement = occupancy.placement
        bands = topology.halo_bands()
        keep: List[Tuple[int, int, int]] = []
        halo_resident: List[int] = []
        deferred: List[int] = []
        for result in results:
            deferred.extend(result.deferred)
            for cell, x, y in result.positions:
                height = design.cell_type_of(cell).height
                if _intersects_bands(y, height, bands):
                    halo_resident.append(cell)
                else:
                    keep.append((cell, x, y))
        keep.sort()
        for cell, x, y in keep:
            placement.move(cell, x, y)
            occupancy.add(cell)

        # Interior cells_placed counted the halo residents once; their
        # reconciliation placement will count them again, so the net
        # total stays exactly the number of movable cells.
        stats["cells_placed"] -= len(halo_resident)
        stats["shard_halo_cells"] += len(halo_resident)
        stats["shard_deferred"] += len(deferred)
        observer.count("shard.halo_relegalized", len(halo_resident))
        observer.count("shard.deferred", len(deferred))

        # Reconcile in the fixed global order against the stitched
        # full-die occupancy: ordinary unclamped legalize_cell, so a
        # deferred cell failing here raises exactly like the unsharded
        # path would for an over-full fence.
        reconcile = frozenset(halo_resident) | frozenset(deferred)
        order = [c for c in global_order if c in reconcile]
        stats["shard_reconciled"] += len(order)
        progress.phase(
            "reconcile",
            cells=len(order),
            halo=len(halo_resident),
            deferred=len(deferred),
        )
        total_movable = len(global_order)
        with tracer.span("reconcile") as span:
            if tracer.enabled:
                span.set(
                    cells=len(order),
                    halo=len(halo_resident),
                    deferred=len(deferred),
                )
            for cell in order:
                legalizer.legalize_cell(occupancy, cell)
                progress.cells(
                    stats["cells_placed"],
                    total_movable,
                    disp=disp_so_far(occupancy),
                )


def run_sharded_mgl(
    design: Design,
    params: LegalizerParams,
    observer: Observer = NULL_OBSERVER,
) -> Tuple[Placement, MGLegalizer]:
    """Run the sharded path directly, for any shard count (including 1).

    :meth:`MGLegalizer.run` only routes here when ``params.shards > 1``;
    tests and benchmarks use this helper to exercise the ``shards=1``
    bit-identity contract against the plain sequential path.
    """
    legalizer = MGLegalizer(design, params, observer=observer)
    placement = Placement(design)
    run_sharded(legalizer, fixed_cell_occupancy(design, placement))
    return placement, legalizer
