"""Tunable parameters of the legalization flow.

All knobs referenced in the paper are collected here so benchmarks and
ablations can sweep them: the initial MGL window (§3.1; its expansion
policy is fixed by ``repro.core.mgl.WINDOW_EXPAND`` and
``MAX_EXPANSIONS``), the matching threshold ``delta_0`` of Eq. 3
(§3.2), the max-vs-average weight ``n_0`` of Eq. 8 (§3.3.1),
routability penalties (§3.4), and the scheduler's batch capacity
(§3.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass
class LegalizerParams:
    """Parameters of the three-stage legalizer.

    Attributes:
        window_width: initial MGL window width in sites.
        window_height: initial MGL window height in rows.
        height_weighted: weigh displacement by ``1/|C_h|`` per Eq. 2
            during MGL (True) or uniformly (False, the Table 2 setting).
        use_matching: run the §3.2 max-displacement matching stage.
        use_flow_opt: run the §3.3 fixed-row-fixed-order MCF stage.
        use_global_moves: run the rip-up-and-reinsert refinement after
            the paper's three stages (an extension, off by default; see
            repro.core.globalmove).
        matching_delta0: tolerable max-displacement threshold ``delta_0``
            in Eq. 3 (row-height units); None picks it adaptively as the
            90th percentile of the current displacement distribution, so
            the linear region preserves the average while the ``delta^5``
            region crushes the outliers.
        matching_max_group: largest (type, fence) group matched exactly;
            bigger groups are split by displacement-first chunks.
        flow_n0: weight ``n_0`` of the max-displacement term in Eq. 8
            (in units of one cell's weight; height weights are scaled to
            exact integers internally, see repro.core.flowopt).
        routability: honor rails/IO pins during MGL and restrict stage-3
            ranges to violation-free intervals (§3.4).
        io_penalty: added insertion cost per IO-pin conflict.
        blocked_penalty: added cost when no rail-clean x exists nearby.
        guard_max_shift: how far (sites) MGL may walk from the curve
            optimum to clear a vertical-rail conflict.
        feasible_range_limit: cap (sites per side) on the stage-3
            violation-free range growth around each cell.
        max_insertion_points: cap on gap combinations per bottom row.
        max_gaps_per_row: keep only this many candidate gaps per row
            (nearest the GP x first); bounds work in expanded windows.
        prune_margin: slack (row-height units) added to the incumbent cost
            when pruning insertion points by the target-only lower bound;
            covers local-cell displacement *reductions* the bound ignores.
            It also stops the vector backend's savings-cap scan: a window
            whose local cells could save ``prune_margin`` or more never
            lets the dominance cut-off skip a candidate before its push
            (see repro.core.soa.VectorEvaluator.evaluate).
        scheduler_capacity: max simultaneously processed windows (the
            ``L_p`` capacity of §3.5); determinism holds for any value.
            The default of 1 is plain sequential MGL — Python gains no
            wall-clock from batching (GIL), so the scheduler is for
            reproducing the paper's determinism claim, not for speed.
        scheduler_workers: *process*-pool size for the scheduler's
            evaluation phase (0 = in-process).  Worker processes
            sidestep the GIL, so this buys real wall-clock speedup on
            multicore hardware; placements are bit-identical to the
            in-process path for any worker count (see
            repro.core.parallel).  When ``shards > 1`` this is reused
            as the *shard* process pool size instead (see
            repro.core.shard).
        shards: number of fence-aware row-band shards MGL partitions
            the die into (see repro.core.shard).  1 (the default) is
            the unsharded path; >1 legalizes shard interiors
            independently — in ``scheduler_workers`` processes when set
            — then reconciles halo-resident cells deterministically.
            For a fixed topology the placement is bit-identical for any
            worker count; changing the shard count is a *topology*
            change and legitimately moves cells near band boundaries.
            Shard interiors always run the plain sequential MGL loop;
            the §3.5 scheduler applies to the unsharded path only.
        shard_halo_rows: rows of halo added to each side of a shard's
            band; interiors may place into the halo, and every cell
            landing within this many rows of a band boundary is
            re-legalized full-die during reconciliation.
        eval_backend: insertion-evaluation backend.  ``"vector"`` (the
            default) routes ``InsertionContext.evaluate`` through the
            structure-of-arrays fast path (repro.core.soa): per-run
            prefix-sum push analysis, vectorized lower bounds, and a
            one-pass finish (curve sum, site minimization and the
            planned rail/IO guard walk, all on plain lists).
            ``"scalar"`` keeps the original per-candidate walk and is
            the oracle: both backends produce bit-identical placements
            and identical ``insertions_evaluated`` counts
            (property-tested in tests/test_soa_equivalence.py).
    """

    window_width: int = 40
    window_height: int = 10
    height_weighted: bool = False
    use_matching: bool = True
    use_flow_opt: bool = True
    use_global_moves: bool = False
    matching_delta0: Optional[float] = None
    matching_max_group: int = 600
    flow_n0: int = 4
    routability: bool = True
    io_penalty: float = 10.0
    blocked_penalty: float = 50.0
    guard_max_shift: int = 12
    feasible_range_limit: int = 64
    max_insertion_points: int = 128
    max_gaps_per_row: int = 12
    prune_margin: float = 2.0
    scheduler_capacity: int = 1
    scheduler_workers: int = 0
    shards: int = 1
    shard_halo_rows: int = 2
    eval_backend: str = "vector"

    def validate(self) -> None:
        """Raise :class:`ValueError` on out-of-range settings."""
        if self.window_width <= 0 or self.window_height <= 0:
            raise ValueError("window dimensions must be positive")
        if self.matching_delta0 is not None and self.matching_delta0 <= 0:
            raise ValueError("matching_delta0 must be positive")
        if self.matching_max_group < 1:
            raise ValueError("matching_max_group must be at least 1")
        if self.flow_n0 < 0:
            raise ValueError("flow_n0 must be non-negative")
        if self.max_insertion_points < 1:
            raise ValueError("max_insertion_points must be at least 1")
        if self.max_gaps_per_row < 1:
            raise ValueError("max_gaps_per_row must be at least 1")
        # The dominance cut-off (repro.core.soa) bounds a candidate's
        # finished cost from below by assuming non-negative guard
        # penalties, and a NaN margin disables the best-first stop rule.
        for name in (
            "io_penalty", "blocked_penalty", "prune_margin",
            "guard_max_shift", "feasible_range_limit",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if self.scheduler_capacity < 1:
            raise ValueError("scheduler_capacity must be at least 1")
        if self.scheduler_workers < 0:
            raise ValueError("scheduler_workers must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.shard_halo_rows < 0:
            raise ValueError("shard_halo_rows must be non-negative")
        if self.eval_backend not in ("vector", "scalar"):
            raise ValueError(f"unknown eval_backend {self.eval_backend!r}")
