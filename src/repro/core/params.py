"""Tunable parameters of the legalization flow.

All knobs referenced in the paper are collected here so benchmarks and
ablations can sweep them: the initial MGL window (§3.1), the matching
threshold ``delta_0`` of Eq. 3 (§3.2), the max-vs-average weight
``n_0`` of Eq. 8 (§3.3.1), routability penalties (§3.4), and the
scheduler's batch capacity (§3.5).

The implementation caps no caller tunes live as constants next to the
code that reads them: the window expansion policy, the per-row gap and
combination caps and the pruning margin in :mod:`repro.core.mgl`
(``WINDOW_EXPAND``, ``MAX_EXPANSIONS``, ``MAX_GAPS_PER_ROW``,
``MAX_INSERTION_POINTS``, ``PRUNE_MARGIN``), and the routability
guard's walk and blocked-site penalty in :mod:`repro.core.refine`
(``GUARD_MAX_SHIFT``, ``BLOCKED_PENALTY``).
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
        feasible_range_limit: cap (sites per side) on the stage-3
            violation-free range growth around each cell.
        scheduler_capacity: max simultaneously processed windows (the
            ``L_p`` capacity of §3.5); determinism holds for any value.
            The default of 1 is plain sequential MGL — Python gains no
            wall-clock from batching (GIL), so the scheduler is for
            reproducing the paper's determinism claim, not for speed.
        scheduler_workers: processes that evaluate the scheduler's
            batches, this one included: N > 1 makes this process lane
            0 of a pool with N - 1 worker processes, which sidestep the
            GIL; 0 and 1 both evaluate in process.  Lanes beyond the
            cores lose.  On the 2-core ``dense_pool`` benchmark,
            capacity 32 on 2 lanes took a median 0.96 s of MGL, against
            1.12 s in process and 0.89 s serial (perfbench ledger, three
            runs), so the scheduler is not yet a speed-up there.
            Placements are bit-identical to the in-process path for any
            value (see repro.core.parallel).  When ``shards > 1`` this
            is the lane count of the *shard* pool instead, capped at
            the shard count (see repro.core.shard).
        shards: number of fence-aware row-band shards MGL partitions
            the die into (see repro.core.shard).  1 (the default) is
            the unsharded path; >1 legalizes shard interiors
            independently — in ``scheduler_workers`` lanes when set —
            then reconciles halo-resident cells deterministically.
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
            default) routes gap enumeration and
            ``InsertionContext.evaluate`` through the flat-table fast
            path (repro.core.soa): window-bounded gap walks, per-run
            prefix-sum push analysis, memoized per-cell push summaries
            for mixed-height candidates, the dominance cut-off, and a
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
    matching_delta0: Optional[float] = None
    matching_max_group: int = 600
    flow_n0: int = 4
    routability: bool = True
    io_penalty: float = 10.0
    feasible_range_limit: int = 64
    scheduler_capacity: int = 1
    scheduler_workers: int = 0
    shards: int = 1
    shard_halo_rows: int = 2
    eval_backend: str = "vector"

    def validate(self) -> None:
        """Raise :class:`ValueError` on out-of-range settings.

        Every bound is tested as ``not (value > bound)`` or ``not (value
        >= bound)``, so NaN, which fails every comparison, fails it too.
        """
        if not (self.window_width > 0 and self.window_height > 0):
            raise ValueError(
                "window_width and window_height must be positive, got "
                f"{self.window_width!r} and {self.window_height!r}"
            )
        if self.matching_delta0 is not None and not self.matching_delta0 > 0:
            raise ValueError(
                f"matching_delta0 must be positive, got {self.matching_delta0!r}"
            )
        if not self.matching_max_group >= 1:
            raise ValueError("matching_max_group must be at least 1")
        # n_0 is a flow capacity and an objective weight in stage 3; a
        # NaN one makes the objective NaN, so the stage's decline test
        # accepts whatever the solver returned.
        if not (math.isfinite(self.flow_n0) and self.flow_n0 >= 0):
            raise ValueError(
                f"flow_n0 must be finite and non-negative, got {self.flow_n0!r}"
            )
        # The dominance cut-off (repro.core.soa) bounds a candidate's
        # finished cost from below by assuming non-negative guard
        # penalties.
        for name in ("io_penalty", "feasible_range_limit"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if not self.scheduler_capacity >= 1:
            raise ValueError("scheduler_capacity must be at least 1")
        if not self.scheduler_workers >= 0:
            raise ValueError("scheduler_workers must be non-negative")
        if not self.shards >= 1:
            raise ValueError("shards must be at least 1")
        if not self.shard_halo_rows >= 0:
            raise ValueError("shard_halo_rows must be non-negative")
        if self.eval_backend not in ("vector", "scalar"):
            raise ValueError(f"unknown eval_backend {self.eval_backend!r}")
