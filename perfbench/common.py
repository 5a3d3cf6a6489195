"""Correctness bookkeeping and helpers shared by both kinds of run."""

from __future__ import annotations

import resource
import sys
from typing import List, Optional

from repro import Placement, legalize
from repro.checker import check_legal
from repro.obs.manifest import placement_digest

from workloads import Workload


class Attempts:
    """Counts placement-producing runs and the ones that failed.

    A run fails if it raised, if ``check_legal`` rejects its placement,
    or if its placement digest differs from the expected digest (the
    other runs of the same workload and seed, or the run it must
    reproduce).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")
        print(f"FAILED {label}: {reason}", file=sys.stderr)

    def check(
        self, label: str, placement: Placement, expected: Optional[str] = None
    ) -> str:
        """Count one run and check its placement; returns its digest."""
        self.attempted += 1
        digest = placement_digest(placement)
        report = check_legal(placement)
        if not report.is_legal:
            self.fail(label, f"illegal placement ({report.summary()})")
        elif expected is not None and digest != expected:
            self.fail(label, f"placement digest {digest} != expected {expected}")
        return digest

    def raised(self, label: str, error: BaseException) -> None:
        self.attempted += 1
        self.fail(label, f"raised {type(error).__name__}: {error}")


def inject_illegal(placement: Placement) -> None:
    """Stack the second movable cell onto the first (a test-only fault)."""
    first, second = placement.design.movable_cells()[:2]
    placement.move(second, placement.x[first], placement.y[first])


def warm_up(workload: Workload) -> None:
    """Legalize the smoke-size design once, untimed.

    Pays the lazy SciPy imports and the first worker fork outside every
    timed region.
    """
    legalize(workload.build(seed=0, smoke=True), workload.params())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0
