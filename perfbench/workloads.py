"""The benchmark's workloads: a generated design plus the legalizer knobs.

Each workload is one ``repro.benchgen.suites`` case at a fixed scale.
The ``--seed`` argument draws a Gaussian jitter of that case's
global-placement (GP) positions through ``repro.gp.perturb``, so every
seed is a fresh input of the same design class and difficulty.  Redrawing
the whole synthetic design per seed moved fences, macros and GP clusters
and spread one workload's ``legalize()`` time 3x across seeds, which no
regression bound could absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

from repro import Design, LegalizerParams, Placement
from repro.benchgen.suites import BenchmarkCase, iccad2017_suite, ispd2015_suite
from repro.benchgen.synthetic import generate_design
from repro.gp.perturb import perturb_placement

#: Standard deviation of the seed's GP jitter, in row heights.
JITTER_ROWS = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the workload name used on the command line.
        suite: the ``repro.benchgen.suites`` function holding the case.
        case: the case name within that suite.
        scale: cell-count scale of a measured run.
        smoke_scale: cell-count scale of a ``--smoke`` run.
        knobs: ``LegalizerParams`` fields that differ from the defaults.
    """

    name: str
    suite: Callable[..., List[BenchmarkCase]]
    case: str
    scale: float
    smoke_scale: float
    knobs: Dict[str, int] = field(default_factory=dict)

    def params(self) -> LegalizerParams:
        return LegalizerParams(**self.knobs)

    def scale_for(self, smoke: bool) -> float:
        return self.smoke_scale if smoke else self.scale

    def build(self, seed: int, smoke: bool = False) -> Design:
        """The workload's design with the GP jitter drawn from ``seed``."""
        case = self.suite(scale=self.scale_for(smoke), names=[self.case])[0]
        design = generate_design(case.spec)
        return perturb_placement(
            Placement.from_gp_rounded(design), sigma_rows=JITTER_ROWS, seed=seed
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fenced_md", iccad2017_suite, "edit_dist_1_md1",
            scale=0.01, smoke_scale=0.002,
        ),
        Workload(
            "dense_pool", ispd2015_suite, "des_perf_1",
            scale=0.006, smoke_scale=0.001,
            knobs={"scheduler_capacity": 32, "scheduler_workers": 2},
        ),
        Workload(
            "sharded_lp", iccad2017_suite, "pci_bridge32_b_md2",
            scale=0.14, smoke_scale=0.014,
            knobs={"shards": 2, "scheduler_workers": 2},
        ),
    )
}

#: Worker processes any workload or ladder rung may start.
MAX_WORKERS = 2

#: The layer ladder: the MGL stage re-run with one speed layer switched
#: per rung, on every workload.  Each rung overrides the workload's
#: knobs; pairs listed in ``SAME_PLACEMENT`` must agree bit for bit.
LADDER: Dict[str, Dict[str, object]] = {
    "scalar": {"eval_backend": "scalar", "scheduler_capacity": 1,
               "scheduler_workers": 0, "shards": 1},
    "vector": {"eval_backend": "vector", "scheduler_capacity": 1,
               "scheduler_workers": 0, "shards": 1},
    "cap32": {"scheduler_capacity": 32, "scheduler_workers": 0, "shards": 1},
    "pool": {"scheduler_capacity": 32, "scheduler_workers": MAX_WORKERS,
             "shards": 1},
    "shards_inproc": {"shards": 2, "scheduler_workers": 0,
                      "scheduler_capacity": 1},
    "shards_pool": {"shards": 2, "scheduler_workers": MAX_WORKERS,
                    "scheduler_capacity": 1},
}

#: Rungs whose placements the determinism contracts make identical.
SAME_PLACEMENT = (("scalar", "vector"), ("cap32", "pool"),
                  ("shards_inproc", "shards_pool"))

#: Ladder metrics that name the serial vector rung under the name the
#: dense (capacity 1) and sharded (unsharded) ladders give it.
RUNG_ALIASES = {"cap1": "vector", "unsharded": "vector"}


def rung_params(workload: Workload, rung: str) -> LegalizerParams:
    return replace(workload.params(), **LADDER[rung])
