"""The untraced run: end-to-end metrics of the public ``legalize()``.

Times are scaled to the nominal host of ``calibrate.py`` by a reference
kernel timed between the calls; the unscaled times go to stderr.
"""

from __future__ import annotations

import gc
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Tuple

from repro import Legalizer, legalize
from repro.checker import contest_score

from calibrate import Calibration, pin, reference_kernel, usable_cores
from common import Attempts, inject_illegal, peak_rss_mb, warm_up
from workloads import Workload

#: Set-ups timed before each ``legalize()`` call; ``setup_s`` is the
#: median of all of them, spread over the whole run so one short stall
#: of the host cannot set it.
SETUPS_PER_CALL = 5

#: ``legalize()`` calls per run even when one call outlasts ``--seconds``.
MIN_CALLS = 2

#: Reference-kernel runs before each call and after the last one, about
#: a tenth of a run's time.
KERNEL_REPS = 8


def measure(
    workload: Workload, seed: int, seconds: float, smoke: bool, inject: bool
) -> Tuple[Dict[str, float], Dict[str, float], Attempts]:
    """Time ``legalize()`` on the workload for about ``seconds``.

    Returns the end-to-end metrics, the quality numbers that are not
    end-to-end metrics (reported for reading, not gated), and the
    attempt record.
    """
    params = workload.params()
    cores = usable_cores()
    if not params.scheduler_workers:
        cores = cores[:1]
        pin(cores)
    warm_up(workload)
    reference_kernel()
    design = workload.build(seed, smoke)
    setups: List[Tuple[float, int]] = []
    calibration = Calibration(cores)

    attempts = Attempts()
    times: List[float] = []
    blocks: List[int] = []
    first = None
    expected = None
    started = perf_counter()
    while attempts.attempted < MIN_CALLS or (
        perf_counter() - started + statistics.median(times or [0.0]) <= seconds
    ):
        label = f"legalize#{attempts.attempted}"
        block = calibration.sample(KERNEL_REPS)
        for _ in range(SETUPS_PER_CALL):
            start = perf_counter()
            Legalizer(workload.build(seed, smoke), params)
            setups.append((perf_counter() - start, block))
        gc.collect()
        start = perf_counter()
        try:
            result = legalize(design, params)
        except Exception as error:  # a failed call is counted, not fatal
            attempts.raised(label, error)
            continue
        times.append(perf_counter() - start)
        blocks.append(block)
        if inject and first is None:
            inject_illegal(result.placement)
        digest = attempts.check(label, result.placement, expected)
        if first is None:
            first, expected = result.placement, digest
    if first is None:
        return {}, {}, attempts
    calibration.sample(KERNEL_REPS)

    setup_s = statistics.median(t * calibration.scale_at(b) for t, b in setups)
    scaled = [t * calibration.scale_at(b) for t, b in zip(times, blocks)]
    legalize_s = statistics.median(scaled)
    score = contest_score(first)
    print(
        f"{len(times)} legalize() calls: "
        + " ".join(f"{t:.3f}" for t in times) + " s unscaled, "
        + " ".join(f"{t:.3f}" for t in scaled) + " s scaled; "
        f"reference kernel mean {calibration.mean_s() * 1e3:.2f} ms over "
        f"{len(calibration.times())} runs",
        file=sys.stderr,
    )
    end_to_end = {
        "legalize_s": legalize_s,
        "cells_per_s": len(design.movable_cells()) / legalize_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "s_am": score.avg_displacement,
        "max_disp": score.max_displacement,
        "score": score.score,
    }
    quality = {
        "hpwl_ratio": score.hpwl_ratio,
        "pin_violations": score.pin_violations,
        "edge_violations": score.edge_violations,
        "fail_rate": attempts.failed / attempts.attempted,
    }
    return end_to_end, quality, attempts
