"""Full-flow legalization benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fenced_md --seed 1 --seconds 30 --trace 0

``--trace 0`` times the public ``repro.legalize()`` with tracing off and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the stage-by-stage ledger (see ``ledger.py``) and reports the
per-layer metrics.  ``--smoke`` runs the same code on small designs.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: BLAS/OpenMP pool sizes pinned to 1 before NumPy is imported.
THREAD_PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="small designs, same code paths"
    )
    parser.add_argument(
        "--inject-illegal", action="store_true",
        help="corrupt one placement before it is checked (tests the gate)",
    )
    return parser.parse_args(argv)


def environment(workload: Any, seed: int, smoke: bool) -> Dict[str, object]:
    """What the numbers were measured on; printed with every report."""
    import platform

    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "workers": workload.params().scheduler_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PIN_VARS},
        "REPRO_EXPENSIVE_CHECKS": os.environ.get("REPRO_EXPENSIVE_CHECKS"),
        "workload": workload.name,
        "case": workload.case,
        "scale": workload.scale_for(smoke),
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"error: {ROOT} holds no src/repro package or no BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())

    for name in THREAD_PIN_VARS:
        os.environ[name] = "1"
    # Occupancy self-checks are for tests; time the algorithm.
    os.environ.setdefault("REPRO_EXPENSIVE_CHECKS", "0")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    extras: Dict[str, float] = {}
    if args.trace:
        from ledger import ledger

        metrics, attempts, spans = ledger(
            workload, args.seed, args.smoke, args.inject_illegal
        )
        print("\n".join(spans.table()))
        declared = spec["per_layer"]
    else:
        from measure import measure

        metrics, extras, attempts = measure(
            workload, args.seed, args.seconds, args.smoke, args.inject_illegal
        )
        declared = spec["end_to_end"]

    moves = json.loads((HERE / "moves.json").read_text())
    emitted: Dict[str, Dict[str, object]] = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            continue
        emitted[name] = {"value": metrics[name], "unit": entry["unit"]}
        target = moves.get(name)
        note = f"  -> {', '.join(target['moves']) or '-'}" if target else ""
        print(f"{name:<28} {metrics[name]:>14.6g} {entry['unit']}{note}")
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for name, value in extras.items():
        print(f"{name:<28} {value:>14.6g} {units[name]} (not gated)")
    print(json.dumps({"environment": environment(workload, args.seed, args.smoke)},
                     sort_keys=True))

    missing = [e["name"] for e in declared if e["name"] not in emitted]
    if missing and not attempts.failed:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    correct = attempts.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": emitted,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
