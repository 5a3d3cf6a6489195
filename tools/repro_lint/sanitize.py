"""Runtime determinism sanitizer: ``repro-lint sanitize``.

The static rules (D/C/M/A/E/P series) prove ordering discipline on the
source text; this module checks the *running program*.  It legalizes a
small fixed corpus of synthetic designs in subprocesses — once
unperturbed as the baseline, then once per (seed, perturbation) pair —
and fails when any run's placement digest or trace structure hash
diverges from the baseline.

Perturbation matrix (each runs in its own interpreter so the poison is
in place before ``repro`` imports):

* ``hashseed``  — randomized ``PYTHONHASHSEED``: flushes out any code
  path whose result leaks ``str``/``bytes`` hash iteration order.
* ``shuffle``   — ``builtins.set``/``frozenset`` are replaced with
  subclasses whose iteration order is deterministically shuffled by the
  run's salt.  Catches ``set(...)``-constructed sets iterated without
  ``sorted()``.  (Set *literals* use the C-level type directly and are
  not shimmed — the static D-series covers those.)
* ``tripwire``  — ``np.sort``/``np.argsort`` default to ``heapsort``
  (unstable) when the caller omits ``kind=``; any sort site that relies
  on the default being stable diverges.  A canary (tie-heavy argsort)
  must visibly fire or the run is an internal error — the tripwire
  cannot silently rot.  ``ndarray.sort`` is a C method slot and cannot
  be patched; A001 covers method-call sites statically.
* ``crash``     — both worker entry points of the one process pool,
  ``repro.core.parallel.worker_main`` (scheduler windows) and
  ``repro.core.shard.shard_worker_main`` (shard interiors), are
  replaced with a stub that drops its pipe immediately, so every
  worker retires and each case must recompute its work in process;
  the result is required to be bit-identical.  Each child reports its
  cases' worker-failure stats, and a pooled case (one with
  ``scheduler_workers > 1``: this process is one of the lanes) that
  lost no worker under ``crash`` is an internal error — the stub
  cannot silently stop reaching the pool.

Exit codes: 0 all runs matched, 1 divergence, 2 internal error (a child
crashed, emitted garbage, the tripwire canary failed to fire, or the
crash stub never reached a pooled case's workers).

Everything heavyweight (numpy, repro) is imported inside functions:
the perturbation shims must be installed first, and plain lint runs
must not pay the import cost.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERTURBATIONS: Tuple[str, ...] = ("hashseed", "shuffle", "tripwire", "crash")

#: The corpus: ``(name, SyntheticSpec kwargs, LegalizerParams kwargs)``
#: per case, each legalized by ``legalize()``.  The first four switch
#: matching and stage 3 off, leaving MGL alone; ``workers`` and
#: ``sharded`` run the process pool on three lanes (two workers), one
#: case for each of its users;
#: ``full_flow`` runs every default stage.  The cell counts are small
#: enough that a full matrix run stays interactive.
_CORPUS_RECIPES: Tuple[Tuple[str, Dict[str, Any], Dict[str, Any]], ...] = (
    (
        "serial_fence",
        dict(name="sanitize-serial", cells_by_height={1: 90, 2: 8},
             density=0.55, seed=11, num_fences=1),
        dict(routability=False, scheduler_capacity=1,
             use_matching=False, use_flow_opt=False),
    ),
    (
        "scheduler",
        dict(name="sanitize-sched", cells_by_height={1: 70, 2: 6},
             density=0.5, seed=13),
        dict(routability=False, scheduler_capacity=4,
             use_matching=False, use_flow_opt=False),
    ),
    (
        "workers",
        dict(name="sanitize-workers", cells_by_height={1: 60},
             density=0.5, seed=17),
        dict(routability=False, scheduler_capacity=8, scheduler_workers=3,
             use_matching=False, use_flow_opt=False),
    ),
    (
        "sharded",
        dict(name="sanitize-sharded", cells_by_height={1: 120, 2: 10},
             density=0.5, seed=19),
        dict(routability=False, shards=3, scheduler_workers=3,
             use_matching=False, use_flow_opt=False),
    ),
    (
        # Mixed heights, a fence, edge rules, the P/G grid and IO pins,
        # so the routability guard's walk plans and the stage-3 feasible
        # ranges run under every perturbation; stage 3 picks network
        # simplex at this size.
        "full_flow",
        dict(name="sanitize-flow", cells_by_height={1: 80, 2: 10, 3: 4},
             density=0.55, seed=23, num_fences=1, with_edge_rules=True,
             with_rails=True, num_io_pins=6),
        dict(),
    ),
)

CASE_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in _CORPUS_RECIPES)

#: Cases that start worker processes: the ``crash`` stub must reach them.
POOLED_CASES: Tuple[str, ...] = tuple(
    name for name, _, params in _CORPUS_RECIPES
    if params.get("scheduler_workers", 0) > 1
)


@dataclass
class CaseResult:
    """Hashes of one corpus case under one run."""

    placement: str
    trace: str
    #: Workers the run lost (``parallel_worker_failures`` or
    #: ``shard_worker_failures``); not part of the comparison.
    worker_failures: int = 0


@dataclass
class ChildReport:
    """Parsed output of one sanitizer subprocess."""

    results: Dict[str, CaseResult]
    canary_fired: Optional[bool] = None
    error: Optional[str] = None


@dataclass
class MatrixRow:
    """One (seed, perturbation) comparison against the baseline."""

    seed: int
    perturbation: str
    matches: Dict[str, bool] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(self.matches.values())


# ---------------------------------------------------------------------------
# corpus


def _build_design(spec_kwargs: Dict[str, Any]) -> Any:
    from repro.benchgen import SyntheticSpec, generate_design

    return generate_design(SyntheticSpec(**spec_kwargs))


def ensure_corpus(corpus_dir: Path, cases: List[str]) -> None:
    """Generate and pickle the corpus designs (parent side, unperturbed).

    Children *load* designs instead of generating them, so a
    perturbation can only ever reach the legalizer — divergence in the
    generator (which is not the system under test) cannot masquerade as
    a legalization bug.
    """
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for name, spec_kwargs, _ in _CORPUS_RECIPES:
        if name not in cases:
            continue
        path = corpus_dir / f"{name}-{spec_kwargs['seed']}.pkl"
        if path.exists():
            continue
        design = _build_design(spec_kwargs)
        with path.open("wb") as handle:
            pickle.dump(design, handle)


def _load_design(
    name: str, spec_kwargs: Dict[str, Any], corpus_dir: Optional[Path]
) -> Any:
    if corpus_dir is not None:
        path = corpus_dir / f"{name}-{spec_kwargs['seed']}.pkl"
        if path.exists():
            with path.open("rb") as handle:
                return pickle.load(handle)
    return _build_design(spec_kwargs)


def run_corpus(
    cases: Optional[List[str]] = None,
    corpus_dir: Optional[Path] = None,
) -> Dict[str, CaseResult]:
    """Legalize every selected corpus case; placement + trace hashes."""
    from repro.core.legalizer import legalize
    from repro.core.params import LegalizerParams
    from repro.obs.manifest import placement_digest
    from repro.obs.tracer import SpanTracer

    results: Dict[str, CaseResult] = {}
    for name, spec_kwargs, params_kwargs in _CORPUS_RECIPES:
        if cases is not None and name not in cases:
            continue
        design = _load_design(name, spec_kwargs, corpus_dir)
        tracer = SpanTracer()
        result = legalize(
            design, LegalizerParams(**params_kwargs), tracer=tracer
        )
        stats = result.mgl_stats
        results[name] = CaseResult(
            placement=placement_digest(result.placement),
            trace=tracer.structure_hash(),
            worker_failures=stats.get("parallel_worker_failures", 0)
            + stats.get("shard_worker_failures", 0),
        )
    return results


# ---------------------------------------------------------------------------
# perturbations (child side)


def _install_shuffled_sets(salt: int) -> None:
    import builtins
    import random

    base_set = builtins.set
    base_frozenset = builtins.frozenset

    def _shuffled(items: List[Any]) -> List[Any]:
        random.Random((salt << 16) ^ len(items)).shuffle(items)
        return items

    class ShuffledSet(base_set):  # type: ignore[valid-type, misc]
        def __iter__(self) -> Any:
            return iter(_shuffled(list(base_set.__iter__(self))))

    class ShuffledFrozenSet(base_frozenset):  # type: ignore[valid-type, misc]
        def __iter__(self) -> Any:
            return iter(_shuffled(list(base_frozenset.__iter__(self))))

    builtins.set = ShuffledSet  # type: ignore[assignment]
    builtins.frozenset = ShuffledFrozenSet  # type: ignore[assignment]


#: Times the tripwire rewrote an unpinned ``kind=`` to heapsort; the
#: canary reads it to prove the wrapper is actually on the call path.
_TRIPWIRE_INJECTIONS = {"count": 0}


def _install_sort_tripwire() -> None:
    import numpy as np

    real_sort = np.sort
    real_argsort = np.argsort

    def sort(a: Any, *args: Any, **kwargs: Any) -> Any:
        # np.sort(a, axis=-1, kind=None, ...): kind is the 3rd
        # positional parameter, so len(args) >= 2 means it was given.
        if "kind" not in kwargs and len(args) < 2:
            kwargs["kind"] = "heapsort"
            _TRIPWIRE_INJECTIONS["count"] += 1
        return real_sort(a, *args, **kwargs)

    def argsort(a: Any, *args: Any, **kwargs: Any) -> Any:
        if "kind" not in kwargs and len(args) < 2:
            kwargs["kind"] = "heapsort"
            _TRIPWIRE_INJECTIONS["count"] += 1
        return real_argsort(a, *args, **kwargs)

    np.sort = sort  # type: ignore[assignment]
    np.argsort = argsort  # type: ignore[assignment]


def tripwire_canary() -> bool:
    """True when the unstable-sort tripwire is visibly active.

    Two conditions, both required: an unpinned argsort must route
    through the wrapper (the injection counter moves — the corpus
    itself is A001-clean, so the canary supplies the unpinned call),
    and the injected heapsort must visibly reorder ties relative to
    the stable kind.  When either fails the tripwire run proves
    nothing, and the sanitizer reports an internal error instead of a
    green matrix.
    """
    import numpy as np

    before = _TRIPWIRE_INJECTIONS["count"]
    keys = (np.arange(64) % 4).astype(float)
    default = np.argsort(keys)
    stable = np.argsort(keys, kind="stable")
    routed = _TRIPWIRE_INJECTIONS["count"] > before
    reordered = not bool(np.array_equal(default, stable))
    return routed and reordered


def _crashing_worker(conn: Any, init: Any) -> None:
    """Stand-in for a worker entry point that dies before the handshake."""
    conn.close()


def _install_worker_crash() -> None:
    from repro.core import parallel, shard

    parallel.worker_main = _crashing_worker  # type: ignore[assignment]
    shard.shard_worker_main = _crashing_worker  # type: ignore[assignment]


def install_perturbation(kind: str, salt: int) -> None:
    if kind in ("none", "hashseed"):
        return  # hashseed acts through the environment, pre-interpreter
    if kind == "shuffle":
        _install_shuffled_sets(salt)
    elif kind == "tripwire":
        _install_sort_tripwire()
    elif kind == "crash":
        _install_worker_crash()
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown perturbation: {kind}")


# ---------------------------------------------------------------------------
# child protocol


def _child_main(args: argparse.Namespace) -> int:
    install_perturbation(args.perturb, args.salt)
    corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None
    results = run_corpus(cases=args.cases or None, corpus_dir=corpus_dir)
    payload: Dict[str, Any] = {
        "results": {
            name: {
                "placement": res.placement,
                "trace": res.trace,
                "worker_failures": res.worker_failures,
            }
            for name, res in sorted(results.items())
        },
        "canary_fired": (
            tripwire_canary() if args.perturb == "tripwire" else None
        ),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _spawn_child(
    root: Path,
    perturb: str,
    salt: int,
    hashseed: str,
    cases: List[str],
    corpus_dir: Path,
) -> ChildReport:
    cmd = [
        sys.executable, "-m", "tools.repro_lint", "sanitize",
        "--child", "--perturb", perturb, "--salt", str(salt),
        "--corpus-dir", str(corpus_dir), "--cases", *cases,
    ]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = root / "src"
    extra = f"{root}{os.pathsep}{src}"
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{extra}{os.pathsep}{existing}" if existing else extra
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return ChildReport(
            results={},
            error=f"child exited {proc.returncode}: {' | '.join(tail)}",
        )
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        data = json.loads(lines[-1])
        results = {
            str(name): CaseResult(
                placement=str(res["placement"]),
                trace=str(res["trace"]),
                worker_failures=int(res["worker_failures"]),
            )
            for name, res in data["results"].items()
        }
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return ChildReport(
            results={}, error=f"unparseable child output: {exc}"
        )
    return ChildReport(results=results, canary_fired=data.get("canary_fired"))


# ---------------------------------------------------------------------------
# parent orchestration


def _hashseed_for(seed: int) -> str:
    # Any deterministic spread of distinct seeds works; 7919 keeps the
    # values visibly unrelated without reaching for a banned RNG.
    return str((seed * 7919 + 104729) % (2 ** 32))


def _compare(
    baseline: Dict[str, CaseResult], report: ChildReport, row: MatrixRow
) -> None:
    if report.error is not None:
        row.error = report.error
        return
    for name, base in sorted(baseline.items()):
        got = report.results.get(name)
        row.matches[name] = (
            got is not None
            and got.placement == base.placement
            and got.trace == base.trace
        )


def _render_summary(
    baseline: Dict[str, CaseResult], rows: List[MatrixRow]
) -> str:
    lines = ["## Determinism sanitizer", ""]
    lines.append("Baseline (unperturbed, `PYTHONHASHSEED=0`):")
    lines.append("")
    lines.append("| case | placement | trace |")
    lines.append("| --- | --- | --- |")
    for name, res in sorted(baseline.items()):
        lines.append(f"| {name} | `{res.placement}` | `{res.trace[:16]}` |")
    lines.append("")
    lines.append("| seed | perturbation | " +
                 " | ".join(sorted(baseline)) + " | status |")
    lines.append("| --- | --- |" + " --- |" * (len(baseline) + 1))
    for row in rows:
        if row.error is not None:
            cells = ["error"] * len(baseline)
            status = f"INTERNAL: {row.error}"
        else:
            cells = [
                "match" if row.matches.get(name) else "**DIVERGED**"
                for name in sorted(baseline)
            ]
            status = "ok" if row.ok else "**FAIL**"
        lines.append(
            f"| {row.seed} | {row.perturbation} | " +
            " | ".join(cells) + f" | {status} |"
        )
    lines.append("")
    return "\n".join(lines)


def sanitize_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint sanitize",
        description=(
            "Re-run a fixed legalization corpus under determinism "
            "perturbations and fail on placement/trace divergence"
        ),
    )
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="perturbation salts to try (default: 3)")
    parser.add_argument("--cases", nargs="*", choices=CASE_NAMES,
                        default=None,
                        help="corpus subset (default: all cases)")
    parser.add_argument("--perturbations", nargs="*",
                        choices=PERTURBATIONS, default=None,
                        help="perturbation subset (default: all)")
    parser.add_argument("--corpus-dir", metavar="DIR",
                        help="cache generated corpus designs here "
                             "(default: a throwaway temp dir)")
    parser.add_argument("--summary", metavar="FILE",
                        help="write a markdown matrix summary to FILE")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", choices=("none",) + PERTURBATIONS,
                        default="none", help=argparse.SUPPRESS)
    parser.add_argument("--salt", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child_main(args)

    root = Path(args.root).resolve()
    cases = list(args.cases) if args.cases else list(CASE_NAMES)
    perturbations = (
        list(args.perturbations) if args.perturbations
        else list(PERTURBATIONS)
    )
    if args.seeds < 1:
        print("repro-lint sanitize: --seeds must be >= 1", file=sys.stderr)
        return 2

    tmp: Optional[tempfile.TemporaryDirectory[str]] = None
    if args.corpus_dir:
        corpus_dir = Path(args.corpus_dir)
        if not corpus_dir.is_absolute():
            corpus_dir = root / corpus_dir
    else:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sanitize-")
        corpus_dir = Path(tmp.name)
    try:
        try:
            ensure_corpus(corpus_dir, cases)
        except Exception as exc:  # noqa: BLE001 - corpus gen is setup
            print(
                f"repro-lint sanitize: corpus generation failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 2

        base_report = _spawn_child(root, "none", 0, "0", cases, corpus_dir)
        if base_report.error is not None or not base_report.results:
            print(
                f"repro-lint sanitize: baseline run failed: "
                f"{base_report.error or 'no results'}",
                file=sys.stderr,
            )
            return 2
        baseline = base_report.results

        rows: List[MatrixRow] = []
        internal = False
        for seed in range(1, args.seeds + 1):
            for perturb in perturbations:
                hashseed = (
                    _hashseed_for(seed) if perturb == "hashseed" else "0"
                )
                report = _spawn_child(
                    root, perturb, seed, hashseed, cases, corpus_dir
                )
                row = MatrixRow(seed=seed, perturbation=perturb)
                _compare(baseline, report, row)
                if perturb == "tripwire" and report.error is None \
                        and report.canary_fired is not True:
                    row.error = "tripwire canary did not fire"
                if perturb == "crash" and report.error is None:
                    missed = [
                        name for name in POOLED_CASES
                        if name in report.results
                        and report.results[name].worker_failures == 0
                    ]
                    if missed:
                        row.error = (
                            "crash stub reached no worker of "
                            + ", ".join(missed)
                        )
                rows.append(row)
                if row.error is not None:
                    internal = True

        summary = _render_summary(baseline, rows)
        if args.summary:
            out = Path(args.summary)
            if not out.is_absolute():
                out = root / out
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(summary, encoding="utf-8")
        else:
            print(summary)

        diverged = [r for r in rows if r.error is None and not r.ok]
        failed_rows = [r for r in rows if r.error is not None]
        total = len(rows)
        if internal:
            for row in failed_rows:
                print(
                    f"repro-lint sanitize: internal error "
                    f"(seed={row.seed}, {row.perturbation}): {row.error}",
                    file=sys.stderr,
                )
            return 2
        if diverged:
            for row in diverged:
                bad = sorted(
                    name for name, ok in row.matches.items() if not ok
                )
                print(
                    f"repro-lint sanitize: divergence under "
                    f"{row.perturbation} (seed={row.seed}): "
                    f"{', '.join(bad)}",
                    file=sys.stderr,
                )
            return 1
        print(
            f"repro-lint sanitize: {total} perturbed run(s) matched the "
            f"baseline across {len(cases)} case(s)",
            file=sys.stderr,
        )
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(sanitize_main())
