"""Command-line interface.

Subcommands::

    repro generate  — build a synthetic design file
    repro legalize  — legalize a design, write the placement
    repro check     — verify legality/routability and print the score
    repro compare   — run all legalizers on a design (Table-2 style)
    repro report    — render one run's artifacts, or diff two runs
    repro runs      — browse the persistent run store (list/show/trend)
    repro svg       — render a placement to SVG

Designs and placements use the text format of :mod:`repro.io`.
Run ``repro <command> --help`` for options.

Computed results (scores, summaries, tables) go to stdout; diagnostics
("wrote X") go through :mod:`repro.obs.log` to stderr, tunable with the
global ``--log-level`` / ``--log-format`` flags — so piping ``repro``
output stays clean.

Exit codes: 0 on success; 1 when the command ran but its result is bad
(an illegal placement, a cell no window can hold, drift in the run
store); 2 on bad arguments or an input file that does not parse (the
error names ``path:line``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import (
    Callable, Dict, List, Optional, TYPE_CHECKING, Tuple, TypeVar, cast,
)

from repro import LegalizerParams, legalize
from repro.checker import check_legal, contest_score, count_routability_violations
from repro.core.mgl import LegalizationError
from repro.io import load_design, load_placement, save_design, save_placement
from repro.obs.clock import monotonic
from repro.obs.log import FORMATS, LEVELS, get_logger, setup_logging
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.model.design import Design
    from repro.model.placement import Placement
    from repro.obs.progress import ProgressEmitter
    from repro.obs.tracer import SpanTracer

#: Default run-store location (relative to the working directory).
DEFAULT_STORE = ".repro-runs"

log = get_logger("cli")

_T = TypeVar("_T")


class InputFileError(Exception):
    """An input file failed to parse; :func:`main` reports it, exit 2."""


def _read(load: Callable[..., _T], *args: object) -> _T:
    """Call a file loader, re-raising its ValueError as InputFileError.

    The loaders' messages name ``path:line``; :func:`main` logs them.
    """
    try:
        return load(*args)
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-routability", action="store_true",
                        help="ignore rails/IO pins during legalization")
    parser.add_argument("--no-matching", action="store_true",
                        help="skip the max-displacement matching stage")
    parser.add_argument("--no-flow-opt", action="store_true",
                        help="skip the fixed-row-fixed-order MCF stage")
    parser.add_argument("--window", type=int, nargs=2, metavar=("W", "H"),
                        help="initial MGL window (sites rows)")
    parser.add_argument("--capacity", type=int, default=1,
                        help="scheduler L_p capacity (default 1; implied "
                             "4*workers when --workers is set)")
    parser.add_argument("--workers", type=int, default=0,
                        help="evaluation worker processes for the MGL "
                             "scheduler (default 0 = in-process); "
                             "placements are bit-identical for any value. "
                             "With --shards this sizes the shard process "
                             "pool instead")
    parser.add_argument("--shards", type=int, default=1,
                        help="fence-aware row-band shards for MGL "
                             "(default 1 = whole die); shard interiors "
                             "legalize in --workers processes and halo "
                             "cells reconcile deterministically — for a "
                             "fixed shard count placements are "
                             "bit-identical for any worker count")
    parser.add_argument("--halo-rows", type=int, default=2,
                        help="halo rows on each side of a shard band "
                             "(default 2); cells this close to a band "
                             "boundary are re-legalized full-die")
    parser.add_argument("--height-weighted", action="store_true",
                        help="use Eq. 2 height weights during MGL")
    parser.add_argument("--eval-backend", choices=("scalar", "vector"),
                        default="vector",
                        help="insertion evaluation backend (default vector; "
                             "scalar is the reference oracle — placements "
                             "are bit-identical either way)")


def _params_from(args: argparse.Namespace) -> LegalizerParams:
    capacity = args.capacity
    shards = getattr(args, "shards", 1)
    if args.workers > 0 and capacity == 1 and shards <= 1:
        # A process pool needs multi-window batches to bite; give it a
        # sensible L_p capacity unless the user pinned one explicitly.
        # (Sharded runs parallelize whole shards instead — see
        # repro.core.shard — so no capacity is implied there.)
        capacity = max(8, 4 * args.workers)
    params = LegalizerParams(
        routability=not args.no_routability,
        use_matching=not args.no_matching,
        use_flow_opt=not args.no_flow_opt,
        scheduler_capacity=capacity,
        scheduler_workers=args.workers,
        shards=shards,
        shard_halo_rows=getattr(args, "halo_rows", 2),
        height_weighted=args.height_weighted,
        eval_backend=args.eval_backend,
    )
    if args.window:
        params.window_width, params.window_height = args.window
    return params


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.benchgen import SyntheticSpec, generate_design

    cells: Dict[int, int] = {}
    for item in args.cells:
        height, _, count = item.partition(":")
        cells[int(height)] = int(count)
    design = generate_design(
        SyntheticSpec(
            name=args.name,
            cells_by_height=cells,
            density=args.density,
            seed=args.seed,
            num_fences=args.fences,
            with_rails=args.rails,
            num_io_pins=args.io_pins,
            with_edge_rules=args.edge_rules,
        )
    )
    save_design(design, args.output)
    log.info("wrote %s to %s", design, args.output)
    return 0


def _make_progress(
    target: Optional[str],
) -> "Tuple[Optional[ProgressEmitter], Optional[Path]]":
    """Build the ``--progress`` emitter: tty lines, or a JSONL sink path."""
    if target is None:
        return None, None
    from repro.obs.progress import ProgressEmitter, render_event

    if target:
        sink_path = Path(target)
        return ProgressEmitter(sink=open(sink_path, "w")), sink_path

    def to_stderr(event: Dict[str, object]) -> None:
        print(render_event(event), file=sys.stderr)

    return ProgressEmitter(callback=to_stderr), None


def cmd_legalize(args: argparse.Namespace) -> int:
    from repro.obs.manifest import (
        build_manifest,
        manifest_path_for,
        write_manifest,
    )

    design = _read(load_design, args.design)
    params = _params_from(args)
    run_dir: Optional[Path] = Path(args.run_dir) if args.run_dir else None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
    # The registry always records; these flags decide who reads it.
    profiling = (
        args.profile is not None or run_dir is not None or bool(args.store)
    )
    metrics = MetricsRegistry()
    tracer: Optional["SpanTracer"] = None
    # --store records a span profile per run, so it traces too; pair it
    # with --sample-every to bound the overhead on big designs.
    if args.trace is not None or run_dir is not None or args.store:
        from repro.obs.tracer import SpanTracer

        tracer = SpanTracer(sample_every=args.sample_every)
    progress, sink_path = _make_progress(args.progress)
    start = monotonic()
    try:
        result = legalize(
            design, params, tracer=tracer, metrics=metrics, progress=progress
        )
    except LegalizationError as exc:
        log.error("%s: %s", args.design, exc)
        return 1
    finally:
        if progress is not None and progress.sink is not None:
            progress.sink.close()
    elapsed = monotonic() - start
    if sink_path is not None:
        log.info("progress events written to %s", sink_path)
    save_placement(result.placement, args.output)
    final = result.after_flow or result.after_matching or result.after_mgl
    print(f"legalized {design.num_cells} cells in {elapsed:.1f}s")
    print(f"avg disp {final.avg_disp:.3f}  max disp {final.max_disp:.2f} "
          f"(row heights)")
    log.info("placement written to %s", args.output)

    manifest = build_manifest(
        design,
        params,
        result.placement,
        trace_structure_hash=(
            tracer.structure_hash() if tracer is not None else None
        ),
        trace_sample_every=(
            tracer.sample_every if tracer is not None else None
        ),
        shard_topology=result.shard_topology,
    )
    if result.shard_topology is not None:
        stats = result.mgl_stats
        print(f"shards: {result.shard_topology['shards']} bands, "
              f"{stats.get('shard_reconciled', 0)} reconciled "
              f"({stats.get('shard_deferred', 0)} deferred), "
              f"{stats.get('shard_workers_spawned', 0)} workers")
    span_profile = None
    if tracer is not None:
        from repro.obs.profile import fold_spans

        span_profile = fold_spans(tracer.roots)
        if args.trace:
            tracer.write_chrome_trace(args.trace)
            write_manifest(manifest, manifest_path_for(args.trace))
            log.info(
                "trace written to %s (%d spans; load at "
                "https://ui.perfetto.dev)",
                args.trace, tracer.span_count(),
            )
        if run_dir is not None:
            import json

            tracer.write_chrome_trace(str(run_dir / "trace.json"))
            tracer.write_jsonl(str(run_dir / "trace.jsonl"))
            (run_dir / "span_profile.json").write_text(
                json.dumps(
                    span_profile.as_dict(), indent=2, sort_keys=True
                ) + "\n"
            )
            (run_dir / "profile.collapsed").write_text(
                span_profile.collapsed_stacks()
            )
    if profiling:
        from repro.obs.report import render_metrics

        stats = result.mgl_stats
        print(f"scheduler: {stats.get('scheduler_batches', 0)} batches, "
              f"{stats.get('scheduler_reevaluations', 0)} re-evaluations, "
              f"{stats.get('scheduler_workers_spawned', 0)} workers")
        print("\n".join(render_metrics(metrics.as_dict())))
        profile_json = metrics.to_json() + "\n"
        if args.profile:  # a path was given, not the bare flag
            Path(args.profile).write_text(profile_json)
            write_manifest(manifest, manifest_path_for(args.profile))
            log.info("perf profile written to %s", args.profile)
        if run_dir is not None:
            (run_dir / "profile.json").write_text(profile_json)
            (run_dir / "metrics.prom").write_text(
                metrics.render_prometheus()
            )
    if run_dir is not None:
        write_manifest(manifest, run_dir / "manifest.json")
        log.info("run artifacts written to %s", run_dir)
    if args.store:
        from repro.obs.runstore import RunStore

        run_id = RunStore(args.store).add_run(
            manifest,
            metrics=metrics.as_dict(),
            span_profile=(
                span_profile.as_dict() if span_profile is not None else None
            ),
            collapsed=(
                span_profile.collapsed_stacks()
                if span_profile is not None
                else None
            ),
            seconds=elapsed,
        )
        log.info("run %s appended to store %s", run_id, args.store)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        load_run,
        render_diff,
        render_run,
        span_profile_for,
    )

    if len(args.runs) > 2:
        log.error("report takes one run (render) or two (diff), got %d",
                  len(args.runs))
        return 2
    runs = [load_run(path) for path in args.runs]
    if len(runs) == 1:
        print(render_run(runs[0]))
        if args.profile:
            profile = span_profile_for(runs[0])
            if profile is None:
                log.error("%s: no span profile (trace.jsonl or "
                          "span_profile.json missing)", runs[0].label)
                return 1
            from repro.obs.profile import render_profile

            print(render_profile(profile))
        return 0
    print(render_diff(runs[0], runs[1]))
    if args.profile:
        profiles = [span_profile_for(run) for run in runs]
        missing = [
            run.label
            for run, profile in zip(runs, profiles)
            if profile is None
        ]
        if missing:
            log.error("no span profile for: %s", ", ".join(missing))
            return 1
        from repro.obs.profile import diff_profiles

        print(diff_profiles(profiles[0], profiles[1]))
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.runstore import (
        RunStore,
        render_run_detail,
        render_runs_list,
        render_trends,
    )

    store = RunStore(args.store)
    if args.runs_command == "list":
        print(render_runs_list(store))
        return 0
    if args.runs_command == "show":
        known = {record.get("id") for record in store.records()}
        print(render_run_detail(store, args.id))
        return 0 if args.id in known else 1
    keys = [args.key] if args.key else store.keys()
    if not keys:
        print(f"run store {store.root}: empty")
        return 0
    trends = [
        store.trend(key, last=args.last, max_drift_pct=args.max_drift)
        for key in keys
    ]
    print(render_trends(trends))
    flagged = [trend for trend in trends if trend.flagged]
    if flagged:
        log.error("%d of %d keys show drift", len(flagged), len(trends))
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    design = _read(load_design, args.design)
    placement = _read(load_placement, design, args.placement)
    if args.verbose:
        from repro.checker import placement_report

        print(placement_report(placement))
        return 0 if check_legal(placement).is_legal else 1
    legal = check_legal(placement)
    print(f"legality: {legal.summary()}")
    if not legal.is_legal:
        for message in legal.all_messages()[: args.max_messages]:
            print(f"  {message}")
    routability = count_routability_violations(placement)
    print(f"routability: {routability.summary()}")
    score = contest_score(placement, routability)
    print(f"avg disp {score.avg_displacement:.3f}  "
          f"max disp {score.max_displacement:.2f}  "
          f"HPWL ratio {score.hpwl_ratio:+.4f}  score S {score.score:.4f}")
    return 0 if legal.is_legal else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import (
        legalize_abacus,
        legalize_lcp,
        legalize_mll,
        legalize_tetris,
    )
    from repro.core.flowopt import optimize_fixed_row_order
    from repro.core.mgl import MGLegalizer

    design = _read(load_design, args.design)

    def ours(d: "Design") -> "Placement":
        params = LegalizerParams(
            routability=False, use_matching=False, scheduler_capacity=1
        )
        placement = MGLegalizer(d, params).run()
        optimize_fixed_row_order(placement, params)
        return placement

    algos: List[Tuple[str, Callable[["Design"], "Placement"]]] = [
        ("tetris", legalize_tetris),
        ("mll", legalize_mll),
        ("abacus", legalize_abacus),
        ("lcp", legalize_lcp),
        ("ours", ours),
    ]
    print(f"{'algorithm':10s} {'total_disp':>12s} {'time':>8s}")
    for tag, algorithm in algos:
        start = monotonic()
        placement = algorithm(design)
        elapsed = monotonic() - start
        assert check_legal(placement).is_legal, tag
        print(f"{tag:10s} {placement.total_displacement_sites():12.0f} "
              f"{elapsed:7.1f}s")
    return 0


def cmd_import_bookshelf(args: argparse.Namespace) -> int:
    from repro.io import load_bookshelf

    design, placement = _read(load_bookshelf, args.aux)
    save_design(design, args.output)
    log.info("imported %s from %s", design, args.aux)
    if args.placement:
        save_placement(placement, args.placement)
        log.info("placement written to %s", args.placement)
    return 0


def cmd_export_bookshelf(args: argparse.Namespace) -> int:
    from repro.io import save_bookshelf

    design = _read(load_design, args.design)
    placement = (
        _read(load_placement, design, args.placement)
        if args.placement
        else None
    )
    aux = save_bookshelf(design, args.output, placement=placement)
    log.info("wrote Bookshelf bundle: %s", aux)
    return 0


def cmd_svg(args: argparse.Namespace) -> int:
    from repro.viz import render_displacement_svg, render_placement_svg

    design = _read(load_design, args.design)
    placement = _read(load_placement, design, args.placement)
    if args.displacement:
        svg = render_displacement_svg(placement)
    else:
        svg = render_placement_svg(placement, show_rails=not args.no_rails)
    with open(args.output, "w") as handle:
        handle.write(svg)
    log.info("wrote %s", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mixed-cell-height legalization (DAC 2018 reproduction)",
    )
    parser.add_argument("--log-level", choices=LEVELS, default="info",
                        help="diagnostic verbosity on stderr (default info); "
                             "results always print to stdout")
    parser.add_argument("--log-format", choices=FORMATS, default="human",
                        help="stderr diagnostic format (default human); "
                             "json emits one object per line for log "
                             "collectors")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a synthetic design")
    gen.add_argument("name")
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--cells", nargs="+", default=["1:500", "2:40"],
                     metavar="H:N", help="cells per height, e.g. 1:500 2:40")
    gen.add_argument("--density", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--fences", type=int, default=0)
    gen.add_argument("--rails", action="store_true")
    gen.add_argument("--io-pins", type=int, default=0)
    gen.add_argument("--edge-rules", action="store_true")
    gen.set_defaults(func=cmd_generate)

    leg = sub.add_parser("legalize", help="legalize a design file")
    leg.add_argument("design")
    leg.add_argument("-o", "--output", required=True)
    leg.add_argument("--profile", nargs="?", const="", default=None,
                     metavar="JSON",
                     help="collect per-stage timings and counters; print a "
                          "summary, and write JSON (plus a run manifest) "
                          "when a path is given")
    leg.add_argument("--trace", metavar="JSON",
                     help="record the span tree and write Chrome trace-event "
                          "JSON (Perfetto-loadable) plus a run manifest")
    leg.add_argument("--run-dir", metavar="DIR",
                     help="write the full artifact set — profile.json, "
                          "manifest.json, trace.json (+ trace.jsonl, "
                          "span_profile.json, profile.collapsed) — "
                          "into DIR, for `repro report`")
    leg.add_argument("--sample-every", type=int, default=1, metavar="K",
                     help="trace sampling stride: keep per-cell "
                          "evaluate/window spans for every K-th cell in "
                          "the fixed MGL order (default 1 = all); "
                          "structural spans always record, and the "
                          "placement is bit-identical for any K")
    leg.add_argument("--progress", nargs="?", const="", default=None,
                     metavar="JSONL",
                     help="stream progress events (phases, cells placed, "
                          "ETA, shard heartbeats) to stderr, or as JSON "
                          "lines to JSONL when a path is given; "
                          "observational only")
    leg.add_argument("--store", metavar="DIR",
                     help="append this run (manifest, metrics, span "
                          "profile) to the persistent run store in DIR, "
                          "for `repro runs`")
    _add_param_flags(leg)
    leg.set_defaults(func=cmd_legalize)

    chk = sub.add_parser("check", help="check a placement")
    chk.add_argument("design")
    chk.add_argument("placement")
    chk.add_argument("--max-messages", type=int, default=10)
    chk.add_argument("-v", "--verbose", action="store_true",
                     help="full report: per-height stats, histogram, fences")
    chk.set_defaults(func=cmd_check)

    cmp_parser = sub.add_parser("compare", help="run all legalizers")
    cmp_parser.add_argument("design")
    cmp_parser.set_defaults(func=cmd_compare)

    rep = sub.add_parser(
        "report",
        help="render one run's profile/manifest, or diff two runs",
    )
    rep.add_argument("runs", nargs="+", metavar="RUN",
                     help="a --run-dir directory or a profile JSON path; "
                          "give two to diff them")
    rep.add_argument("--profile", action="store_true",
                     help="also render the span profile (per-kind "
                          "self/total time, worker/shard attribution) "
                          "folded from the run's trace; with two runs, "
                          "the profile delta")
    rep.set_defaults(func=cmd_report)

    runs = sub.add_parser(
        "runs", help="browse the persistent run store (list, show, trend)"
    )
    runs.add_argument("--store", metavar="DIR", default=DEFAULT_STORE,
                      help=f"run store directory (default {DEFAULT_STORE})")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("list", help="one line per stored run")
    show = runs_sub.add_parser("show", help="one run's record and artifacts")
    show.add_argument("id", help="run id from `repro runs list`")
    trend = runs_sub.add_parser(
        "trend",
        help="latest vs median of history per key; exits 1 on drift",
    )
    trend.add_argument("--key", metavar="KEY",
                       help="trend one key only (default: every key)")
    trend.add_argument("--last", type=int, default=10,
                       help="history window per key (default 10)")
    trend.add_argument("--max-drift", type=float, default=25.0,
                       metavar="PCT",
                       help="flag wall-time/counter drift beyond PCT%% "
                            "of the history median (default 25)")
    runs.set_defaults(func=cmd_runs)

    imp = sub.add_parser("import-bookshelf",
                         help="convert a Bookshelf .aux bundle to a design file")
    imp.add_argument("aux")
    imp.add_argument("-o", "--output", required=True)
    imp.add_argument("--placement", help="also write the .pl as a placement")
    imp.set_defaults(func=cmd_import_bookshelf)

    exp = sub.add_parser("export-bookshelf",
                         help="write a design (and placement) as Bookshelf")
    exp.add_argument("design")
    exp.add_argument("-o", "--output", required=True,
                     help="output directory for the bundle")
    exp.add_argument("--placement", help="placement file to export")
    exp.set_defaults(func=cmd_export_bookshelf)

    svg = sub.add_parser("svg", help="render a placement to SVG")
    svg.add_argument("design")
    svg.add_argument("placement")
    svg.add_argument("-o", "--output", required=True)
    svg.add_argument("--displacement", action="store_true",
                     help="draw GP displacement vectors")
    svg.add_argument("--no-rails", action="store_true")
    svg.set_defaults(func=cmd_svg)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(args.log_level, fmt=args.log_format)
    try:
        return cast(int, args.func(args))
    except InputFileError as exc:
        log.error("%s", exc)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (`repro report … | head`); redirect
        # stdout to devnull so the interpreter's final flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
