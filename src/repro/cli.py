"""Command-line interface: ``python -m repro <command>``.

Commands
========

``render``          run one scheme on a benchmark, print stats, optionally
                    dump the frame as a PPM
``compare``         run several schemes on one benchmark, print speedups
``figures``         regenerate one or more of the paper's figures
``sweep``           sweep one setup parameter through the experiment engine
``inspect``         print a trace's structure (groups, histogram, coverage)
``timeline``        render an ASCII execution Gantt for one scheme
``export``          synthesize a benchmark trace and save it to a .npz file
``export-results``  run schemes and write a CSV/JSON of flattened results
``gen-trace``       generate an MTTF-driven failure trace for the configured
                    fabric (topology-fingerprinted JSON; see
                    :mod:`repro.faults.traces`)
``soak``            render N consecutive frames under a failure trace,
                    checking per-frame bit-identity vs the fault-free oracle
``serve``           run the virtual-time frame-serving daemon against an
                    open-loop request workload (admission control,
                    batching, SLO gates; see :mod:`repro.serve`)
``loadgen``         generate a request workload file for ``serve``
``lint``            run simlint (determinism static analysis) over sources

Every simulation command accepts ``--scale {tiny,small,paper}``,
``--gpus N``, ``--topology {p2p,bus,ring,switch}``,
``--watchdog-cycles N`` (bound simulated progress: a run that advances
past the budget without finishing raises a typed watchdog error instead
of spinning) and ``--artifact-dir DIR`` (spill the render artifact store
to disk so warm state survives across invocations). ``render``,
``compare`` and ``timeline`` accept ``--sanitize`` to run the DES with
the race sanitizer attached. ``sweep``, ``figures`` and
``export-results`` additionally take the experiment-engine flags
``--jobs``, ``--timeout``, ``--retries``, ``--journal`` and ``--resume``
(see :mod:`repro.harness.engine`).

Exit codes
==========

0 success · 1 library error · 2 bad configuration/usage · 3 completed with
FAILED cells (partial results salvaged) · 4 job timeout · 5 worker crash ·
6 retry budget exhausted · 7 failure-trace topology fingerprint mismatch ·
8 serve run breached its SLO gates · 9 run degraded (virtual-time
watchdog tripped; serve degrades in-band) · 10 unrecoverable injected
fault · 11 scheduler reached an invalid state

The mapping lives in :data:`repro.errors.EXIT_CODES` (re-exported here)
so ``main()`` and the error-contract test consume one registry.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .core import plan_frame, split_into_groups, summarize_plan
from .errors import (EXIT_BUDGET, EXIT_CODES, EXIT_CONFIG, EXIT_CRASH,
                     EXIT_DEGRADED, EXIT_ERROR, EXIT_FAULT,
                     EXIT_FINGERPRINT, EXIT_OK, EXIT_OVERLOAD,
                     EXIT_PARTIAL, EXIT_SCHEDULING, EXIT_TIMEOUT,
                     ConfigError, ReproError, exit_code_for)
from .harness import MAIN_SCHEMES, SCHEMES, make_setup, run
from .harness import experiments as experiments_module
from .harness import report as report_module
from .harness.engine import Engine
from .stats import ALL_STAGES
from .traces import BENCHMARK_NAMES, load_benchmark, triangle_histogram
from .traces.io import load_trace, save_trace

#: figure name -> (experiment callable name, renderer callable name)
FIGURES = {
    "table2": ("table2_config", "render_dict"),
    "table3": ("table3_benchmarks", "render_table3"),
    "fig2": ("fig2_geometry_share", "render_fig2"),
    "fig4": ("fig4_gpupd_overheads", "render_fig4"),
    "fig13": ("fig13_performance", None),
    "fig15": ("fig15_depth_test", "render_fig15"),
    "fig17": ("fig17_traffic", "render_fig17"),
    "head2head": ("composition_head_to_head", "render_head_to_head"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHOPIN multi-GPU rendering reproduction (HPCA 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scale", default="tiny",
                       choices=("tiny", "small", "paper"))
        p.add_argument("--gpus", type=int, default=8)
        from .config import ALL_TOPOLOGIES
        p.add_argument("--topology", default=None,
                       choices=ALL_TOPOLOGIES,
                       help="interconnect fabric (default: p2p, the "
                            "paper's DGX-like full mesh)")
        p.add_argument("--artifact-dir", metavar="DIR", default=None,
                       help="spill the render artifact store to this "
                            "directory (shared across processes and "
                            "invocations; see repro.render.store)")
        p.add_argument("--watchdog-cycles", type=float, default=None,
                       metavar="CYCLES",
                       help="virtual-time progress budget: abort (typed "
                            "WatchdogError) any simulation that advances "
                            "past this many cycles without completing; "
                            "the serve daemon degrades instead of "
                            "crashing (default: unbounded)")

    def fault_opt(p):
        p.add_argument(
            "--fault-plan", metavar="SPEC", default=None,
            help="inject deterministic faults, e.g. "
                 "'seed=7,drop=0.01,fail=2@50000,slow=0:20000:0.5' "
                 "(keys: seed, drop, corrupt, retries, backoff, detect, "
                 "gpus, fail=GPU@CYCLE, slow=START:END:FACTOR — slow "
                 "windows must be disjoint), or 'trace:PATH.json' to "
                 "replay frame 0 of a generated failure trace (see "
                 "gen-trace; the trace's topology fingerprint must match "
                 "this system, exit 7 otherwise)")

    def sanitize_opt(p):
        p.add_argument(
            "--sanitize", action="store_true",
            help="attach the race sanitizer: fail the run on same-cycle "
                 "conflicting accesses to shared state (see repro.analysis)")

    def engine_opts(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker parallelism (>1 uses supervised "
                            "subprocesses; default serial in-process)")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock budget in seconds "
                            "(implies subprocess isolation)")
        p.add_argument("--retries", type=int, default=2,
                       help="extra attempts after a transient failure "
                            "(timeout / worker death); default 2")
        p.add_argument("--journal", metavar="PATH", default=None,
                       help="append every job completion to this JSONL "
                            "run journal")
        p.add_argument("--resume", metavar="PATH", default=None,
                       help="skip jobs already completed in this journal "
                            "(fingerprint-matched)")

    render = sub.add_parser("render", help="run one scheme on a benchmark")
    common(render)
    fault_opt(render)
    sanitize_opt(render)
    render.add_argument("benchmark", choices=BENCHMARK_NAMES)
    render.add_argument("--scheme", default="chopin+sched",
                        choices=sorted(SCHEMES))
    render.add_argument("--ppm", metavar="PATH",
                        help="write the rendered frame as a PPM image")

    compare = sub.add_parser("compare",
                             help="speedups of several schemes")
    common(compare)
    fault_opt(compare)
    sanitize_opt(compare)
    compare.add_argument("benchmark", choices=BENCHMARK_NAMES)
    compare.add_argument("--schemes", nargs="+", default=list(MAIN_SCHEMES),
                         choices=sorted(SCHEMES))

    figures = sub.add_parser("figures", help="regenerate paper figures")
    common(figures)
    engine_opts(figures)
    figures.add_argument("names", nargs="+", choices=sorted(FIGURES))
    figures.add_argument("--benchmarks", nargs="+",
                         default=list(BENCHMARK_NAMES),
                         choices=BENCHMARK_NAMES)

    sweep_cmd = sub.add_parser(
        "sweep", help="sweep one make_setup parameter over a value range")
    common(sweep_cmd)
    engine_opts(sweep_cmd)
    sweep_cmd.add_argument("parameter",
                           help="make_setup keyword to sweep (e.g. "
                                "num_gpus, bandwidth_gb_per_s)")
    sweep_cmd.add_argument("values", nargs="+",
                           help="swept values (parsed as int/float/string)")
    sweep_cmd.add_argument("--schemes", nargs="+",
                           default=["chopin+sched"], choices=sorted(SCHEMES))
    sweep_cmd.add_argument("--benchmarks", nargs="+", default=["cod2"],
                           choices=BENCHMARK_NAMES)
    sweep_cmd.add_argument("--baseline", default="duplication",
                           choices=sorted(SCHEMES))
    sweep_cmd.add_argument("--pinned-baseline", action="store_true",
                           help="pin the baseline to the default config "
                                "instead of re-running it at each value")

    inspect = sub.add_parser("inspect", help="show a trace's structure")
    common(inspect)
    inspect.add_argument("benchmark", choices=BENCHMARK_NAMES)

    export = sub.add_parser("export", help="save a benchmark trace to .npz")
    common(export)
    export.add_argument("benchmark", choices=BENCHMARK_NAMES)
    export.add_argument("output", help="output .npz path")

    timeline = sub.add_parser(
        "timeline", help="render an ASCII execution Gantt for one scheme")
    common(timeline)
    fault_opt(timeline)
    sanitize_opt(timeline)
    timeline.add_argument("benchmark", choices=BENCHMARK_NAMES)
    timeline.add_argument("--scheme", default="chopin+sched",
                          choices=sorted(SCHEMES))
    timeline.add_argument("--width", type=int, default=100)
    timeline.add_argument("--links", action="store_true",
                          help="include inter-GPU link lanes")

    results = sub.add_parser(
        "export-results", help="run schemes and write a CSV/JSON of results")
    common(results)
    fault_opt(results)
    engine_opts(results)
    results.add_argument("output", help="output .csv or .json path")
    results.add_argument("--benchmarks", nargs="+",
                         default=list(BENCHMARK_NAMES),
                         choices=BENCHMARK_NAMES)
    results.add_argument("--schemes", nargs="+", default=list(MAIN_SCHEMES),
                         choices=sorted(SCHEMES))

    gen_trace = sub.add_parser(
        "gen-trace",
        help="generate an MTTF-driven failure trace (fingerprinted JSON)",
        description="Draw per-link and per-GPU failure events from "
                    "exponential MTTF/MTTR renewal processes (loss rates "
                    "from an empirical CorrOpt-style distribution) and "
                    "write them as a versioned JSON trace. The trace "
                    "embeds a fingerprint of the fabric it was generated "
                    "for (topology kind, GPU count, link parameters); "
                    "replaying it against any other system exits 7.")
    common(gen_trace)
    gen_trace.add_argument("output", help="output trace .json path")
    gen_trace.add_argument("--seed", type=int, default=0)
    gen_trace.add_argument("--frames", type=int, default=None,
                           help="trace horizon in frame windows (default 5)")
    gen_trace.add_argument("--frame-cycles", type=float, default=None,
                           metavar="CYCLES",
                           help="length of one frame window in cycles")
    for element in ("link", "degrade", "gpu"):
        gen_trace.add_argument(f"--{element}-mttf", type=float, default=None,
                               metavar="CYCLES",
                               help=f"mean cycles between {element} "
                                    f"failures (0 disables the process)")
        gen_trace.add_argument(f"--{element}-mttr", type=float, default=None,
                               metavar="CYCLES",
                               help=f"mean {element} repair time in cycles")

    soak = sub.add_parser(
        "soak",
        help="render N consecutive frames under a failure trace",
        description="Replay a gen-trace failure trace across N consecutive "
                    "frames: each frame runs under the trace window's fault "
                    "plan (fail-stop state carries across frame boundaries) "
                    "and its image is checked bit-for-bit against the "
                    "fault-free oracle. Exits 1 when any frame diverges, 7 "
                    "when the trace's topology fingerprint does not match "
                    "the configured system.")
    common(soak)
    soak.add_argument("benchmark", choices=BENCHMARK_NAMES)
    soak.add_argument("--trace", required=True, metavar="PATH",
                      help="failure trace written by gen-trace")
    soak.add_argument("--scheme", default="chopin+sched",
                      choices=sorted(SCHEMES))
    soak.add_argument("--frames", type=int, default=None,
                      help="frames to render (default: the whole trace)")
    soak.add_argument("--csv", metavar="PATH", default=None,
                      help="write one CSV row per frame")

    def serve_load_opts(p):
        p.add_argument("--sessions", type=int, default=4,
                       help="concurrent simulated client sessions")
        p.add_argument("--rate-x", type=float, default=2.0,
                       help="offered load as a multiple of pool capacity "
                            "(2.0 = 2x saturation; default 2.0)")
        p.add_argument("--duration-x", type=float, default=50.0,
                       help="workload length in mean service times")
        p.add_argument("--profile", default="steady",
                       choices=("steady", "burst", "diurnal"),
                       help="arrival-rate shape over time")
        p.add_argument("--seed", type=int, default=0,
                       help="workload seed (per-session sha256 streams)")

    serve = sub.add_parser(
        "serve",
        help="run the virtual-time frame-serving daemon under load",
        description="Run repro.serve: simulated client sessions submit "
                    "frame-render requests against a pool of render "
                    "groups, through a bounded admission queue with a "
                    "pluggable shedding policy, optional per-session "
                    "budgets, deadline semantics and injected GPU "
                    "faults. --gpus is GPUs PER RENDER GROUP; the pool "
                    "has --groups of them. Exit codes: 0 = served within "
                    "SLO, 8 = an SLO gate breached, 9 = degraded "
                    "(virtual-time watchdog tripped).")
    common(serve)
    fault_opt(serve)
    serve_load_opts(serve)
    serve.add_argument("benchmarks", nargs="+", choices=BENCHMARK_NAMES,
                       help="benchmark mix requests draw from (uniform)")
    serve.add_argument("--scheme", default="chopin+sched",
                       choices=sorted(SCHEMES))
    serve.add_argument("--groups", type=int, default=2,
                       help="render groups in the serving pool")
    serve.add_argument("--load", metavar="PATH", default=None,
                       help="replay a workload file written by loadgen "
                            "instead of generating one")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="admission queue bound (requests)")
    serve.add_argument("--policy", default="drop-newest",
                       choices=("drop-newest", "drop-oldest",
                                "deadline-expired"),
                       help="shedding policy when the queue is full")
    serve.add_argument("--batch-limit", type=int, default=4,
                       help="max same-benchmark requests per render batch")
    serve.add_argument("--pipeline-overlap", action="store_true",
                       help="overlap a back-to-back batch's geometry with "
                            "the previous frame's composition tail "
                            "(cross-request pipelining; off by default)")
    serve.add_argument("--retry-limit", type=int, default=3,
                       help="re-queue attempts after a group failure "
                            "before a request sheds")
    serve.add_argument("--deadline-x", type=float, default=None,
                       help="per-request deadline in mean service times "
                            "(default: none)")
    serve.add_argument("--budget-x", type=float, default=None,
                       help="per-session token-bucket budget as a "
                            "multiple of the session's fair share of "
                            "pool capacity (default: unlimited)")
    serve.add_argument("--csv", metavar="PATH", default=None,
                       help="write pool + per-session rows as CSV")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write the full serve report as JSON")
    serve.add_argument("--max-shed-rate", type=float, default=None,
                       help="SLO gate: max tolerated fraction of "
                            "unserved requests (breach exits 8)")
    serve.add_argument("--max-p99-x", type=float, default=None,
                       help="SLO gate: max p99 latency in mean service "
                            "times (breach exits 8)")

    loadgen = sub.add_parser(
        "loadgen",
        help="generate a request workload file for serve",
        description="Calibrate per-benchmark service times on one render "
                    "group, draw open-loop Poisson arrivals for the "
                    "requested profile, and write the workload as "
                    "canonical JSON for 'serve --load'.")
    common(loadgen)
    serve_load_opts(loadgen)
    loadgen.add_argument("output", help="output workload .json path")
    loadgen.add_argument("--benchmarks", nargs="+", default=["wolf"],
                         choices=BENCHMARK_NAMES)
    loadgen.add_argument("--scheme", default="chopin+sched",
                         choices=sorted(SCHEMES))
    loadgen.add_argument("--groups", type=int, default=2,
                         help="render groups the workload is sized for")

    lint = sub.add_parser(
        "lint", help="run simlint (determinism static analysis)",
        description="Run simlint over Python sources. Exit codes: 0 = "
                    "clean (or all findings below the --fail-on bar), "
                    "1 = failing findings, 2 = bad configuration "
                    "(nonexistent path, malformed baseline).")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--format", dest="fmt", default="text",
                      choices=("text", "json"))
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.add_argument("--deep", action="store_true",
                      help="also run the project-wide passes (units/"
                           "dimension checker, nondeterminism taint, "
                           "hot-path allocation lint) over all paths as "
                           "one program")
    lint.add_argument("--changed", nargs="?", const="main", default=None,
                      metavar="REF",
                      help="report only files touched since merge-base "
                           "with REF (default: main) plus their reverse "
                           "import dependencies; deep passes still "
                           "analyze the whole tree")
    lint.add_argument("--json-report", metavar="FILE",
                      help="additionally write the findings (after "
                           "baseline filtering) to FILE as JSON")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings recorded in this JSON "
                           "baseline; only new findings count")
    lint.add_argument("--update-baseline", metavar="FILE",
                      help="write the current findings to FILE as the "
                           "new baseline and exit 0")
    lint.add_argument("--fail-on", default="any",
                      choices=("any", "error", "never"),
                      help="which findings exit nonzero: any finding "
                           "(default), only severity=error findings, or "
                           "never (report only)")

    return parser


def _parse_faults(args, config=None):
    """FaultPlan from --fault-plan (None when absent or not supported).

    The ``trace:PATH.json`` form loads a generated failure trace, checks
    its topology fingerprint against ``config`` (raising
    :class:`~repro.errors.TraceFingerprintError`, exit 7, on mismatch) and
    replays the trace's first frame window; any other spec goes through
    the ``key=value`` mini-language.
    """
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return None
    if spec.startswith("trace:"):
        from .faults import load_failure_trace, plan_for_window
        if config is None:
            raise ConfigError(
                "trace:-form fault plans need a concrete system config")
        trace = load_failure_trace(spec[len("trace:"):])
        return plan_for_window(trace, config, 0)
    from .faults import parse_fault_plan
    return parse_fault_plan(spec)


def _setup_from_args(args):
    """Setup from the common CLI flags.

    Built in two steps because a ``trace:`` fault plan is validated
    against the concrete fabric: probe the fault-free config first, then
    rebuild with the parsed plan attached.
    """
    kwargs = dict(num_gpus=args.gpus,
                  topology=getattr(args, "topology", None),
                  sanitize=getattr(args, "sanitize", False),
                  watchdog_cycles=getattr(args, "watchdog_cycles", None))
    probe = make_setup(args.scale, **kwargs)
    return make_setup(args.scale, faults=_parse_faults(args, probe.config),
                      **kwargs)


def _make_engine(args, always: bool = False) -> Optional[Engine]:
    """Experiment engine from the ``--jobs/--timeout/...`` flags.

    Returns None when no engine flag was used (and ``always`` is unset),
    so commands keep their plain, unsupervised fast path.
    """
    wanted = (always or args.jobs != 1 or args.timeout is not None
              or args.retries != 2 or args.journal or args.resume)
    if not wanted:
        return None
    return Engine(jobs=args.jobs, timeout=args.timeout, retries=args.retries,
                  journal=args.journal, resume=args.resume)


def _parse_sweep_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def cmd_render(args) -> int:
    setup = _setup_from_args(args)
    trace = load_benchmark(args.benchmark, args.scale)
    result = run(args.scheme, trace, setup)
    print(f"{args.scheme} on {args.benchmark} ({args.gpus} GPUs, "
          f"{args.scale} scale)")
    print(f"  frame time : {result.frame_cycles:,.0f} cycles")
    totals = result.stats.stage_cycle_totals()
    busy = sum(totals.values()) or 1.0
    for stage in ALL_STAGES:
        if totals.get(stage, 0.0) > 0:
            print(f"  {stage:<13}: {totals[stage]:14,.0f} cycles "
                  f"({100 * totals[stage] / busy:5.1f}%)")
    print(f"  traffic    : {result.stats.traffic_total() / 1e6:.2f} MB")
    if setup.config.faults is not None:
        print(report_module.render_fault_summary(result.stats))
    if args.ppm:
        result.image.write_ppm(args.ppm)
        print(f"  frame written to {args.ppm}")
    return 0


def cmd_compare(args) -> int:
    setup = _setup_from_args(args)
    trace = load_benchmark(args.benchmark, args.scale)
    baseline = run("duplication", trace, setup)
    print(f"{args.benchmark} ({args.gpus} GPUs): speedup vs duplication")
    print(f"  {'duplication':<14} 1.000  "
          f"({baseline.frame_cycles:,.0f} cycles)")
    for scheme in args.schemes:
        result = run(scheme, trace, setup)
        print(f"  {scheme:<14} "
              f"{baseline.frame_cycles / result.frame_cycles:.3f}  "
              f"({result.frame_cycles:,.0f} cycles)")
    return 0


def cmd_figures(args) -> int:
    engine = _make_engine(args)
    with contextlib.ExitStack() as stack:
        if engine is not None:
            stack.enter_context(engine.activated())
        for name in args.names:
            experiment_name, renderer_name = FIGURES[name]
            experiment = getattr(experiments_module, experiment_name)
            if name in ("table2",):
                data = experiment()
            elif name == "table3":
                data = experiment(scale=args.scale)
            else:
                data = experiment(scale=args.scale,
                                  benchmarks=tuple(args.benchmarks))
            if renderer_name is None:
                print(report_module.render_speedups(
                    data, f"{name}: speedup vs duplication"))
            else:
                renderer = getattr(report_module, renderer_name)
                print(renderer(data))
            print()
    if engine is not None:
        print(report_module.render_engine_summary(
            engine.counters, engine.failures()), file=sys.stderr)
        if engine.counters.failed:
            return EXIT_PARTIAL
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .harness.sweeps import FAILED, sweep
    engine = _make_engine(args, always=True)
    fixed = {}
    if args.parameter != "num_gpus":
        fixed["num_gpus"] = args.gpus
    values = [_parse_sweep_value(v) for v in args.values]
    with engine.activated():
        table = sweep(args.parameter, values,
                      schemes=tuple(args.schemes),
                      benchmarks=tuple(args.benchmarks), scale=args.scale,
                      baseline=args.baseline,
                      baseline_follows_sweep=not args.pinned_baseline,
                      engine=engine, **fixed)
    print(report_module.render_sweep(
        table, args.parameter,
        f"sweep {args.parameter}: speedup vs {args.baseline} "
        f"({', '.join(args.benchmarks)})"))
    print(report_module.render_engine_summary(
        engine.counters, engine.failures()), file=sys.stderr)
    salvaged = any(cell == FAILED for cells in table.values()
                   for cell in cells.values())
    return EXIT_PARTIAL if salvaged else EXIT_OK


def cmd_inspect(args) -> int:
    setup = make_setup(args.scale, num_gpus=args.gpus,
                       topology=getattr(args, "topology", None),
                       watchdog_cycles=getattr(args, "watchdog_cycles",
                                               None))
    trace = load_benchmark(args.benchmark, args.scale)
    print(f"{trace.name}: {trace.resolution}, {trace.num_draws} draws, "
          f"{trace.num_triangles} triangles")
    print("draw-size histogram:",
          triangle_histogram(trace, [8, 64, 256, 1024]))
    groups = split_into_groups(trace.frame)
    plans = plan_frame(groups, setup.config)
    summary = summarize_plan(plans)
    print(f"composition groups: {summary.total_groups} "
          f"({summary.accelerated_groups} accelerated, "
          f"{100 * summary.triangle_coverage:.1f}% triangle coverage)")
    for plan in plans:
        group = plan.group
        print(f"  group {group.index:3d}: {group.num_draws:4d} draws "
              f"{group.num_triangles:7d} tris  mode={plan.mode.value:<11} "
              f"boundary={group.boundary_reason}")
    return 0


def cmd_export(args) -> int:
    trace = load_benchmark(args.benchmark, args.scale)
    save_trace(trace, args.output)
    loaded = load_trace(args.output)
    assert loaded.num_triangles == trace.num_triangles
    print(f"wrote {args.output}: {loaded.num_draws} draws, "
          f"{loaded.num_triangles} triangles (round-trip verified)")
    return 0


def cmd_timeline(args) -> int:
    from .harness import build_scheme
    from .timing import record_timeline
    setup = _setup_from_args(args)
    trace = load_benchmark(args.benchmark, args.scale)
    with record_timeline() as timeline:
        result = build_scheme(args.scheme, setup).run(trace)
    lanes = [f"gpu{i}" for i in range(args.gpus)]
    if args.links:
        lanes = None  # all lanes, links included
    print(f"{args.scheme} on {args.benchmark}: "
          f"{result.frame_cycles:,.0f} cycles")
    print(timeline.render(width=args.width, lanes=lanes))
    return 0


def cmd_export_results(args) -> int:
    from .harness.export import collect_rows, write_csv, write_json
    setup = _setup_from_args(args)
    engine = _make_engine(args)
    with contextlib.ExitStack() as stack:
        if engine is not None:
            stack.enter_context(engine.activated())
        rows = collect_rows(args.benchmarks, args.schemes, setup)
    if args.output.endswith(".json"):
        write_json(rows, args.output)
    else:
        write_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    if engine is not None:
        print(report_module.render_engine_summary(
            engine.counters, engine.failures()), file=sys.stderr)
        if any(row["status"] == "failed" for row in rows):
            return EXIT_PARTIAL
    return EXIT_OK


def cmd_gen_trace(args) -> int:
    from .faults.traces import (TraceGenConfig, generate_trace,
                                save_failure_trace)
    setup = make_setup(args.scale, num_gpus=args.gpus,
                       topology=getattr(args, "topology", None))
    kwargs = {"seed": args.seed}
    if args.frames is not None:
        kwargs["frames"] = args.frames
    if args.frame_cycles is not None:
        kwargs["frame_cycles"] = args.frame_cycles
    for flag, key in (("link_mttf", "link_mttf_cycles"),
                      ("link_mttr", "link_mttr_cycles"),
                      ("degrade_mttf", "degrade_mttf_cycles"),
                      ("degrade_mttr", "degrade_mttr_cycles"),
                      ("gpu_mttf", "gpu_mttf_cycles"),
                      ("gpu_mttr", "gpu_mttr_cycles")):
        value = getattr(args, flag)
        if value is not None:
            # 0 disables that renewal process outright
            kwargs[key] = None if value == 0 and key.endswith("mttf_cycles") \
                else value
    gen = TraceGenConfig(**kwargs)
    trace = generate_trace(setup.config, gen)
    save_failure_trace(trace, args.output)
    topology = setup.config.link.topology
    print(f"wrote {args.output}: {len(trace.events)} events over "
          f"{gen.frames} frames of {gen.frame_cycles:,.0f} cycles")
    print(f"  fabric      : {topology}, {args.gpus} GPUs "
          f"(fingerprint {trace.fingerprint})")
    failures = sum(1 for e in trace.events if e.event == "gpu_fail")
    lossy = sum(1 for e in trace.events if e.event == "link_lossy")
    degraded = sum(1 for e in trace.events if e.event == "link_degrade")
    print(f"  episodes    : {failures} GPU fail-stops, {lossy} lossy "
          f"links, {degraded} degraded links")
    return EXIT_OK


def cmd_soak(args) -> int:
    from .faults.traces import load_failure_trace
    from .harness.engine import run_soak
    setup = make_setup(args.scale, num_gpus=args.gpus,
                       topology=getattr(args, "topology", None),
                       watchdog_cycles=getattr(args, "watchdog_cycles",
                                               None))
    trace = load_failure_trace(args.trace)
    report = run_soak(trace, args.scheme, args.benchmark, setup,
                      frames=args.frames)
    print(report_module.render_soak_report(report))
    if args.csv:
        from .harness.export import write_soak_csv
        write_soak_csv(report, args.csv)
        print(f"per-frame rows written to {args.csv}")
    return EXIT_OK if report.all_identical else EXIT_ERROR


def _group_setup(args):
    """Fault-free setup for ONE render group (serve handles faults itself)."""
    return make_setup(args.scale, num_gpus=args.gpus,
                      topology=getattr(args, "topology", None),
                      watchdog_cycles=getattr(args, "watchdog_cycles", None))


def _serve_workload(args, setup):
    """The request workload: replay ``--load`` or calibrate + generate."""
    from .serve import (LoadProfile, calibrate_service_cycles,
                        generate_workload, load_workload)
    if getattr(args, "load", None):
        # the workload file's benchmark mix and sizing win over the flags
        return load_workload(args.load)
    profile = LoadProfile(kind=args.profile, sessions=args.sessions,
                          rate_x=args.rate_x, duration_x=args.duration_x,
                          seed=args.seed)
    _, mean_cycles = calibrate_service_cycles(args.scheme, args.benchmarks,
                                              setup)
    return generate_workload(profile, args.benchmarks, mean_cycles,
                             args.groups)


def _serve_fault_events(args, pool_gpus):
    """GPU fail/repair schedule for the serving pool from --fault-plan.

    The pool is one flat GPU index space (``group * gpus_per_group +
    local``); a ``trace:`` plan must have been generated for the POOL's
    fabric (``gen-trace --gpus groups*gpus``), and its fingerprint is
    checked against that config (exit 7 on mismatch).
    """
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return ()
    from .serve import gpu_events_from_plan, gpu_events_from_trace
    if spec.startswith("trace:"):
        from .faults import load_failure_trace, validate_trace
        pool = make_setup(args.scale, num_gpus=pool_gpus,
                          topology=getattr(args, "topology", None))
        trace = load_failure_trace(spec[len("trace:"):])
        validate_trace(trace, pool.config)
        return gpu_events_from_trace(trace)
    from .faults import parse_fault_plan
    plan = parse_fault_plan(spec)
    plan.validate_for(pool_gpus)
    return gpu_events_from_plan(plan)


def cmd_serve(args) -> int:
    from .harness.export import write_serve_csv, write_serve_json
    from .serve import FrameServer, SloGates
    try:
        gates = SloGates(max_shed_rate=args.max_shed_rate,
                         max_p99_x=args.max_p99_x)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    setup = _group_setup(args)
    workload = _serve_workload(args, setup)
    fault_events = _serve_fault_events(args, args.groups * args.gpus)
    server = FrameServer(args.scheme, setup, workload,
                         groups=args.groups,
                         queue_limit=args.queue_limit,
                         policy=args.policy,
                         batch_limit=args.batch_limit,
                         retry_limit=args.retry_limit,
                         deadline_x=args.deadline_x,
                         budget_x=args.budget_x,
                         pipeline_overlap=args.pipeline_overlap,
                         fault_events=fault_events)
    report = server.serve()
    print(report_module.render_serve_report(
        report, f"serve: {args.scheme} x {args.groups} render groups "
                f"({args.gpus} GPUs each, {args.scale} scale)"))
    if args.csv:
        write_serve_csv(report, args.csv)
        print(f"serve rows written to {args.csv}")
    if args.json:
        write_serve_json(report, args.json)
        print(f"serve report written to {args.json}")
    gates.check(report)  # raises ServeOverloadError -> exit 8
    return EXIT_DEGRADED if report.degraded else EXIT_OK


def cmd_loadgen(args) -> int:
    from .serve import (LoadProfile, calibrate_service_cycles,
                        generate_workload, save_workload)
    setup = _group_setup(args)
    profile = LoadProfile(kind=args.profile, sessions=args.sessions,
                          rate_x=args.rate_x, duration_x=args.duration_x,
                          seed=args.seed)
    service_cycles, mean_cycles = calibrate_service_cycles(
        args.scheme, args.benchmarks, setup)
    workload = generate_workload(profile, args.benchmarks, mean_cycles,
                                 args.groups)
    save_workload(workload, args.output)
    print(f"wrote {args.output}: {len(workload.arrivals)} arrivals over "
          f"{workload.duration_cycles:,.0f} cycles "
          f"({profile.kind}, {profile.sessions} sessions, "
          f"{profile.rate_x}x capacity of {args.groups} groups)")
    for benchmark in args.benchmarks:
        print(f"  {benchmark:<8}: {service_cycles[benchmark]:14,.0f} "
              f"cycles/frame")
    return EXIT_OK


def _write_json_report(target: str, payload: str) -> None:
    """Write ``--json-report`` output, creating parent directories.

    Filesystem trouble (an unwritable location, a parent that is a
    file) is a configuration error — exit code 2 via the EXIT_CODES
    ladder, not a traceback.
    """
    import pathlib
    path = pathlib.Path(target)
    try:
        if path.parent != path:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write --json-report {target}: {exc}")


def cmd_lint(args) -> int:
    import pathlib

    from .analysis import (all_rule_descriptions, filter_baselined,
                           lint_paths, load_baseline, render_json,
                           render_text, save_baseline)
    if args.list_rules:
        for name, meta in all_rule_descriptions().items():
            scope = "deep" if meta.deep else "stmt"
            print(f"{name:<16} [{scope}/{meta.severity:<7}] "
                  f"{meta.description}")
        return EXIT_OK
    paths = args.paths
    if not paths:
        import repro
        paths = [pathlib.Path(repro.__file__).parent]
    for path in paths:
        if not pathlib.Path(path).exists():
            raise ConfigError(f"lint path does not exist: {path}")
    scope = None
    if args.changed:
        from .analysis.scope import changed_scope
        scope = changed_scope(paths, args.changed)
        if not scope:
            print(f"simlint: no linted files changed since "
                  f"merge-base with {args.changed}", file=sys.stderr)
            if args.json_report:
                _write_json_report(args.json_report, render_json([]) + "\n")
            return EXIT_OK
        print(f"simlint: scoped to {len(scope)} changed/dependent "
              f"file(s) vs {args.changed}", file=sys.stderr)
    findings = lint_paths(paths, deep=args.deep, scope=scope)
    if args.update_baseline:
        count = save_baseline(args.update_baseline, findings)
        print(f"simlint: baseline {args.update_baseline} written "
              f"({count} entries)")
        return EXIT_OK
    suppressed = 0
    if args.baseline:
        findings, suppressed = filter_baselined(
            findings, load_baseline(args.baseline))
    if args.json_report:
        _write_json_report(args.json_report, render_json(findings) + "\n")
    renderer = render_json if args.fmt == "json" else render_text
    print(renderer(findings))
    if suppressed and args.fmt == "text":
        print(f"simlint: {suppressed} baselined finding(s) suppressed")
    if args.fail_on == "never":
        return EXIT_OK
    if args.fail_on == "error":
        findings = [f for f in findings if f.severity == "error"]
    return EXIT_ERROR if findings else EXIT_OK


COMMANDS = {
    "render": cmd_render,
    "gen-trace": cmd_gen_trace,
    "soak": cmd_soak,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "lint": cmd_lint,
    "export-results": cmd_export_results,
    "timeline": cmd_timeline,
    "compare": cmd_compare,
    "figures": cmd_figures,
    "sweep": cmd_sweep,
    "inspect": cmd_inspect,
    "export": cmd_export,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "artifact_dir", None):
            from .render import configure_render_service
            configure_render_service(artifact_dir=args.artifact_dir)
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
