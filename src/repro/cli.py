"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``      simulate one scheme on one benchmark and print the metrics
             (``--window N`` adds windowed metrics; ``--save-run``,
             ``--series-jsonl`` and ``--series-prom`` export them)
``compare``  run several schemes on one benchmark side by side
``bench``    run a scheme x benchmark grid, optionally in parallel
             (``--jobs N``), with a content-addressed run cache, live
             telemetry (``--telemetry DIR``), and the bench-history
             trend view (``--history``)
``campaign`` crash-recoverable declarative campaigns: ``run SPEC``
             executes (and by default *resumes*) a journaled campaign
             directory, ``resume`` is an explicit alias, and
             ``status DIR`` replays the journal without running
             anything
``top``      live fleet view of a telemetry run directory: per-cell
             progress, worker resources, ETA, stall verdicts
             (``--once`` for a single snapshot + ``status.json``;
             ``--json`` prints the status document to stdout)
``index``    SQLite artifact catalog: ``ingest PATH...`` idempotently
             indexes save_run files, campaign directories and bench
             ledgers; ``query``/``trajectory``/``regressions`` emit
             deterministic sorted JSON
``serve``    run observatory over a run directory: ``/healthz``,
             ``/metrics``, ``/api/status``, ``/api/runs``,
             ``/api/regressions`` and byte-stable HTML dashboards on a
             stdlib HTTP server
``diff``     compare two runs — saved run files or scheme names run
             in-process — as a byte-stable delta report
``explain``  attribute the hit delta between two runs to STEM's
             spatial/temporal decisions (``--json``; ``--out`` renders
             the self-contained HTML attribution page)
``trace``    run one scheme with event tracing (JSONL log + aggregates;
             ``--kinds`` narrows the persisted log to named event kinds)
``sweep``    MPKI vs associativity for chosen schemes
``faults``   deterministic fault-injection campaign + degradation report
``profile``  Figure 1-style capacity-demand profile + classification
``report``   analysis report for one benchmark; ``--out PAGE.html``
             renders the self-contained HTML dashboard instead
``figure``   regenerate one of the paper's figures/tables by name
``overhead`` print the Table 3 storage budget
``list``     enumerate available schemes and benchmarks

``run``, ``compare`` and ``figure`` additionally take ``--profile``
(print per-phase wall-clock and accesses/sec) and ``run``/``compare``
take ``--profile-json PATH`` (write a pytest-benchmark-style report).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional

from repro.analysis.capacity_demand import profile_capacity_demand
from repro.analysis.classification import classify_trace
from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    headline,
    hierarchy_mode,
    optgap,
    table2,
    table3,
    traffic,
)
from repro.analysis.report import build_report, render_report
from repro._version import __version__
from repro.common.errors import ReproError
from repro.common.io import atomic_write_text
from repro.obs.benchhistory import (
    history_document,
    load_history,
    render_history,
)
from repro.obs.diff import diff_results
from repro.obs.events import EVENT_TYPES
from repro.obs.explain import attribute
from repro.obs.fleet import load_fleet, render_top, status_json, write_status
from repro.obs.index import DEFAULT_INDEX_PATH, ArtifactIndex
from repro.obs.server import create_server
from repro.obs.htmlreport import (
    diff_to_html,
    explain_to_html,
    render_run_html,
)
from repro.obs.profile import RunProfiler
from repro.obs.sinks import FilteredSink, JsonlSink, RingBufferSink
from repro.obs.tracer import Tracer
from repro.obs.inspect import summarize_events
from repro.resilience.campaign import run_fault_campaign
from repro.resilience.faults import FAULT_TARGETS
from repro.sim.cache import RunCache, load_run, save_run
from repro.sim.campaign import campaign_status, run_campaign
from repro.sim.columnar import BACKENDS
from repro.sim.config import (
    ExperimentScale,
    RunOptions,
    available_schemes,
    make_scheme,
)
from repro.sim.results import format_series, format_table
from repro.sim.runner import associativity_sweep, run_benchmarks
from repro.sim.simulator import RunResult, run_trace
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace

_FIGURES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "table2": table2,
    "table3": table3,
    "headline": headline,
    "ablations": ablations,
    "traffic": traffic,
    "hierarchy": hierarchy_mode,
    "optgap": optgap,
}


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sets", type=int, default=256,
                        help="number of LLC sets (default 256)")
    parser.add_argument("--assoc", type=int, default=16,
                        help="associativity (default 16)")
    parser.add_argument("--length", type=int, default=300_000,
                        help="trace length in accesses (default 300000)")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=list(BACKENDS), default="auto",
        help="simulation backend: the scalar oracle ('python'), the "
             "columnar numpy kernel ('numpy'), or pick automatically "
             "('auto', the default); results are identical either way"
    )


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase wall-clock timings and accesses/sec"
    )
    parser.add_argument(
        "--profile-json", metavar="PATH", default=None,
        help="write a pytest-benchmark-style JSON profile to PATH"
    )


def _scale_from(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        num_sets=args.sets,
        associativity=args.assoc,
        trace_length=args.length,
    )


def _finish_profile(
    args: argparse.Namespace, results: Iterable[RunResult],
    run_cache: Optional[RunCache] = None,
) -> None:
    """Shared ``--profile`` / ``--profile-json`` epilogue over ``results``."""
    if not (args.profile or args.profile_json):
        return
    profiler = RunProfiler.fold(results, run_cache)
    if args.profile:
        print(profiler.render())
    if args.profile_json:
        profiler.save_bench_json(args.profile_json)
        print(f"wrote profile report to {args.profile_json}")


def _benchmark_run(scheme: str, benchmark: str, scale: ExperimentScale,
                   options: RunOptions):
    """One in-process run of ``scheme`` on ``benchmark`` at ``scale``."""
    trace = make_benchmark_trace(
        benchmark, num_sets=scale.num_sets, length=scale.trace_length
    )
    cache = make_scheme(scheme, scale.geometry())
    return run_trace(
        cache, trace, warmup_fraction=scale.warmup_fraction, options=options
    )


def _cmd_run(args: argparse.Namespace) -> int:
    result = _benchmark_run(
        args.scheme, args.benchmark, _scale_from(args),
        RunOptions(metrics_window=args.window, backend=args.backend,
                   ledger=args.ledger),
    )
    print(f"{result.scheme} on {result.trace_name}: "
          f"MPKI={result.mpki:.3f}  AMAT={result.amat:.2f}  "
          f"CPI={result.cpi:.3f}  miss_rate={result.miss_rate:.3f}")
    if result.ledger is not None:
        summary = result.ledger.summary()
        print(f"ledger: {summary['coupling_episodes']} coupling "
              f"episode(s), {summary['policy_swaps']} policy swap(s), "
              f"{summary['lent']} way-accesses lent "
              f"({summary['spill_events']} spills, "
              f"{summary['coop_hit_events']} cooperative hits)")
    if result.series is not None:
        print(f"metrics: {result.series.num_windows} windows of "
              f"{result.series.window_length} accesses, "
              f"{len(result.series.series)} series")
        if args.series_jsonl:
            result.series.save_jsonl(args.series_jsonl)
            print(f"wrote series JSONL to {args.series_jsonl}")
        if args.series_prom:
            result.series.save_prometheus(args.series_prom)
            print(f"wrote Prometheus text to {args.series_prom}")
    if args.save_run:
        save_run(args.save_run, result)
        print(f"wrote run to {args.save_run}")
    _finish_profile(args, [result])
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    trace = make_benchmark_trace(
        args.benchmark, num_sets=scale.num_sets, length=scale.trace_length
    )
    baseline = None
    results = []
    print(f"{'scheme':>10s} {'MPKI':>9s} {'AMAT':>9s} {'CPI':>8s} "
          f"{'vs LRU':>8s}")
    for scheme in args.schemes.split(","):
        cache = make_scheme(scheme.strip(), scale.geometry())
        result = run_trace(
            cache, trace, warmup_fraction=scale.warmup_fraction
        )
        results.append(result)
        if baseline is None:
            baseline = result.mpki
        relative = result.mpki / baseline if baseline else float("nan")
        print(f"{result.scheme:>10s} {result.mpki:>9.3f} "
              f"{result.amat:>9.2f} {result.cpi:>8.3f} {relative:>8.3f}")
    _finish_profile(args, results)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.history:
        history = load_history(args.history_file)
        if args.json:
            # Machine-readable verdicts so CI can gate on trajectory:
            # exit 3 when any scheme regressed versus its recent best.
            document = history_document(history)
            print(json.dumps(document, indent=2, sort_keys=True))
            return 3 if document["regressed"] else 0
        print(render_history(history), end="")
        return 0
    scale = _scale_from(args)
    schemes = [s.strip() for s in args.schemes.split(",")]
    benchmarks = (
        [b.strip() for b in args.benchmarks.split(",")]
        if args.benchmarks else None
    )
    run_cache = None
    if not args.no_run_cache:
        run_cache = RunCache(args.run_cache)
    matrix = run_benchmarks(
        schemes,
        benchmarks=benchmarks,
        scale=scale,
        max_workers=args.jobs,
        run_cache=run_cache,
        telemetry_dir=args.telemetry,
        options=RunOptions(backend=args.backend),
    )
    table = matrix.metric_table(lambda result: result.mpki)
    print(format_table(table, matrix.schemes, title="MPKI"))
    for failure in matrix.failures:
        print(f"FAILED {failure.scheme} on {failure.workload}: "
              f"{failure.error_type}: {failure.message}")
    if run_cache is not None:
        print(f"run cache ({run_cache.root}): {run_cache.hits} hit(s), "
              f"{run_cache.misses} miss(es), {len(run_cache)} stored")
    if args.telemetry:
        print(f"telemetry written to {args.telemetry} "
              f"(watch with: repro top {args.telemetry})")
    _finish_profile(args, matrix.results(), run_cache)
    return 1 if matrix.failures else 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    outcome = run_campaign(
        args.spec,
        directory=args.dir,
        jobs=args.jobs,
        fresh=args.fresh,
        run_cache_dir=args.run_cache,
        telemetry_dir=args.telemetry,
        index_db=args.index,
    )
    print(f"campaign {outcome.spec.name}: {outcome.total_cells} cells — "
          f"{outcome.executed} executed, {outcome.resumed} resumed from "
          f"the journal, {len(outcome.quarantined)} quarantined")
    for entry in outcome.quarantined:
        print(f"QUARANTINED cell {entry.cell:05d} {entry.cell_id}: "
              f"{entry.failure.error_type}: {entry.failure.message}")
    for label in ("matrix", "summary", "report"):
        print(f"wrote {outcome.outputs[label]}")
    if args.telemetry:
        print(f"telemetry written to {args.telemetry} "
              f"(watch with: repro top {args.telemetry})")
    _finish_profile(args, outcome.matrix.results(), outcome.run_cache)
    return 1 if outcome.quarantined else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    print(campaign_status(args.dir), end="")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"repro top: no telemetry directory at {run_dir}",
              file=sys.stderr)
        return 2

    def snapshot() -> tuple:
        status = load_fleet(run_dir, stall_after=args.stall_after)
        write_status(run_dir, status)
        return status, render_top(status)

    if args.json:
        # The status.json document on stdout, no file round-trip — the
        # scriptable twin of --once (same schema, same exit-3 contract).
        status = load_fleet(run_dir, stall_after=args.stall_after)
        print(status_json(status), end="")
        return 3 if status.stalled_cells else 0
    if args.once:
        status, rendered = snapshot()
        print(rendered, end="")
        print(f"wrote {run_dir / 'status.json'}")
        return 3 if status.stalled_cells else 0
    # Refreshing view: redraw until the grid is finished (or ^C).  The
    # aggregator only reads, so watching a live grid from another
    # terminal is safe.
    try:
        while True:
            status, rendered = snapshot()
            sys.stdout.write("\x1b[2J\x1b[H" + rendered)
            sys.stdout.flush()
            if status.finished:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
    return 0


def _open_index(args: argparse.Namespace) -> ArtifactIndex:
    return ArtifactIndex(args.db)


def _cmd_index_ingest(args: argparse.Namespace) -> int:
    with _open_index(args) as index:
        report = index.ingest(*args.paths)
    print(report.render(), end="")
    return 0


def _print_json(document) -> int:
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    with _open_index(args) as index:
        return _print_json(index.runs(
            scheme=args.scheme,
            benchmark=args.benchmark,
            since=args.since,
        ))


def _cmd_index_trajectory(args: argparse.Namespace) -> int:
    with _open_index(args) as index:
        return _print_json(index.trajectory(args.scheme, args.benchmark))


def _cmd_index_regressions(args: argparse.Namespace) -> int:
    with _open_index(args) as index:
        return _print_json(
            index.regressions(window=args.window, ratio=args.ratio)
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"repro serve: no run directory at {run_dir}",
              file=sys.stderr)
        return 2
    index: Optional[ArtifactIndex] = None
    if args.db is not None:
        index = ArtifactIndex(args.db)
        index.ingest(run_dir)
    server = create_server(
        run_dir,
        host=args.host,
        port=args.port,
        index=index,
        stall_after=args.stall_after,
    )

    def _terminate(signum, frame) -> None:
        raise KeyboardInterrupt

    # SIGTERM (CI teardown, process managers) shuts down as cleanly as
    # ^C: close the socket, exit 0.
    previous = signal.signal(signal.SIGTERM, _terminate)
    print(f"repro observatory serving {run_dir} "
          f"on http://{args.host}:{server.port}/", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        server.index.close()
    return 0


def _parse_kinds(raw: Optional[str]) -> Optional[frozenset]:
    """Validate a ``--kinds`` CSV against the registered event kinds."""
    if raw is None:
        return None
    kinds = frozenset(
        token.strip() for token in raw.split(",") if token.strip()
    )
    unknown = sorted(kinds - set(EVENT_TYPES))
    if unknown:
        raise ReproError(
            f"unknown event kind(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(EVENT_TYPES))}"
        )
    if not kinds:
        raise ReproError("--kinds needs at least one event kind")
    return kinds


def _cmd_trace(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    kinds = _parse_kinds(args.kinds)
    trace = make_benchmark_trace(
        args.benchmark, num_sets=scale.num_sets, length=scale.trace_length
    )
    ring = RingBufferSink(capacity=args.buffer)
    # The filter sits between tracer and sinks: emission (and the
    # cache's clocks/stats) is untouched, only what is kept narrows.
    tracer = Tracer(FilteredSink(ring, kinds) if kinds else ring)
    jsonl: Optional[JsonlSink] = None
    if args.events:
        jsonl = JsonlSink(args.events)
        tracer.add_sink(
            FilteredSink(jsonl, kinds) if kinds else jsonl
        )
    cache = make_scheme(args.scheme, scale.geometry(), tracer=tracer)
    # No warm-up discard: the event log should keep a monotonic access
    # clock (reset_stats would rewind it mid-stream).
    result = run_trace(cache, trace, warmup_fraction=0.0)
    tracer.close()
    print(f"{result.scheme} on {result.trace_name}: "
          f"MPKI={result.mpki:.3f}  AMAT={result.amat:.2f}  "
          f"CPI={result.cpi:.3f}  miss_rate={result.miss_rate:.3f}")
    print(f"{tracer.events_emitted} events emitted "
          f"({ring.dropped} beyond the ring buffer)")
    if kinds:
        print(f"kinds filter: {', '.join(sorted(kinds))} "
              f"({ring.total_recorded} kept)")
    print(summarize_events(ring.events))
    if jsonl is not None:
        print(f"wrote {jsonl.total_recorded} events to {jsonl.path}")
    if args.manifest and result.manifest is not None:
        print(json.dumps(result.manifest.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    trace = make_benchmark_trace(
        args.benchmark, num_sets=scale.num_sets, length=scale.trace_length
    )
    associativities = [int(a) for a in args.associativities.split(",")]
    schemes = [s.strip() for s in args.schemes.split(",")]
    curves = associativity_sweep(trace, schemes, associativities, scale=scale)
    series = {
        scheme: [result.mpki for result in results]
        for scheme, results in curves.items()
    }
    print(format_series(
        series, associativities,
        x_label="scheme\\assoc",
        title=f"MPKI vs associativity — {args.benchmark}",
        precision=2,
    ))
    return 0


#: Default campaign: a spread of counter, tag, table, heap and bus faults.
_DEFAULT_FAULT_PLAN = "sc_s:2,sc_t:2,shadow:4,association:1,heap:2,trace:4"


def _cmd_faults(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    tracer: Optional[Tracer] = None
    jsonl: Optional[JsonlSink] = None
    if args.events:
        jsonl = JsonlSink(args.events)
        tracer = Tracer(jsonl)
    report = run_fault_campaign(
        args.scheme,
        args.benchmark,
        plan=args.plan,
        seed=args.seed,
        scale=scale,
        tracer=tracer,
    )
    if tracer is not None:
        tracer.close()
    print(report.render())
    if jsonl is not None:
        print(f"wrote {jsonl.total_recorded} events to {jsonl.path}")
    if args.json:
        report.save(args.json)
        print(f"wrote campaign report to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    trace = make_benchmark_trace(
        args.benchmark, num_sets=scale.num_sets, length=scale.trace_length
    )
    profile = profile_capacity_demand(
        trace,
        num_sets=scale.num_sets,
        interval_length=max(1, scale.trace_length // 8),
    )
    print(f"capacity-demand bands for {args.benchmark}:")
    for band, fraction in profile.mean_distribution().items():
        if fraction > 0.005:
            print(f"  {str(band):>10s}: {fraction:6.1%}")
    result = classify_trace(
        trace, num_sets=scale.num_sets, associativity=scale.associativity
    )
    print(f"classification: Class {result.label} "
          f"(givers {result.giver_fraction:.1%}, "
          f"takers {result.taker_fraction:.1%}, "
          f"thrash {result.thrash_fraction:.1%})")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    windowed = RunOptions(metrics_window=args.window)

    def resolve(operand: str):
        # A path to a saved run wins; anything else is a scheme name
        # simulated in-process on --benchmark at the current scale.
        if Path(operand).is_file():
            return load_run(operand)
        return _benchmark_run(operand, args.benchmark, scale, windowed)

    diff = diff_results(resolve(args.a), resolve(args.b), top_k=args.top_k)
    rendered = diff.render()
    if args.json:
        atomic_write_text(
            Path(args.json),
            json.dumps(diff.as_dict(), indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote diff JSON to {args.json}")
    if args.out:
        atomic_write_text(Path(args.out), rendered)
        print(f"wrote diff report to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    scale = _scale_from(args)

    def resolve(operand: str):
        # Same operand contract as 'repro diff': a saved-run path wins,
        # anything else runs in-process (with a ledger, so the temporal
        # component and per-set rows are available).
        if Path(operand).is_file():
            return load_run(operand)
        return _benchmark_run(
            operand, args.benchmark, scale, RunOptions(ledger=True)
        )

    attribution = attribute(resolve(args.a), resolve(args.b))
    rendered = attribution.render(top_k=args.top_k)
    if args.json:
        atomic_write_text(
            Path(args.json),
            json.dumps(
                attribution.as_dict(), indent=2, sort_keys=True
            ) + "\n",
        )
        print(f"wrote explain JSON to {args.json}")
    if args.out:
        atomic_write_text(Path(args.out), explain_to_html(attribution))
        print(f"wrote explain HTML to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    if not args.out:
        # Legacy surface: the plain-text analysis report on stdout.
        report = build_report(args.benchmark, scale=scale)
        print(render_report(report))
        return 0
    windowed = RunOptions(metrics_window=args.window)
    run_a = _benchmark_run(args.scheme, args.benchmark, scale, windowed)
    if args.vs:
        run_b = _benchmark_run(args.vs, args.benchmark, scale, windowed)
        html = diff_to_html(run_a, run_b)
    else:
        html = render_run_html(run_a)
    atomic_write_text(Path(args.out), html)
    print(f"wrote HTML report to {args.out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    module = _FIGURES[args.name]
    start = time.perf_counter()
    module.main()
    if args.profile:
        print(f"figure {args.name}: "
              f"{time.perf_counter() - start:.3f}s wall-clock")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    table3.main()
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("schemes:    " + ", ".join(available_schemes()))
    print("benchmarks: " + ", ".join(benchmark_names()))
    print("figures:    " + ", ".join(sorted(_FIGURES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STEM (MICRO 2010) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="simulate one scheme on one benchmark"
    )
    run_parser.add_argument("scheme")
    run_parser.add_argument("benchmark", choices=benchmark_names())
    run_parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="sample windowed metrics every N accesses"
    )
    run_parser.add_argument(
        "--save-run", metavar="PATH", default=None,
        help="save the full run (stats, metrics, series) as JSON"
    )
    run_parser.add_argument(
        "--ledger", action="store_true",
        help="seal a capacity-flow ledger into the run (rides along in "
             "--save-run files; input to 'repro explain')"
    )
    run_parser.add_argument(
        "--series-jsonl", metavar="PATH", default=None,
        help="export the windowed series as JSONL (needs --window)"
    )
    run_parser.add_argument(
        "--series-prom", metavar="PATH", default=None,
        help="export Prometheus-style text metrics (needs --window)"
    )
    _add_scale_arguments(run_parser)
    _add_backend_argument(run_parser)
    _add_profile_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    compare_parser = commands.add_parser(
        "compare", help="run several schemes side by side"
    )
    compare_parser.add_argument("benchmark", choices=benchmark_names())
    compare_parser.add_argument(
        "--schemes", default="LRU,DIP,PeLIFO,V-Way,SBC,STEM"
    )
    _add_scale_arguments(compare_parser)
    _add_profile_arguments(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    bench_parser = commands.add_parser(
        "bench",
        help="scheme x benchmark grid with parallelism and run caching",
    )
    bench_parser.add_argument(
        "--schemes", default="lru,dip,stem",
        help="comma-separated scheme list (default lru,dip,stem)"
    )
    bench_parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark list (default: all)"
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="shard grid cells across N worker processes"
    )
    bench_parser.add_argument(
        "--run-cache", metavar="DIR", default=".repro-run-cache",
        help="content-addressed run cache directory "
             "(default .repro-run-cache)"
    )
    bench_parser.add_argument(
        "--no-run-cache", action="store_true",
        help="always simulate; do not read or write the run cache"
    )
    bench_parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write live fleet telemetry (spans, heartbeats, "
             "status.json) to DIR; watch it with 'repro top DIR'"
    )
    bench_parser.add_argument(
        "--history", action="store_true",
        help="print the bench-history trend view and exit "
             "(no simulation)"
    )
    bench_parser.add_argument(
        "--history-file", metavar="PATH", default="BENCH_HISTORY.jsonl",
        help="bench-history ledger location "
             "(default BENCH_HISTORY.jsonl)"
    )
    bench_parser.add_argument(
        "--json", action="store_true",
        help="with --history: print machine-readable regression "
             "verdicts (exit 3 when any scheme regressed)"
    )
    _add_scale_arguments(bench_parser)
    _add_backend_argument(bench_parser)
    _add_profile_arguments(bench_parser)
    bench_parser.set_defaults(handler=_cmd_bench)

    campaign_parser = commands.add_parser(
        "campaign",
        help="crash-recoverable declarative campaigns (run/resume/status)",
        description=(
            "A campaign spec (JSON; TOML on Python 3.11+) names "
            "benchmark sets, schemes, geometries, seeds and optional "
            "fault plans; the cross product runs through the parallel "
            "engine with every cell journaled to campaign.jsonl.  "
            "'run' resumes by default — kill it anywhere and run it "
            "again; completed cells are served from the run cache and "
            "the final artefacts are byte-identical to an "
            "uninterrupted run."
        ),
    )
    campaign_commands = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )
    for verb, verb_help in (
        ("run", "run (resuming by default) a campaign spec"),
        ("resume", "alias of run: resume an interrupted campaign"),
    ):
        verb_parser = campaign_commands.add_parser(verb, help=verb_help)
        verb_parser.add_argument("spec", help="campaign spec file")
        verb_parser.add_argument(
            "--dir", metavar="DIR", default=None,
            help="campaign state directory "
                 "(default: <spec stem>.campaign beside the spec)"
        )
        verb_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="shard cells across N worker processes"
        )
        verb_parser.add_argument(
            "--fresh", action="store_true",
            help="discard the journal and quarantine reports and "
                 "start over (the run cache is kept)"
        )
        verb_parser.add_argument(
            "--run-cache", metavar="DIR", default=None,
            help="run cache directory (default: runcache/ inside the "
                 "campaign directory)"
        )
        verb_parser.add_argument(
            "--telemetry", metavar="DIR", default=None,
            help="write live fleet telemetry to DIR "
                 "(watch with 'repro top DIR')"
        )
        verb_parser.add_argument(
            "--index", metavar="DB", default=None,
            help="ingest the finished campaign into this observatory "
                 "index database (see 'repro index')"
        )
        _add_profile_arguments(verb_parser)
        verb_parser.set_defaults(handler=_cmd_campaign_run)
    status_parser = campaign_commands.add_parser(
        "status", help="replay a campaign journal without running"
    )
    status_parser.add_argument(
        "dir", help="campaign state directory (holds campaign.jsonl)"
    )
    status_parser.set_defaults(handler=_cmd_campaign_status)

    top_parser = commands.add_parser(
        "top",
        help="live fleet view of a telemetry run directory",
        description=(
            "Merge a run directory's telemetry channel (grid.jsonl + "
            "cells/*.jsonl) into a live view: per-cell progress, "
            "worker RSS/CPU/GC, accesses/sec, ETA, and stall verdicts "
            "for workers whose heartbeats stopped.  Each snapshot also "
            "refreshes the machine-readable status.json.  Exit code 3 "
            "flags a stalled worker under --once."
        ),
    )
    top_parser.add_argument(
        "run_dir", help="telemetry directory (see bench --telemetry)"
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit instead of refreshing"
    )
    top_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval for the live view (default 2.0)"
    )
    top_parser.add_argument(
        "--stall-after", type=float, default=5.0, metavar="SECONDS",
        help="heartbeat age that flags a running cell as stalled "
             "(default 5.0)"
    )
    top_parser.add_argument(
        "--json", action="store_true",
        help="print the status.json document to stdout (no file "
             "round-trip; exit 3 flags a stalled worker)"
    )
    top_parser.set_defaults(handler=_cmd_top)

    index_parser = commands.add_parser(
        "index",
        help="SQLite artifact catalog over runs, campaigns and bench "
             "history",
        description=(
            "One queryable index over the repository's observability "
            "artifacts.  'ingest' is idempotent (re-ingesting the same "
            "artifacts changes zero rows) and tolerates torn journal "
            "tails; the query verbs emit deterministic sorted JSON."
        ),
    )
    index_commands = index_parser.add_subparsers(
        dest="index_command", required=True
    )

    def _add_db_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db", metavar="PATH", default=DEFAULT_INDEX_PATH,
            help=f"index database (default {DEFAULT_INDEX_PATH})"
        )

    ingest_parser = index_commands.add_parser(
        "ingest",
        help="index save_run files, campaign dirs and bench ledgers",
    )
    ingest_parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="save_run JSON file, campaign directory, bench-history "
             "JSONL ledger, or a directory to scan for those"
    )
    _add_db_argument(ingest_parser)
    ingest_parser.set_defaults(handler=_cmd_index_ingest)

    query_parser = index_commands.add_parser(
        "query", help="list indexed runs as sorted JSON"
    )
    query_parser.add_argument(
        "--scheme", default=None,
        help="filter by scheme name (case-insensitive)"
    )
    query_parser.add_argument(
        "--benchmark", default=None, help="filter by benchmark name"
    )
    query_parser.add_argument(
        "--since", metavar="ISO8601", default=None,
        help="only runs ingested at or after this timestamp"
    )
    _add_db_argument(query_parser)
    query_parser.set_defaults(handler=_cmd_index_query)

    trajectory_parser = index_commands.add_parser(
        "trajectory",
        help="one (scheme, benchmark) pair's runs in ingestion order",
    )
    trajectory_parser.add_argument("scheme")
    trajectory_parser.add_argument("benchmark")
    _add_db_argument(trajectory_parser)
    trajectory_parser.set_defaults(handler=_cmd_index_trajectory)

    regressions_parser = index_commands.add_parser(
        "regressions",
        help="trajectory verdicts over the indexed bench samples",
    )
    regressions_parser.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="trailing reference window (default 5)"
    )
    regressions_parser.add_argument(
        "--ratio", type=float, default=0.8, metavar="R",
        help="latest/reference ratio that flags a regression "
             "(default 0.8)"
    )
    _add_db_argument(regressions_parser)
    regressions_parser.set_defaults(handler=_cmd_index_regressions)

    serve_parser = commands.add_parser(
        "serve",
        help="HTTP observatory over a run directory (stdlib only)",
        description=(
            "Serve /healthz, /metrics (Prometheus exposition with "
            "run/scheme/benchmark labels), /api/status (live fleet "
            "state), /api/runs, /api/regressions and byte-stable HTML "
            "dashboards over a run directory.  Without --db the "
            "directory is ingested into an ephemeral in-memory index "
            "at startup."
        ),
    )
    serve_parser.add_argument(
        "run_dir", help="run directory to serve (artifacts + telemetry)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321,
        help="bind port; 0 picks an ephemeral port (default 8321)"
    )
    serve_parser.add_argument(
        "--db", metavar="PATH", default=None,
        help="serve this persistent index database instead of an "
             "in-memory one (the run directory is still ingested)"
    )
    serve_parser.add_argument(
        "--stall-after", type=float, default=5.0, metavar="SECONDS",
        help="heartbeat age that flags a running cell as stalled "
             "(default 5.0)"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    diff_parser = commands.add_parser(
        "diff",
        help="compare two runs (saved run files or scheme names)",
        description=(
            "Each operand is either a run file saved by "
            "'repro run --save-run' or a scheme name simulated "
            "in-process on --benchmark.  The report is byte-stable: "
            "identical inputs render identical bytes."
        ),
    )
    diff_parser.add_argument("a", help="run file or scheme name (A)")
    diff_parser.add_argument("b", help="run file or scheme name (B)")
    diff_parser.add_argument(
        "--benchmark", default="mcf", choices=benchmark_names(),
        help="benchmark for scheme-name operands (default mcf)"
    )
    diff_parser.add_argument(
        "--window", type=int, default=10_000, metavar="N",
        help="metrics window for in-process runs (default 10000)"
    )
    diff_parser.add_argument(
        "--top-k", type=int, default=8, metavar="K",
        help="diverging sets to list (default 8)"
    )
    diff_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the structured diff as JSON to PATH"
    )
    diff_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the text report to PATH instead of stdout"
    )
    _add_scale_arguments(diff_parser)
    diff_parser.set_defaults(handler=_cmd_diff)

    explain_parser = commands.add_parser(
        "explain",
        help="attribute a hit delta to spatial/temporal decisions",
        description=(
            "Decompose the hit delta between two runs into the paper's "
            "Figure 6 components: spatial (cooperative hits in "
            "borrowed space), temporal (hits under a swapped insertion "
            "policy) and residual — summing exactly to the total, "
            "globally and per set.  Operands follow 'repro diff': a "
            "saved run file (ideally from 'repro run --ledger "
            "--save-run') or a scheme name run in-process with a "
            "ledger.  Output is byte-stable."
        ),
    )
    explain_parser.add_argument("a", help="run file or scheme name (A)")
    explain_parser.add_argument("b", help="run file or scheme name (B)")
    explain_parser.add_argument(
        "--benchmark", default="mcf", choices=benchmark_names(),
        help="benchmark for scheme-name operands (default mcf)"
    )
    explain_parser.add_argument(
        "--top-k", type=int, default=8, metavar="K",
        help="diverging sets to list in the text report (default 8)"
    )
    explain_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the structured attribution as JSON to PATH"
    )
    explain_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the self-contained HTML attribution page to PATH "
             "instead of printing the text report"
    )
    _add_scale_arguments(explain_parser)
    explain_parser.set_defaults(handler=_cmd_explain)

    trace_parser = commands.add_parser(
        "trace", help="run one scheme with event tracing"
    )
    trace_parser.add_argument("scheme")
    trace_parser.add_argument("benchmark", choices=benchmark_names())
    trace_parser.add_argument(
        "--events", metavar="PATH", default=None,
        help="write the event log as JSONL to PATH"
    )
    trace_parser.add_argument(
        "--buffer", type=int, default=None, metavar="N",
        help="keep only the last N events for the printed summary"
    )
    trace_parser.add_argument(
        "--kinds", metavar="K1,K2,...", default=None,
        help="keep only these event kinds in the summary and JSONL log "
             f"(known: {', '.join(sorted(EVENT_TYPES))})"
    )
    trace_parser.add_argument(
        "--manifest", action="store_true",
        help="also print the run manifest as JSON"
    )
    _add_scale_arguments(trace_parser)
    trace_parser.set_defaults(handler=_cmd_trace)

    sweep_parser = commands.add_parser(
        "sweep", help="MPKI vs associativity"
    )
    sweep_parser.add_argument("benchmark", choices=benchmark_names())
    sweep_parser.add_argument("--schemes", default="LRU,DIP,SBC,STEM")
    sweep_parser.add_argument(
        "--associativities", default="2,4,8,12,16,24,32"
    )
    _add_scale_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    faults_parser = commands.add_parser(
        "faults",
        help="run a deterministic fault-injection campaign",
        description=(
            "Inject faults from a plan (targets: "
            + ", ".join(FAULT_TARGETS)
            + "; syntax target[:count][@start[-stop]], comma-separated) "
            "and report the degradation versus the fault-free run."
        ),
    )
    faults_parser.add_argument("scheme")
    faults_parser.add_argument("benchmark", choices=benchmark_names())
    faults_parser.add_argument(
        "--plan", default=_DEFAULT_FAULT_PLAN,
        help=f"fault plan (default {_DEFAULT_FAULT_PLAN!r})"
    )
    faults_parser.add_argument(
        "--seed", type=int, default=0xACE1,
        help="campaign seed: scheme LFSR + fault schedule (default 0xACE1)"
    )
    faults_parser.add_argument(
        "--events", metavar="PATH", default=None,
        help="write fault/safe-mode events as JSONL to PATH"
    )
    faults_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the campaign report as JSON to PATH"
    )
    _add_scale_arguments(faults_parser)
    faults_parser.set_defaults(handler=_cmd_faults)

    profile_parser = commands.add_parser(
        "profile", help="capacity-demand profile + classification"
    )
    profile_parser.add_argument("benchmark", choices=benchmark_names())
    _add_scale_arguments(profile_parser)
    profile_parser.set_defaults(handler=_cmd_profile)

    report_parser = commands.add_parser(
        "report",
        help="analysis report; --out renders the HTML dashboard",
    )
    report_parser.add_argument("benchmark", choices=benchmark_names())
    report_parser.add_argument(
        "--scheme", default="stem",
        help="scheme for the HTML dashboard (default stem)"
    )
    report_parser.add_argument(
        "--vs", metavar="SCHEME", default=None,
        help="render an A/B dashboard against this scheme"
    )
    report_parser.add_argument(
        "--window", type=int, default=10_000, metavar="N",
        help="metrics window for the dashboard run (default 10000)"
    )
    report_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write a self-contained HTML report to PATH "
             "(without it, print the legacy text report)"
    )
    _add_scale_arguments(report_parser)
    report_parser.set_defaults(handler=_cmd_report)

    figure_parser = commands.add_parser(
        "figure", help="regenerate a paper figure/table"
    )
    figure_parser.add_argument("name", choices=sorted(_FIGURES))
    figure_parser.add_argument(
        "--profile", action="store_true",
        help="print the figure's total wall-clock time"
    )
    figure_parser.set_defaults(handler=_cmd_figure)

    overhead_parser = commands.add_parser(
        "overhead", help="print the Table 3 storage budget"
    )
    overhead_parser.set_defaults(handler=_cmd_overhead)

    list_parser = commands.add_parser(
        "list", help="enumerate schemes, benchmarks and figures"
    )
    list_parser.set_defaults(handler=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (bad configuration, malformed traces/files, watchdog
    timeouts, ...) are reported as one ``repro: error:`` line on stderr
    with exit code 2 — never a bare traceback; an interrupt exits 130.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
