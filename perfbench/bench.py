"""Benchmark of record for the STEM simulator's evaluation grid.

Three workloads drive the paper's 15-benchmark grid through
:func:`repro.sim.runner.run_matrix` (the grid engine behind
``run_benchmarks``) and report host-time metrics; a separate serial
*traced pass* re-runs the same cells by calling each layer's public
function from here, timing every call, so the per-layer breakdown needs
no instrumentation inside ``src/``.  See ``README.md`` beside this file
for the workloads, the metrics and which layer should move which
end-to-end number.

This module holds everything except the command line (``run.py``), so
the self-tests can import it.  Importing it imports nothing from
``repro``: the runner first points ``sys.path`` at the checkout's
``src`` directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Geometry and trace length shared by all three workloads.  256 sets x
#: 16 ways is the ``repro bench`` / ``repro figure`` default geometry;
#: 20k accesses per trace keeps a 90-cell grid near three host seconds,
#: so one run measures several grids and reports their median.
NUM_SETS = 256
ASSOCIATIVITY = 16
TRACE_LENGTH = 20_000

#: The grid's default scheme seed (``run_matrix(seed=0xACE1)``); the
#: workload seed is folded in so every seed draws fresh LFSR streams.
BASE_SCHEME_SEED = 0xACE1

PAPER_SCHEMES = ("LRU", "DIP", "PeLIFO", "V-Way", "SBC", "STEM")

#: Which layer module runs each scheme (``policies``, ``spatial`` or
#: ``core``), for the per-layer run-time split.
SCHEME_LAYER = {
    "LRU": "policies", "DIP": "policies", "PeLIFO": "policies",
    "V-Way": "spatial", "SBC": "spatial", "STEM": "core",
}
CORE_COUNTS = ("shadow_hits", "spills", "cooperative_hits",
               "policy_swaps", "couplings")
SPATIAL_COUNTS = ("spills", "cooperative_hits")

#: Outcome-digest fields of a :class:`~repro.sim.simulator.RunResult`;
#: the manifest is left out because it carries host timings.
DIGEST_FIELDS = ("scheme", "trace_name", "stats", "metrics",
                 "measured_accesses", "measured_instructions")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: (min, max) entries allowed in each BENCHMARK.json list.
LIST_LIMITS = {
    "workloads": (2, 8),
    "end_to_end": (1, 16),
    "per_layer": (1, 128),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which schemes, and how the run cache is used.

    ``run_cache`` is ``None`` (no cache), ``"fresh"`` (every grid writes
    into a new empty cache) or ``"filled"`` (every grid reads a cache an
    untimed setup pass filled).
    """

    name: str
    schemes: Tuple[str, ...]
    run_cache: Optional[str]

    def unexpected_lookups(self, hits: int, misses: int) -> int:
        """Cache lookups whose outcome contradicts the workload.

        A fresh cache must only miss and a filled one must only hit.
        """
        if self.run_cache is None:
            return 0
        return misses if self.run_cache == "filled" else hits


WORKLOADS = {
    "paper-grid": Workload("paper-grid", PAPER_SCHEMES, "fresh"),
    "lru-grid": Workload("lru-grid", ("LRU",), None),
    "cached-rerun": Workload("cached-rerun", PAPER_SCHEMES, "filled"),
}


# ----------------------------------------------------------------------
# BENCHMARK.json contract
# ----------------------------------------------------------------------


def validate_spec(spec: dict) -> None:
    """Raise ValueError unless ``spec`` keeps the metric naming rules.

    Checks names (``[A-Za-z0-9_.-]``, at most 64, leading letter or
    digit, each used once), units, and how many entries each list may
    hold.
    """
    seen = set()
    for key, (low, high) in LIST_LIMITS.items():
        entries = spec.get(key)
        if not isinstance(entries, list) or not low <= len(entries) <= high:
            raise ValueError(f"{key} must list {low} to {high} entries")
        for entry in entries:
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                raise ValueError(f"bad name {name!r} in {key}")
            if name in seen:
                raise ValueError(f"name {name!r} used twice")
            seen.add(name)
            if key != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                raise ValueError(f"bad unit for {name!r}")
    if set(w["name"] for w in spec["workloads"]) != set(WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from the runner's")


# ----------------------------------------------------------------------
# Statistics and digests
# ----------------------------------------------------------------------


def tail_percentile(samples: Sequence[float]) -> Tuple[int, float]:
    """Highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles: percentile ``p`` is the ``ceil(p*n/100)``-th
    smallest sample.  Returns ``(p, value)``; when no percentile above
    the median has ten samples beyond it, the median itself is the tail
    (``p = 50``).  An empty sample set gives ``(0, 0.0)``.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        return 0, 0.0
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * count / 100)
        if count - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def outcome_digest(results: Sequence) -> str:
    """SHA-256 over the simulated outcome of each cell, in grid order.

    Covers each result's stats, metrics, measured accesses and
    instructions, scheme and trace name — nothing a host clock touches,
    so a parallel grid, a serial pass and run-cache hits of the same
    cells share one digest.  A ``None`` entry (a failed cell) hashes as
    ``null`` so it can never match a finished grid.
    """
    cells = []
    for result in results:
        if result is None:
            cells.append(None)
            continue
        payload = asdict(result)
        cells.append({name: payload[name] for name in DIGEST_FIELDS})
    canonical = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scheme_seed(seed: int) -> int:
    """The grid's scheme seed for workload seed ``seed``.

    Seed 0 keeps the grid default 0xACE1; others step through every
    non-zero 16-bit LFSR state.
    """
    return 1 + (BASE_SCHEME_SEED - 1 + seed) % 0xFFFF


def peak_rss_mib() -> float:
    """Peak RSS of this process and of its finished children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Grid inputs
# ----------------------------------------------------------------------


def scale():
    from repro.sim.config import ExperimentScale

    return ExperimentScale(num_sets=NUM_SETS, associativity=ASSOCIATIVITY,
                           trace_length=TRACE_LENGTH)


def synthesize(seed: int, timer: Optional["Spans"] = None) -> List:
    """The 15 benchmark traces for ``seed``, in paper order."""
    from repro.workloads.spec_like import benchmark_names, make_benchmark_trace

    make = make_benchmark_trace if timer is None else (
        lambda *a, **k: timer.timed("workloads.synth", make_benchmark_trace,
                                    *a, **k))
    return [
        make(name, num_sets=NUM_SETS, length=TRACE_LENGTH, seed_offset=seed)
        for name in benchmark_names()
    ]


def render_tables(matrix) -> str:
    """The MPKI/AMAT/CPI tables a ``repro bench`` user reads."""
    from repro.sim.results import format_table

    return "\n\n".join(
        format_table(matrix.metric_table(metric), matrix.schemes, title=title)
        for title, metric in (
            ("MPKI", lambda r: r.mpki),
            ("AMAT (cycles)", lambda r: r.amat),
            ("CPI", lambda r: r.cpi),
        )
    )


def grid_results(matrix, traces, schemes) -> List:
    """Cells of ``matrix`` in canonical order; ``None`` for failed ones."""
    failed = set(matrix.failed_cells())
    return [
        None if (trace.name, scheme) in failed
        else matrix.get(trace.name, scheme)
        for trace in traces for scheme in schemes
    ]


def fingerprint(load_average: Tuple[float, float, float],
                workers: int) -> Dict[str, object]:
    """Host and program facts a result may only be compared under."""
    import repro
    from repro.sim.columnar import numpy_available, resolve_backend
    from repro.sim.config import make_scheme

    geometry = scale().geometry()
    backends = {
        name: resolve_backend(None, make_scheme(name, geometry))
        for name in PAPER_SCHEMES
    }
    return {
        "python": platform.python_version(),
        "numpy": (sys.modules["numpy"].__version__ if numpy_available()
                  else "absent"),
        "nproc": available_cpus(),
        "workers": workers,
        "platform": platform.platform(),
        "repro": repro.__version__,
        "loadavg": [round(x, 2) for x in load_average],
        "backends": backends,
    }


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Timed grid (tracing off)
# ----------------------------------------------------------------------


@dataclass
class GridPass:
    """One timed grid: its wall time, outcome digest and error count."""

    wall_s: float
    cells: int
    digest: str
    failed_cells: int
    unexpected_cache: int
    tables: str


def timed_grid(workload: Workload, seed: int, workers: int,
               cache_root=None) -> GridPass:
    """Synthesize, run and render one grid the way a user does.

    The timed phase is trace synthesis + ``run_matrix`` (process pool,
    default ``auto`` backend, the optional run cache) + table
    rendering.
    """
    from repro.sim.cache import RunCache
    from repro.sim.runner import run_matrix

    run_cache = RunCache(cache_root) if cache_root is not None else None
    start = perf_counter()
    traces = synthesize(seed)
    matrix = run_matrix(traces, workload.schemes, scale=scale(),
                        seed=scheme_seed(seed), max_workers=workers,
                        run_cache=run_cache)
    tables = render_tables(matrix)
    wall = perf_counter() - start
    results = grid_results(matrix, traces, workload.schemes)
    if run_cache is not None:
        unexpected = workload.unexpected_lookups(run_cache.hits,
                                                 run_cache.misses)
    else:
        unexpected = 0
    return GridPass(
        wall_s=wall,
        cells=len(results),
        digest=outcome_digest(results),
        failed_cells=len(matrix.failures),
        unexpected_cache=unexpected,
        tables=tables,
    )


# ----------------------------------------------------------------------
# Traced pass (serial, one span per public layer call)
# ----------------------------------------------------------------------


@dataclass
class Spans:
    """Seconds per span name, timed around calls into each layer."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + perf_counter() - start)

    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class TracedPass:
    """What one serial traced pass measured."""

    wall_s: float
    spans: Spans
    results: List
    cell_seconds: List[float]
    simulated: List  # results this pass simulated (not served by the cache)
    numpy_cells: int
    cache_hits: int
    cache_misses: int
    cache_bytes: int

    @property
    def digest(self) -> str:
        return outcome_digest(self.results)


def traced_pass(workload: Workload, seed: int, cache_root=None) -> TracedPass:
    """Re-run ``workload``'s cells serially, timing each layer's call.

    Mirrors what the grid does per cell — cache key and lookup, scheme
    build, geometry split, columnar plan lowering, ``run_trace``, cache
    store — but calls each public function itself so every call gets
    its own span.  Cells are built exactly like ``run_matrix`` builds
    them, so cache keys match the timed grid's.
    """
    from repro.sim.cache import RunCache
    from repro.sim.columnar import BACKEND_NUMPY, make_engine, resolve_backend
    from repro.sim.config import make_scheme
    from repro.sim.parallel import CellSpec, cell_cache_key
    from repro.sim.results import ResultMatrix
    from repro.sim.simulator import run_trace

    grid_scale = scale()
    geometry = grid_scale.geometry()
    cell_seed = scheme_seed(seed)
    run_cache = RunCache(cache_root) if cache_root is not None else None
    spans = Spans()
    results: List = []
    simulated: List = []
    cell_seconds: List[float] = []
    numpy_cells = 0
    keys: List[str] = []

    start = perf_counter()
    traces = synthesize(seed, spans)
    if run_cache is not None:
        for trace in traces:
            spans.timed("workloads.digest", trace.content_digest)
    for trace in traces:
        for scheme in workload.schemes:
            spec = CellSpec(
                index=len(results), scheme=scheme, label=scheme,
                trace=trace, geometry=geometry, seed=cell_seed,
                warmup_fraction=grid_scale.warmup_fraction,
                machine=grid_scale.machine,
            )
            key = None
            if run_cache is not None:
                key = spans.timed("runcache.key", cell_cache_key, spec)
                keys.append(key)
                cached = spans.timed("runcache.get", run_cache.get, key)
                if cached is not None:
                    results.append(cached)
                    continue
            cell_start = perf_counter()
            cache = spans.timed("simulator.build", make_scheme, scheme,
                                geometry, seed=cell_seed)
            backend = spans.timed("simulator.build", resolve_backend,
                                  None, cache)
            if getattr(cache, "access_batch", None) is not None \
                    or backend == BACKEND_NUMPY:
                spans.timed("workloads.geometry", trace.precompute_geometry,
                            cache.mapper)
            if backend == BACKEND_NUMPY:
                numpy_cells += 1
                spans.timed("columnar.lower", make_engine, cache, trace,
                            trace.writes)
            result = spans.timed(
                f"simulator.run.{scheme}", run_trace, cache, trace,
                warmup_fraction=grid_scale.warmup_fraction,
                machine=grid_scale.machine,
            )
            cell_seconds.append(perf_counter() - cell_start)
            results.append(result)
            simulated.append(result)
            if run_cache is not None:
                spans.timed("runcache.put", run_cache.put, key, result)

    def tables() -> str:
        matrix = ResultMatrix()
        for result in results:
            matrix.add(result)
        return render_tables(matrix)

    spans.timed("report.table", tables)
    wall = perf_counter() - start
    cache_bytes = 0
    if run_cache is not None:
        cache_bytes = sum(run_cache.path_for(key).stat().st_size
                          for key in keys)
    return TracedPass(
        wall_s=wall,
        spans=spans,
        results=results,
        cell_seconds=cell_seconds,
        simulated=simulated,
        numpy_cells=numpy_cells,
        cache_hits=run_cache.hits if run_cache is not None else 0,
        cache_misses=run_cache.misses if run_cache is not None else 0,
        cache_bytes=cache_bytes,
    )


def layer_metrics(traced: TracedPass, timed_wall_s: float, workers: int,
                  error_rate: float) -> Dict[str, float]:
    """Per-layer metric values of one traced pass, by BENCHMARK.json name."""
    seconds = traced.spans.seconds

    def span(name: str) -> float:
        return seconds.get(name, 0.0)

    def rate(accesses: int, busy: float) -> float:
        return accesses / busy if busy > 0 else 0.0

    from repro.workloads.spec_like import benchmark_names

    metrics: Dict[str, float] = {}
    synth_accesses = len(benchmark_names()) * TRACE_LENGTH
    metrics["workloads.synth_s"] = span("workloads.synth")
    metrics["workloads.synth_accesses_per_s"] = rate(
        synth_accesses, span("workloads.synth"))
    metrics["workloads.geometry_s"] = span("workloads.geometry")
    metrics["workloads.digest_s"] = span("workloads.digest")
    metrics["columnar.lower_s"] = span("columnar.lower")
    metrics["columnar.cells"] = traced.numpy_cells

    for layer in ("policies", "spatial", "core"):
        schemes = [s for s, owner in SCHEME_LAYER.items() if owner == layer]
        busy = sum(span(f"simulator.run.{s}") for s in schemes)
        cells = sum(1 for r in traced.simulated if r.scheme in schemes)
        metrics[f"{layer}.run_s"] = busy
        metrics[f"{layer}.accesses_per_s"] = rate(cells * TRACE_LENGTH, busy)

    def count(schemes, field_name: str) -> int:
        return sum(getattr(r.stats, field_name) for r in traced.simulated
                   if r.scheme in schemes)

    for name in SPATIAL_COUNTS:
        metrics[f"spatial.{name}"] = count(("V-Way", "SBC"), name)
    for name in CORE_COUNTS:
        metrics[f"core.{name}"] = count(("STEM",), name)

    metrics["simulator.build_s"] = span("simulator.build")
    for scheme in PAPER_SCHEMES:
        key = scheme.lower()
        metrics[f"simulator.run_s.{key}"] = span(f"simulator.run.{scheme}")
        metrics[f"simulator.misses.{key}"] = sum(
            r.stats.misses for r in traced.results if r.scheme == scheme)
    tail_pct, tail_value = tail_percentile(traced.cell_seconds)
    metrics["simulator.cells"] = len(traced.cell_seconds)
    metrics["simulator.cell_p50_s"] = (
        statistics.median(traced.cell_seconds) if traced.cell_seconds
        else 0.0)
    metrics["simulator.cell_tail_pct"] = tail_pct
    metrics["simulator.cell_tail_s"] = tail_value

    lookups = traced.cache_hits + traced.cache_misses
    metrics["runcache.key_s"] = span("runcache.key")
    metrics["runcache.get_s"] = span("runcache.get")
    metrics["runcache.put_s"] = span("runcache.put")
    metrics["runcache.hits"] = traced.cache_hits
    metrics["runcache.misses"] = traced.cache_misses
    metrics["runcache.hit_ratio"] = (
        traced.cache_hits / lookups if lookups else 0.0)
    metrics["runcache.bytes"] = traced.cache_bytes

    metrics["parallel.efficiency"] = (
        sum(traced.cell_seconds) / (timed_wall_s * workers))
    metrics["report.table_s"] = span("report.table")
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.unattributed_s"] = traced.wall_s - traced.spans.total()
    metrics["check.error_rate"] = error_rate
    return metrics
