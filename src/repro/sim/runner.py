"""Experiment runner: scheme x workload grids and associativity sweeps.

Grids are crash-tolerant: each (scheme, trace) cell runs through
:func:`~repro.resilience.harness.guarded_run`, so one poisoned cell is
recorded as a structured :class:`~repro.sim.results.RunFailure` in the
matrix while the rest of the grid completes.  An associativity sweep
runs every cell the same way and then raises for the first failed one,
because its curves must stay index-aligned with the associativities.
Retry-with-reseed and the per-run watchdog are set on campaign specs
(:mod:`repro.sim.campaign`) or on :func:`guarded_run` directly.

Every grid is expressed as a list of
:class:`~repro.sim.parallel.CellSpec` cells and executed by a
:class:`~repro.sim.parallel.ParallelRunner` — serially by default, or
sharded across a process pool with ``max_workers=N``.  Either way the
cells are assembled back in canonical (trace-major, scheme-minor)
order, so the resulting matrix is identical regardless of worker
scheduling.  An optional :class:`~repro.sim.cache.RunCache` skips
cells whose content-addressed key already holds a stored result.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.common.errors import SimulationError
from repro.sim.config import ExperimentScale, RunOptions
from repro.sim.parallel import CellOutcome, CellSpec, ParallelRunner
from repro.sim.results import ResultMatrix, RunFailure
from repro.sim.simulator import RunResult
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace
from repro.workloads.trace import Trace


def _run_cells(
    cells: Sequence[Tuple[str, str, Trace, CacheGeometry]],
    scale: ExperimentScale,
    seed: int,
    options: RunOptions,
    **runner_args: Any,
) -> List[CellOutcome]:
    """Run ``(scheme, label, trace, geometry)`` cells as one grid.

    Cells are indexed in ``cells`` order and share ``seed``,
    ``options`` and ``scale``'s warm-up and machine; ``runner_args``
    configure the :class:`ParallelRunner`.
    """
    return ParallelRunner(**runner_args).run([
        CellSpec(index=index, scheme=scheme, label=label, trace=trace,
                 geometry=geometry, seed=seed,
                 warmup_fraction=scale.warmup_fraction,
                 machine=scale.machine, options=options)
        for index, (scheme, label, trace, geometry) in enumerate(cells)
    ])


def run_matrix(
    traces: Sequence[Trace],
    schemes: Sequence[str],
    scale: Optional[ExperimentScale] = None,
    seed: int = 0xACE1,
    max_workers: Optional[int] = None,
    run_cache=None,
    options: RunOptions = RunOptions(),
    telemetry_dir=None,
) -> ResultMatrix:
    """Run every scheme on every trace at one geometry.

    A failing cell becomes a :class:`RunFailure` in ``matrix.failures``
    and the grid continues.

    ``max_workers`` > 1 shards the cells across a process pool; the
    returned matrix is identical to the serial result on the same
    seeds.  ``run_cache`` (a :class:`~repro.sim.cache.RunCache`) skips
    cells whose inputs already have a stored result.  ``telemetry_dir``
    arms the live fleet-telemetry channel over that directory — spans,
    heartbeats, ``status.json`` — without changing any outcome (see
    :class:`~repro.sim.parallel.ParallelRunner`).  ``options`` (a
    :class:`~repro.sim.config.RunOptions`) apply to every cell.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    geometry = scale.geometry()
    outcomes = _run_cells(
        [
            (scheme_name, scheme_name, trace, geometry)
            for trace in traces
            for scheme_name in schemes
        ],
        scale, seed, options, max_workers=max_workers, run_cache=run_cache,
        telemetry_dir=telemetry_dir,
    )
    matrix = ResultMatrix()
    for outcome in outcomes:
        if isinstance(outcome, RunFailure):
            matrix.add_failure(outcome)
        else:
            matrix.add(outcome)
    return matrix


def run_benchmarks(
    schemes: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0xACE1,
    max_workers: Optional[int] = None,
    run_cache=None,
    options: RunOptions = RunOptions(),
    telemetry_dir=None,
) -> ResultMatrix:
    """Run the (selected) SPEC-like benchmarks through every scheme."""
    scale = scale if scale is not None else ExperimentScale.default()
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    traces = [
        make_benchmark_trace(
            name,
            num_sets=scale.num_sets,
            length=scale.trace_length,
        )
        for name in names
    ]
    return run_matrix(traces, schemes, scale=scale, seed=seed,
                      max_workers=max_workers, run_cache=run_cache,
                      options=options, telemetry_dir=telemetry_dir)


def associativity_sweep(
    trace: Trace,
    schemes: Sequence[str],
    associativities: Sequence[int],
    scale: Optional[ExperimentScale] = None,
    seed: int = 0xACE1,
    max_workers: Optional[int] = None,
    run_cache=None,
    options: RunOptions = RunOptions(),
    telemetry_dir=None,
) -> Dict[str, List[RunResult]]:
    """MPKI-vs-associativity curves (Figures 3 and 10).

    The trace's set mapping depends only on the set count, so the same
    trace is reused across associativities — exactly how the paper
    varies capacity while holding the reference stream fixed.

    Curves stay index-aligned with ``associativities``: after the grid
    completes, the first failed cell (tagged ``scheme@assoc``) raises
    :class:`~repro.common.errors.SimulationError` carrying its
    :class:`RunFailure` summary.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    cells = [
        (scheme_name, f"{scheme_name}@{associativity}", trace,
         scale.geometry(associativity=associativity))
        for associativity in associativities
        for scheme_name in schemes
    ]
    outcomes = _run_cells(
        cells, scale, seed, options, max_workers=max_workers,
        run_cache=run_cache, telemetry_dir=telemetry_dir,
    )
    curves: Dict[str, List[RunResult]] = {name: [] for name in schemes}
    for (scheme_name, *_), outcome in zip(cells, outcomes):
        if isinstance(outcome, RunFailure):
            raise SimulationError(str(outcome))
        curves[scheme_name].append(outcome)
    return curves
