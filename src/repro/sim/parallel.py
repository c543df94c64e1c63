"""Parallel experiment engine: grid cells sharded across processes.

The paper's evaluation is a large (scheme x workload x geometry) grid
whose cells are fully independent — each builds its own cache from its
own seed and consumes an immutable trace.  :class:`ParallelRunner`
exploits that: every cell is described by a picklable :class:`CellSpec`,
executed by the module-level :func:`_execute_cell` (inline, or in a
``ProcessPoolExecutor`` worker), and the results are reassembled **by
cell index** so the output is identical to the serial path no matter
which worker finished first.

Determinism contract
--------------------
* Cell seeds are assigned in the parent before any worker starts: every
  cell receives the same ``seed`` (and, on retries, the same
  ``RetryPolicy`` reseeding schedule ``base_seed + attempt * step``)
  that the serial loop would have used, so per-worker seed derivation
  is a pure function of the cell, not of scheduling.
* Workers never share mutable state — each returns its finished
  :class:`~repro.sim.simulator.RunResult` (or structured
  :class:`~repro.sim.results.RunFailure`), and the parent stitches
  results and failure lists back in canonical cell order.
* Crash tolerance is preserved: every cell runs through
  :func:`~repro.resilience.harness.guarded_run` inside the worker, so a
  poisoned cell comes back as a ``RunFailure`` record, not a dead pool.
  A caller that must stop on failure raises on the first ``RunFailure``
  it reads back, as ``associativity_sweep`` does.
* Pool workers watch their parent: a SIGKILLed grid process cannot shut
  its pool down, so each worker exits on its own once it is orphaned.

An optional :class:`~repro.sim.cache.RunCache` short-circuits cells
whose content-addressed key already has a stored result; hits never
reach the pool at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from time import sleep
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.obs.manifest import build_manifest
from repro.obs.telemetry import (
    CellTelemetry,
    GridTelemetry,
    TelemetrySpec,
)
from repro.resilience.faults import FaultInjector, FaultPlan, InjectingCache
from repro.resilience.harness import RetryPolicy, guarded_run
from repro.sim.config import MachineConfig, RunOptions, make_scheme
from repro.sim.results import RunFailure
from repro.sim.simulator import RunResult
from repro.workloads.trace import Trace

#: One cell outcome: a finished run or a structured failure record.
CellOutcome = Union[RunResult, RunFailure]

#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.5


@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one (scheme, trace, geometry) grid cell.

    ``scheme`` is the factory name handed to
    :func:`~repro.sim.config.make_scheme`; ``label`` is the name used in
    failure records (the runner passes e.g. ``"dip@8"`` for sweep
    cells).  ``retry`` and ``watchdog_seconds`` go to
    :func:`guarded_run`, which every cell runs through.

    ``fault_plan`` (compact :class:`~repro.resilience.faults.FaultPlan`
    text, e.g. ``"sc_s:2,trace:4"``) wraps the built scheme in an
    :class:`~repro.resilience.faults.InjectingCache` seeded with the
    cell seed, so campaign grids can cross fault plans with every other
    axis; ``None`` (the default) costs nothing.

    ``options`` are the cell's :class:`~repro.sim.config.RunOptions`;
    which of them enter :func:`cell_cache_key` is decided by
    :meth:`~repro.sim.config.RunOptions.identity`.
    """

    index: int
    scheme: str
    label: str
    trace: Trace
    geometry: CacheGeometry
    seed: int
    warmup_fraction: float = 0.25
    machine: Optional[MachineConfig] = None
    retry: Optional[RetryPolicy] = None
    watchdog_seconds: Optional[float] = None
    fault_plan: Optional[str] = None
    options: RunOptions = RunOptions()


def _build_cell_cache(spec: CellSpec, seed: int):
    """Build the cell's scheme, wrapping it for fault injection if asked.

    The injector draws its schedule from the same seed as the scheme,
    so a retry-reseeded attempt gets a genuinely different fault
    schedule along with its different LFSR stream — one seed is the
    whole cell's identity.
    """
    cache = make_scheme(spec.scheme, spec.geometry, seed=seed)
    if spec.fault_plan is not None:
        plan = FaultPlan.parse(spec.fault_plan)
        injector = FaultInjector(plan, len(spec.trace), seed=seed)
        cache = InjectingCache(cache, injector)
    return cache


def _execute_cell(
    spec: CellSpec, telemetry_spec: Optional[TelemetrySpec] = None
) -> CellOutcome:
    """Run one cell; module-level so it pickles into pool workers.

    ``telemetry_spec`` is the per-run telemetry channel handed over by
    the parent :class:`ParallelRunner`; combined with the cell index it
    yields the worker-side :class:`CellTelemetry` writer (span ids are
    a pure function of the grid span and the index, so no handshake
    crosses the process boundary).
    """
    telemetry: Optional[CellTelemetry] = None
    if telemetry_spec is not None:
        telemetry = CellTelemetry(
            telemetry_spec,
            index=spec.index,
            label=spec.label,
            workload=spec.trace.name,
        )
    try:
        return guarded_run(
            lambda seed: _build_cell_cache(spec, seed),
            spec.trace,
            scheme=spec.label,
            base_seed=spec.seed,
            retry=spec.retry,
            watchdog_seconds=spec.watchdog_seconds,
            warmup_fraction=spec.warmup_fraction,
            machine=spec.machine,
            options=spec.options,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()


def cell_cache_key(spec: CellSpec) -> Optional[str]:
    """Content-addressed key of a cell, or None when it has none.

    Builds the scheme (cheap — allocation only, no simulation) and
    reuses the run manifest's deterministic ``hashed_payload`` — scheme
    class + geometry + config + trace metadata + seed + package version
    — then extends it with what the manifest hash deliberately leaves
    out but a cached *result* depends on: the raw trace content digest,
    the warm-up split, the timing-model parameters, and the run options
    that shape the stored result.  A cell whose scheme cannot even be
    built (a poisoned factory) has no key; the executor then takes the
    normal (guarded) path.
    """
    try:
        cache = make_scheme(spec.scheme, spec.geometry, seed=spec.seed)
        manifest = build_manifest(cache, spec.trace)
    except Exception:  # noqa: BLE001 — uncacheable, not fatal
        return None
    machine = spec.machine if spec.machine is not None else MachineConfig()
    payload: Dict[str, Any] = {
        "cell": manifest.hashed_payload(),
        "trace_digest": spec.trace.content_digest(),
        "warmup_fraction": spec.warmup_fraction,
        "machine": asdict(machine),
        **spec.options.identity(),
    }
    if spec.fault_plan is not None:
        # Only faulted cells carry the field, so every pre-existing
        # key (and cached entry) stays valid.
        payload["fault_plan"] = spec.fault_plan
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the worker is orphaned.

    A SIGKILLed parent never shuts its pool down, and its workers would
    block on the call queue forever.  Orphaning reparents a worker, so
    a daemon thread polls ``os.getppid()`` and leaves via ``os._exit``
    as soon as it differs from the parent the worker started under.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class CellObserver:
    """No-op base for the runner's one reporting path (DESIGN.md §9).

    The campaign journal (DESIGN.md §12) and fleet telemetry (DESIGN.md
    §11) both listen through these hooks; subclass and override what
    you need.  Callbacks run in the **parent** process, so an observer
    may keep open file handles without worrying about pickling.
    Observers must only *observe*: outcomes are byte-identical with or
    without one.
    """

    def grid_started(self, specs: Sequence[CellSpec]) -> None:
        """The grid of ``specs`` is about to run (before any cell)."""

    def cell_started(self, spec: CellSpec) -> None:
        """``spec`` is about to execute (inline) or was submitted."""

    def cell_finished(
        self,
        spec: CellSpec,
        outcome: CellOutcome,
        cached: bool,
        key: Optional[str],
    ) -> None:
        """``spec`` produced ``outcome`` (calls come in completion order).

        ``cached`` marks a run-cache hit (the cell never executed, and
        no :meth:`cell_started` preceded this call); ``key`` is the
        cell's content-addressed cache key, or None when it has none.
        """

    def grid_finished(self) -> None:
        """Last call of every grid, even one that raised."""


class ParallelRunner:
    """Shards :class:`CellSpec` cells across a process pool.

    ``max_workers=None`` (or 1) runs every cell inline in submission
    order — the serial path and the degenerate parallel path are the
    same code, which is what makes the equivalence guarantee cheap to
    maintain.  With more workers, cells run under a
    ``ProcessPoolExecutor`` and results are stitched back by index.

    Every grid and cell event goes to one observer list: ``observer``
    (a :class:`CellObserver`), plus a
    :class:`~repro.obs.telemetry.GridTelemetry` over ``telemetry_dir``
    when that is set (DESIGN.md §11).  The telemetry observer plans
    every cell, records completions and refreshes ``status.json``, and
    the runner ships its :class:`TelemetrySpec` into each worker, whose
    :class:`CellTelemetry` writes spans, heartbeats and resource
    samples.  Observers never influence outcomes: matrices are
    byte-identical with them on or off, serial or parallel.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        run_cache: Optional[Any] = None,
        telemetry_dir: Optional[Any] = None,
        observer: Optional[CellObserver] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self.run_cache = run_cache
        self.telemetry_dir = telemetry_dir
        self.observer = observer

    def run(self, specs: Sequence[CellSpec]) -> List[CellOutcome]:
        """Execute every cell; returns outcomes in ``specs`` order."""
        observers: List[Any] = []
        if self.observer is not None:
            observers.append(self.observer)
        telemetry_spec = None
        if self.telemetry_dir is not None:
            grid = GridTelemetry(self.telemetry_dir)
            observers.append(grid)
            telemetry_spec = grid.spec
        try:
            for observer in observers:
                observer.grid_started(specs)
            return self._run(specs, observers, telemetry_spec)
        finally:
            for observer in observers:
                observer.grid_finished()

    def _run(
        self,
        specs: Sequence[CellSpec],
        observers: Sequence[Any],
        telemetry_spec: Optional[TelemetrySpec],
    ) -> List[CellOutcome]:
        results: List[Optional[CellOutcome]] = [None] * len(specs)
        pending: List[tuple] = []
        run_cache = self.run_cache
        for position, spec in enumerate(specs):
            key = cell_cache_key(spec) if run_cache is not None else None
            cached = run_cache.get(key) if key is not None else None
            if cached is None:
                pending.append((position, spec, key))
                continue
            results[position] = cached
            for observer in observers:
                observer.cell_finished(spec, cached, True, key)
        for position, spec, key, outcome in self._execute(
            pending, observers, telemetry_spec
        ):
            results[position] = self._store(spec, key, outcome)
            for observer in observers:
                observer.cell_finished(spec, outcome, False, key)
        return list(results)

    def _execute(
        self,
        pending: Sequence[tuple],
        observers: Sequence[Any],
        telemetry_spec: Optional[TelemetrySpec],
    ) -> Iterator[tuple]:
        """Run ``(position, spec, key)`` cells; yield each with its outcome."""
        workers = self.max_workers
        if workers is None or workers <= 1 or len(pending) <= 1:
            for position, spec, key in pending:
                for observer in observers:
                    observer.cell_started(spec)
                yield position, spec, key, _execute_cell(spec, telemetry_spec)
            return
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_parent
        ) as pool:
            futures = {}
            for position, spec, key in pending:
                for observer in observers:
                    observer.cell_started(spec)
                future = pool.submit(_execute_cell, spec, telemetry_spec)
                futures[future] = (position, spec, key)
            for future in as_completed(futures):
                yield (*futures[future], future.result())

    def _store(
        self, spec: CellSpec, key: Optional[str], outcome: CellOutcome
    ) -> CellOutcome:
        """Persist a cacheable outcome; failures are never cached."""
        if (
            self.run_cache is not None
            and key is not None
            and isinstance(outcome, RunResult)
            and outcome.manifest is not None
            and outcome.manifest.seed == spec.seed
        ):
            # The seed guard skips retry-reseeded successes: their state
            # diverges from what the key (built from spec.seed) claims.
            self.run_cache.put(key, outcome)
        return outcome
