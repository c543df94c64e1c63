"""Live fleet telemetry: cross-process spans, heartbeats and samples.

A thousand-cell grid running under the
:class:`~repro.sim.parallel.ParallelRunner` used to be a black box until
the final matrix came back.  This module is the *write side* of the
control plane that fixes that: every run directory becomes a per-run
telemetry channel of append-only JSONL status files

* ``grid.jsonl`` — written by the **parent**: the grid span, one
  ``cell_plan`` record per cell (label, workload, expected accesses),
  cache hits, and completion records as workers report back;
* ``cells/cell-NNNNN.jsonl`` — written by the **worker** executing that
  cell: a cell span nested under the grid span, ``phase`` spans
  (warm-up / measured) nested under the cell, wall-clock-throttled
  heartbeats carrying a resource sample (RSS, CPU time, GC collections,
  accesses/sec), retry attempts, and the final status.

The read side — merging, stall verdicts, ETA, ``repro top`` — lives in
:mod:`repro.obs.fleet`.

Span hierarchy
--------------
``grid-<id>`` → ``grid-<id>/cell-NNNNN`` → phase (``warmup`` /
``measured``).  Cell span ids are a pure function of the grid span id
and the cell index, so the parent can describe a span (in
``cell_plan``) before any worker exists, and the worker derives the
same id from the :class:`TelemetrySpec` it was handed — no id handshake
crosses the process boundary.

Zero-overhead contract (extends DESIGN.md §10)
----------------------------------------------
Exactly like the :class:`~repro.obs.tracer.Tracer` and the metrics
registry, telemetry costs nothing unless armed: with
``telemetry=None`` (the default everywhere) the simulation loop is
byte-identical to the uninstrumented path.  When armed, the hot loop is
chunked on the same stride the watchdog already uses and the beat
callback throttles itself by wall clock, so writes happen a few times
per second regardless of simulation speed.  Telemetry never touches
scheme state, RNG draws, or statistics — results are byte-identical
with it on or off.

Crash behaviour: status files are append-only logs written through
:class:`~repro.common.io.JsonlLog`, flushed per event (not fsynced);
see :mod:`repro.common.io` for the torn-tail and one-writer rules.
"""

from __future__ import annotations

import gc
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

try:  # resource is POSIX-only; telemetry degrades gracefully without it
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.common.io import JsonlLog, read_jsonl

#: Subdirectory of the run dir holding per-cell status files.
CELLS_DIR = "cells"

#: Default wall-clock spacing between heartbeat lines.
DEFAULT_HEARTBEAT_SECONDS = 0.25

#: Seconds between the parent's ``status.json`` refreshes.
STATUS_INTERVAL = 1.0


def new_grid_span_id() -> str:
    """A fresh, process-unique grid span id."""
    return f"grid-{uuid.uuid4().hex[:10]}"


def cell_span_id(grid_span: str, index: int) -> str:
    """The cell span id for ``index`` under ``grid_span``.

    Deterministic so parent (planning) and worker (executing) name the
    same span without coordination.
    """
    return f"{grid_span}/cell-{index:05d}"


def cell_status_path(run_dir: Union[str, Path], index: int) -> Path:
    """Where cell ``index`` writes its status file."""
    return Path(run_dir) / CELLS_DIR / f"cell-{index:05d}.jsonl"


def _rss_kb() -> Optional[int]:
    """Current resident set size in KiB, or None if unknowable.

    Prefers ``/proc/self/statm`` (instantaneous) and falls back to
    ``ru_maxrss`` (high-water mark) where /proc is unavailable.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    if resource is not None:
        try:
            return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except OSError:  # pragma: no cover - getrusage basically never fails
            pass
    return None


def _gc_collections() -> int:
    """Total collections across all generations since interpreter start."""
    return sum(stat["collections"] for stat in gc.get_stats())


def resource_sample() -> Dict[str, Any]:
    """One point-in-time worker resource sample."""
    return {
        "rss_kb": _rss_kb(),
        "cpu_seconds": round(time.process_time(), 6),
        "gc_collections": _gc_collections(),
    }


@dataclass(frozen=True)
class TelemetrySpec:
    """Picklable description of the telemetry channel for one grid.

    The :class:`~repro.sim.parallel.ParallelRunner` builds one of these
    per run and ships it alongside each :class:`CellSpec` into the pool
    workers; a worker combines it with the cell index to reconstruct
    its span id and status-file path.  ``None`` (everywhere it is
    accepted) means telemetry is disabled and costs nothing.
    """

    run_dir: str
    grid_span: str
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS


class CellTelemetry(JsonlLog):
    """Worker-side status log for one grid cell.

    Emits the cell span, nested phase spans, throttled heartbeats with
    resource samples, retry attempts and the final verdict into the
    cell's status file.  Handed down ``guarded_run`` → ``run_trace`` →
    the chunked simulation loop, whose per-chunk callback is
    :meth:`beat`.
    """

    def __init__(
        self,
        spec: TelemetrySpec,
        index: int,
        label: str,
        workload: str,
    ) -> None:
        self.spec = spec
        self.index = index
        self.label = label
        self.workload = workload
        self.span_id = cell_span_id(spec.grid_span, index)
        super().__init__(cell_status_path(spec.run_dir, index))
        self._phase: Optional[str] = None
        self._last_beat_time = 0.0
        self._last_beat_accesses = 0

    def _emit(self, kind: str, **fields: Any) -> None:
        self.append({
            "kind": kind, "cell": self.index, "t": round(time.time(), 6),
            **fields,
        })

    def cell_start(
        self,
        total_accesses: int,
        seed: int,
        watchdog_seconds: Optional[float] = None,
        max_attempts: int = 1,
    ) -> None:
        """Open the cell span (one per guarded run, before attempt 1)."""
        now = time.monotonic()
        self._last_beat_time = now
        self._last_beat_accesses = 0
        self._emit(
            "cell_start",
            span_id=self.span_id,
            parent=self.spec.grid_span,
            label=self.label,
            workload=self.workload,
            pid=os.getpid(),
            total_accesses=total_accesses,
            seed=seed,
            watchdog_seconds=watchdog_seconds,
            max_attempts=max_attempts,
            **resource_sample(),
        )

    def phase_start(self, phase: str, at_access: int) -> None:
        """Open a phase span (``warmup`` / ``measured``) under the cell."""
        self._phase = phase
        self._emit("phase_start", phase=phase, accesses=at_access)

    def phase_end(self, phase: str, at_access: int) -> None:
        """Close the current phase span."""
        self._phase = None
        self._emit("phase_end", phase=phase, accesses=at_access)

    def beat(self, accesses_done: int) -> None:
        """Heartbeat from the simulation loop (called every chunk).

        Throttled by wall clock: a line is written at most every
        ``heartbeat_seconds``, carrying the absolute access position,
        the accesses/sec since the previous beat, and a resource
        sample.  The un-throttled path is one ``monotonic()`` call and
        a comparison — invisible next to a chunk of simulated accesses.
        """
        now = time.monotonic()
        elapsed = now - self._last_beat_time
        if elapsed < self.spec.heartbeat_seconds:
            return
        rate = (accesses_done - self._last_beat_accesses) / elapsed
        self._last_beat_time = now
        self._last_beat_accesses = accesses_done
        self._emit(
            "heartbeat",
            phase=self._phase,
            accesses=accesses_done,
            rate=round(rate, 1),
            **resource_sample(),
        )

    def attempt_failed(self, attempt: int, seed: int, error: str) -> None:
        """Record one failed attempt (the RetryPolicy will reseed)."""
        self._emit("attempt_failed", attempt=attempt, seed=seed, error=error)

    def cell_end(
        self, status: str, error_type: Optional[str] = None
    ) -> None:
        """Close the cell span with its final verdict (``ok``/``failed``)."""
        self._emit(
            "cell_end",
            status=status,
            error_type=error_type,
            **resource_sample(),
        )


class GridTelemetry(JsonlLog):
    """Parent-side log of the grid span and per-cell bookkeeping.

    One of the :class:`~repro.sim.parallel.ParallelRunner`'s observers
    (it answers the :class:`~repro.sim.parallel.CellObserver` hooks)
    when a run directory is supplied: it plans every cell up front (so
    ``repro top`` can show pending work before any worker starts),
    records run-cache hits and completions, and refreshes
    ``status.json`` at most every :data:`STATUS_INTERVAL` seconds.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.grid_span = new_grid_span_id()
        self.spec = TelemetrySpec(
            run_dir=str(self.run_dir), grid_span=self.grid_span
        )
        super().__init__(self.run_dir / "grid.jsonl")
        self._last_status = time.monotonic()

    def _emit(self, kind: str, **fields: Any) -> None:
        self.append({"kind": kind, "t": round(time.time(), 6), **fields})

    def _refresh_status(self, force: bool) -> None:
        from repro.obs.fleet import refresh_status  # fleet imports us

        now = time.monotonic()
        if force or now - self._last_status >= STATUS_INTERVAL:
            self._last_status = now
            refresh_status(self.run_dir)

    def grid_started(self, specs: Sequence[Any]) -> None:
        """Open the grid span and plan every cell (pending state)."""
        self._emit(
            "grid_start",
            span_id=self.grid_span,
            pid=os.getpid(),
            total_cells=len(specs),
        )
        for spec in specs:
            self.cell_plan(
                index=spec.index,
                label=spec.label,
                workload=spec.trace.name,
                total_accesses=len(spec.trace),
                watchdog_seconds=spec.watchdog_seconds,
            )

    def cell_plan(
        self,
        index: int,
        label: str,
        workload: str,
        total_accesses: int,
        watchdog_seconds: Optional[float] = None,
    ) -> None:
        """Describe one cell before execution (pending state)."""
        self._emit(
            "cell_plan",
            cell=index,
            span_id=cell_span_id(self.grid_span, index),
            label=label,
            workload=workload,
            total_accesses=total_accesses,
            watchdog_seconds=watchdog_seconds,
        )

    def cell_started(self, spec: Any) -> None:
        """Nothing to record: the worker opens the cell span itself."""

    def cell_finished(
        self, spec: Any, outcome: Any, cached: bool, key: Optional[str]
    ) -> None:
        """Record a run-cache hit or a parent-side completion."""
        from repro.sim.results import RunFailure  # sim imports obs

        if cached:
            self._emit("cell_cached", cell=spec.index)
        else:
            self._emit(
                "cell_done",
                cell=spec.index,
                status="failed" if isinstance(outcome, RunFailure) else "ok",
            )
        self._refresh_status(force=False)

    def grid_finished(self) -> None:
        """Close the grid span, write the final status and the log."""
        try:
            self._emit("grid_end", span_id=self.grid_span)
            self._refresh_status(force=True)
        finally:
            self.close()


def read_status_lines(
    path: Union[str, Path]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse one status file, skipping every unreadable line.

    Returns ``(records, truncated)``; ``truncated`` is True when any
    line was skipped — the aggregator must never crash on a live, half
    written channel.  An unreadable file reads as empty.
    """
    try:
        records, bad = read_jsonl(path)
    except OSError:
        return [], False
    return [record for _, record in records], bool(bad)
