"""Per-run isolation: retry-with-reseed and failure capture.

:func:`guarded_run` is the crash-tolerant wrapper the experiment
runner puts around each (scheme, trace) cell: the run executes under an
optional wall-clock watchdog, an exception is retried under the
:class:`RetryPolicy`'s reseeding schedule, and a run that exhausts its
attempts is summarised as a structured
:class:`~repro.sim.results.RunFailure` instead of unwinding the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, List, Optional, Union

from repro.common.errors import ConfigError
from repro.sim.config import MachineConfig, RunOptions
from repro.sim.results import RunFailure
from repro.sim.simulator import RunResult, run_trace
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed run is retried before being recorded as a failure.

    Each attempt rebuilds the cache with a fresh seed (``base_seed +
    attempt * reseed_step``) — a transient, seed-dependent failure mode
    (e.g. a pathological LFSR interaction) gets a genuinely different
    run, while a deterministic bug fails every attempt and surfaces as
    a :class:`~repro.sim.results.RunFailure` carrying every seed tried.
    """

    max_attempts: int = 1
    reseed_step: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def seeds(self, base_seed: int) -> List[int]:
        """The scheme seeds attempted, in order."""
        return [
            base_seed + attempt * self.reseed_step
            for attempt in range(self.max_attempts)
        ]


#: The default single-attempt policy.
DEFAULT_RETRY = RetryPolicy()


def guarded_run(
    make_cache: Callable[[int], Any],
    trace: Trace,
    *,
    scheme: str,
    base_seed: int,
    retry: Optional[RetryPolicy] = None,
    watchdog_seconds: Optional[float] = None,
    warmup_fraction: float = 0.25,
    machine: Optional[MachineConfig] = None,
    options: RunOptions = RunOptions(),
    telemetry=None,
) -> Union[RunResult, RunFailure]:
    """Run one (scheme, trace) cell with isolation.

    ``make_cache`` builds a fresh cache from a seed; it is called once
    per attempt so every retry starts from pristine state.  Returns the
    :class:`RunResult` of the first successful attempt, or a
    :class:`RunFailure` describing the *last* error once the retry
    budget is exhausted.  ``KeyboardInterrupt``/``SystemExit`` are never
    swallowed.

    ``telemetry`` (a :class:`~repro.obs.telemetry.CellTelemetry`)
    reports the cell span live over the run's status-file channel: the
    start (with seed, watchdog and retry budget), each failed attempt,
    heartbeats from inside the simulation loop, and the final verdict —
    so a parent aggregator can tell a slow cell from a stalled worker
    before the watchdog deadline converts it into a RunFailure.

    ``options`` reach :func:`run_trace` unchanged on the first attempt;
    retries force the scalar oracle so a hypothetical columnar defect
    can never burn the whole retry budget on the same kernel.  (The
    exactness contract makes the paths interchangeable, so the
    downgrade is invisible in results.)  A ledgered run gets a fresh
    sink with every fresh cache; a conservation violation at seal is
    retried like any other exception and, if persistent, surfaces as a
    :class:`RunFailure` naming ``InvariantViolation``.
    """
    retry = retry if retry is not None else DEFAULT_RETRY
    seeds = retry.seeds(base_seed)
    started = perf_counter()
    last_error: Optional[BaseException] = None
    if telemetry is not None:
        telemetry.cell_start(
            total_accesses=len(trace),
            seed=base_seed,
            watchdog_seconds=watchdog_seconds,
            max_attempts=retry.max_attempts,
        )
    for attempt, seed in enumerate(seeds, start=1):
        try:
            cache = make_cache(seed)
            result = run_trace(
                cache,
                trace,
                warmup_fraction=warmup_fraction,
                machine=machine,
                deadline_seconds=watchdog_seconds,
                options=(
                    options if attempt == 1
                    else replace(options, backend="python")
                ),
                telemetry=telemetry,
            )
            if telemetry is not None:
                telemetry.cell_end("ok")
            return result
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            last_error = exc
            if telemetry is not None:
                telemetry.attempt_failed(attempt, seed, str(exc))
    # max_attempts >= 1 guarantees at least one loop pass set last_error.
    if telemetry is not None:
        telemetry.cell_end("failed", error_type=type(last_error).__name__)
    return RunFailure(
        workload=trace.name,
        scheme=scheme,
        error_type=type(last_error).__name__,
        message=str(last_error),
        attempts=len(seeds),
        seeds=tuple(seeds),
        elapsed_seconds=perf_counter() - started,
    )
