"""Windowed simulation: metric time series across a trace.

The paper's Figure 1 shows *per-interval* behaviour (1000 sampling
periods); this module provides the equivalent view for any metric of
any scheme: drive a trace through a cache in fixed-size windows and
record per-window miss rates, MPKI and the cooperative/temporal
activity counters.  Phase-change studies (``examples/
phase_adaptivity.py``, the mixes tests) read adaptation speed straight
off these series.

Since the metrics tentpole, :func:`run_timeline` is a thin driver over
:class:`~repro.obs.metrics.MetricsRegistry` — the registry owns the
counter-delta and derived-rate bookkeeping (plus any gauges the cache
publishes), and the timeline keeps its historical shape on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.stats import counter_field_names
from repro.obs.metrics import MetricsRegistry
from repro.workloads.trace import Trace

#: Counters sampled per window (deltas between window boundaries) —
#: derived from :class:`~repro.common.stats.CacheStats` so every
#: counter (spill_rejects, evictions, writebacks, misses_double_probe,
#: future additions, ...) is tracked automatically.
_TRACKED = counter_field_names()


@dataclass
class Timeline:
    """Per-window metric series for one (scheme, trace) run."""

    window_length: int
    scheme: str
    trace_name: str
    series: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def num_windows(self) -> int:
        """Number of completed windows recorded."""
        return len(self.series.get("miss_rate", []))

    def window_mpki(self, instructions_per_access: float) -> List[float]:
        """MPKI per window given the trace's instruction density."""
        return [
            misses * 1000.0
            / max(1e-12, self.window_length * instructions_per_access)
            for misses in self.series["misses"]
        ]

    def peak_window(self, metric: str = "miss_rate") -> int:
        """Index of the worst window under ``metric``."""
        values = self.series[metric]
        return max(range(len(values)), key=values.__getitem__)


def run_timeline(
    cache,
    trace: Trace,
    window_length: int = 10_000,
    with_writes: bool = True,
) -> Timeline:
    """Simulate ``trace`` on ``cache`` recording per-window series.

    Unlike :func:`repro.sim.simulator.run_trace` there is no warm-up
    discard: the first window *shows* the cold start, which is part of
    what a timeline is for.  Per-set rows are not collected here (use
    ``RunOptions(metrics_window=N)`` for the heatmap payload); the
    scalar series — counter deltas, derived rates and the cache's
    gauges — land directly in :attr:`Timeline.series`.
    """
    # The registry validates window_length (ConfigError on <= 0).
    registry = MetricsRegistry(
        window_length=window_length, include_per_set=False
    )
    scheme = getattr(cache, "name", type(cache).__name__)
    timeline = Timeline(
        window_length=window_length,
        scheme=scheme,
        trace_name=trace.name,
    )
    addresses = trace.addresses
    writes = trace.writes if with_writes else None
    access = cache.access
    position = 0
    total = len(addresses)
    while position < total:
        stop = min(position + window_length, total)
        if writes is None:
            for index in range(position, stop):
                access(addresses[index])
        else:
            for index in range(position, stop):
                access(addresses[index], writes[index])
        registry.sample(cache, stop - position)
        position = stop
    timeline.series = registry.series
    return timeline
