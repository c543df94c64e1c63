"""Windowed metrics: counters and gauges sampled on access windows.

The paper's dynamics (Figure 1, §3) are told in fixed-length sampling
intervals, not end-of-run totals.  :class:`MetricsRegistry` is the
metrics surface for them: it is driven *externally* at access-window
boundaries and, at each boundary, records

* the per-window delta of every :class:`~repro.common.stats.CacheStats`
  counter (misses, spills, shadow hits, ... — derived from the
  dataclass, so new counters are tracked automatically);
* derived per-window rates (miss rate, shadow-hit rate, spill accept
  rate);
* instantaneous **gauges** published by the cache through an optional
  ``metrics_gauges()`` method (occupancy fraction, SC_S/SC_T
  saturation, giver-heap depth, coupling population, MSHR and
  write-buffer occupancy, ...);
* optional **per-set** rows from ``metrics_per_set()`` (the occupancy
  histogram behind the HTML report's heatmap).

Zero-overhead contract
----------------------
Like :class:`~repro.obs.tracer.Tracer`, metrics cost nothing unless
asked for: no cache ever calls into this module from its access path.
Sampling is driven by the one simulation driver, ``run_trace(...,
options=RunOptions(metrics_window=N))``, which simply stops the
simulation loop at window boundaries and calls
:meth:`MetricsRegistry.sample`; ``warmup_fraction=0.0`` keeps the cold
start in the first window.  With ``metrics_window=None`` (the
default) the hot loop is byte-identical to the uninstrumented path.
Because every ``access_batch`` fast path flushes its locally
accumulated statistics at chunk boundaries — and the harness aligns
chunks with windows — batch and scalar execution produce identical
series (DESIGN.md §10).

The finished series travels as a :class:`MetricsSeries` attached to
``RunResult.series``, round-trips through the run cache, and exports
as JSONL or Prometheus-style text via ``common/io.atomic_write``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.errors import ConfigError
from repro.common.io import atomic_write
from repro.common.stats import counter_field_names

#: Derived per-window rates appended to every sample.
DERIVED_RATES = ("miss_rate", "shadow_hit_rate", "spill_accept_rate")


def _format_value(value: float) -> str:
    """Deterministic short decimal form for text exports.

    Non-finite samples use the spellings the Prometheus text format
    defines (``NaN``, ``+Inf``, ``-Inf``) rather than Python's.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".10g")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help_text(value: str) -> str:
    """Escape ``# HELP`` text per the Prometheus exposition format."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


#: Hand-written HELP text for the derived rates; counters and gauges
#: get uniform generated text.
_HELP_OVERRIDES = {
    "miss_rate": "Misses over accesses in the final sampled window.",
    "shadow_hit_rate": "Shadow-directory hits over misses in the final "
                       "sampled window.",
    "spill_accept_rate": "Accepted spills over offered spills in the "
                         "final sampled window.",
}


def _help_text(name: str, kind: str) -> str:
    """Deterministic one-line HELP text for one metric family."""
    override = _HELP_OVERRIDES.get(name)
    if override is not None:
        return override
    if kind == "counter":
        return (
            f"Sum of per-window deltas of the '{name}' counter over "
            "the measured phase."
        )
    return f"Final sampled value of the '{name}' gauge."


@dataclass
class MetricsSeries:
    """Per-window metric series for one (scheme, trace) run.

    ``series`` maps metric name to one value per completed window
    (counter deltas, derived rates and gauges share the namespace;
    gauge names are chosen not to collide with counter fields).
    ``set_series`` maps a per-set metric name (e.g. ``occupancy``) to
    one row per window, each row holding one value per cache set.
    """

    window_length: int
    scheme: str
    trace_name: str
    window_accesses: List[int] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    set_series: Dict[str, List[List[int]]] = field(default_factory=dict)

    @property
    def num_windows(self) -> int:
        """Number of completed windows recorded."""
        return len(self.window_accesses)

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view (inverse of :meth:`from_dict`)."""
        return {
            "window_length": self.window_length,
            "scheme": self.scheme,
            "trace_name": self.trace_name,
            "window_accesses": list(self.window_accesses),
            "series": {name: list(vals) for name, vals in self.series.items()},
            "set_series": {
                name: [list(row) for row in rows]
                for name, rows in self.set_series.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsSeries":
        """Rebuild a series stored by :meth:`as_dict`."""
        try:
            return cls(
                window_length=payload["window_length"],
                scheme=payload["scheme"],
                trace_name=payload["trace_name"],
                window_accesses=list(payload["window_accesses"]),
                series={
                    name: list(vals)
                    for name, vals in payload["series"].items()
                },
                set_series={
                    name: [list(row) for row in rows]
                    for name, rows in payload.get("set_series", {}).items()
                },
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed metrics series payload: {exc}") from exc

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One header line plus one JSON object per window."""
        lines = [json.dumps(
            {
                "kind": "header",
                "scheme": self.scheme,
                "trace": self.trace_name,
                "window_length": self.window_length,
                "num_windows": self.num_windows,
            },
            sort_keys=True,
        )]
        names = sorted(self.series)
        for index in range(self.num_windows):
            lines.append(json.dumps(
                {
                    "kind": "window",
                    "index": index,
                    "accesses": self.window_accesses[index],
                    "values": {
                        name: self.series[name][index] for name in names
                    },
                },
                sort_keys=True,
            ))
        return "\n".join(lines) + "\n"

    def to_prometheus(
        self, extra_labels: Optional[Dict[str, str]] = None
    ) -> str:
        """Prometheus-style exposition text over the whole run.

        Counter metrics report the window-delta sum (the measured-phase
        total); everything else is a gauge reporting its final sample.
        Every metric family carries ``# HELP`` and ``# TYPE`` lines and
        ``scheme``/``benchmark`` labels (``extra_labels`` — e.g. the
        observatory's ``run`` hash — are merged in, rendered in sorted
        label order).  Label values are escaped per the exposition
        format, non-finite gauges render as ``NaN``/``+Inf``/``-Inf``,
        and a series with no recorded windows produces an empty
        (zero-byte) exposition.
        """
        counters = set(counter_field_names())
        label_items = {
            "scheme": self.scheme,
            "benchmark": self.trace_name,
        }
        if extra_labels:
            label_items.update(extra_labels)
        labels = "{" + ",".join(
            f'{name}="{_escape_label_value(str(value))}"'
            for name, value in sorted(label_items.items())
        ) + "}"
        lines: List[str] = []
        for name in sorted(self.series):
            values = self.series[name]
            if not values:
                continue
            if name in counters:
                kind, value = "counter", float(sum(values))
            else:
                kind, value = "gauge", float(values[-1])
            metric = f"repro_{name}"
            lines.append(
                f"# HELP {metric} {_escape_help_text(_help_text(name, kind))}"
            )
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric}{labels} {_format_value(value)}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"

    def save_jsonl(self, path: Union[str, Path]) -> None:
        """Atomically write :meth:`to_jsonl` output to ``path``."""
        with atomic_write(Path(path)) as handle:
            handle.write(self.to_jsonl())

    def save_prometheus(self, path: Union[str, Path]) -> None:
        """Atomically write :meth:`to_prometheus` output to ``path``."""
        with atomic_write(Path(path)) as handle:
            handle.write(self.to_prometheus())


class MetricsRegistry:
    """Samples a cache's counters/gauges at access-window boundaries.

    The registry never touches the cache between samples; the driving
    loop runs ``window_length`` accesses, then calls :meth:`sample`
    with the number of accesses the window actually held (the final
    window of a trace may be short).
    """

    def __init__(self, window_length: int = 10_000) -> None:
        if window_length <= 0:
            raise ConfigError(
                f"window_length must be positive, got {window_length}"
            )
        self.window_length = window_length
        self._tracked = counter_field_names()
        self._previous: Dict[str, int] = {name: 0 for name in self._tracked}
        self.window_accesses: List[int] = []
        self.series: Dict[str, List[float]] = {
            name: [] for name in self._tracked
        }
        for name in DERIVED_RATES:
            self.series[name] = []
        self.set_series: Dict[str, List[List[int]]] = {}

    def sample(self, cache: Any, window_accesses: int) -> None:
        """Close one window: record counter deltas, rates and gauges."""
        snapshot = cache.stats.counter_snapshot()
        series = self.series
        previous = self._previous
        deltas: Dict[str, int] = {}
        for name in self._tracked:
            current = snapshot[name]
            delta = current - previous[name]
            previous[name] = current
            deltas[name] = delta
            series[name].append(delta)
        misses = deltas["misses"]
        series["miss_rate"].append(misses / max(1, deltas["accesses"]))
        series["shadow_hit_rate"].append(
            deltas["shadow_hits"] / max(1, misses)
        )
        offered = deltas["spills"] + deltas["spill_rejects"]
        series["spill_accept_rate"].append(
            deltas["spills"] / max(1, offered)
        )
        gauges = getattr(cache, "metrics_gauges", None)
        if gauges is not None:
            for name, value in gauges().items():
                series.setdefault(name, []).append(value)
        per_set = getattr(cache, "metrics_per_set", None)
        if per_set is not None:
            for name, row in per_set().items():
                self.set_series.setdefault(name, []).append(list(row))
        self.window_accesses.append(window_accesses)

    def to_series(self, scheme: str, trace_name: str) -> MetricsSeries:
        """Freeze the recorded samples into a :class:`MetricsSeries`."""
        return MetricsSeries(
            window_length=self.window_length,
            scheme=scheme,
            trace_name=trace_name,
            window_accesses=list(self.window_accesses),
            series={name: list(vals) for name, vals in self.series.items()},
            set_series={
                name: [list(row) for row in rows]
                for name, rows in self.set_series.items()
            },
        )
