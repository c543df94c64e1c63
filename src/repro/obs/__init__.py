"""Observability: events, metrics, provenance, diffing and reports.

The legs of the layer (see DESIGN.md's tracepoint note, DESIGN.md §10
and the README's *Observability* section):

* **events + tracer + sinks** — a zero-overhead-when-disabled event bus.
  Every cache scheme takes an injectable :class:`Tracer` (defaulting to
  the disabled :data:`NULL_TRACER`) and emits typed events — evictions,
  spills and rejects, couplings/decouplings, policy swaps, shadow hits —
  into ring-buffer or JSONL sinks.
* **manifest** — a :class:`RunManifest` attached to every
  ``RunResult``: scheme config, trace metadata, seed, wall-clock and
  platform info, plus a content hash over the deterministic inputs.
* **profile + inspect** — phase timers aggregated by
  :class:`RunProfiler` (``--profile`` CLI flags) and event-log
  aggregations (coupling lifetimes, spill fan-out, swap cadence) behind
  the ``repro trace`` command.
* **metrics** — a :class:`MetricsRegistry` of counter deltas, derived
  rates and scheme gauges sampled on fixed access-window boundaries
  (``RunOptions(metrics_window=N)``); series export as JSONL or
  Prometheus text and ride along inside ``RunResult``.
* **diff + htmlreport** — :func:`diff_results` compares two runs into
  a byte-stable delta report; :func:`render_run_html` renders one run
  or an A/B pair as a self-contained single-file HTML dashboard.
* **ledger + explain** — :class:`LedgerSink` reduces the event stream
  online into a sealed :class:`RunLedger` of coupling episodes,
  policy-swap windows and a per-set capacity-flow account (with
  conservation invariants checked at seal); :func:`attribute`
  decomposes the hit delta between two runs into exact spatial /
  temporal / residual components (DESIGN.md §14), rendered by
  ``repro explain``.
* **telemetry + fleet** — live fleet telemetry (DESIGN.md §11): a
  per-run channel of append-only JSONL status files carrying grid →
  cell → phase spans, wall-clock-throttled heartbeats with worker
  resource samples, and retries; :func:`load_fleet` merges the channel
  into a :class:`FleetStatus` with ETA and stall verdicts, rendered by
  ``repro top`` and exported as ``status.json``.
* **benchhistory** — the append-only ``BENCH_HISTORY.jsonl`` ledger of
  throughput recordings plus :func:`detect_regressions`, the
  trajectory detector behind ``repro bench --history`` and the
  BENCH_GUARD report.
* **index + server** — the run observatory (DESIGN.md §15):
  :class:`ArtifactIndex` is an SQLite catalog that idempotently
  ingests save_run files, campaign directories and the bench ledger
  into queryable runs/campaigns/bench-sample tables, and
  :func:`create_server` serves it over stdlib HTTP — ``/healthz``,
  ``/metrics``, ``/api/status``, ``/api/runs``, ``/api/regressions``
  and the same byte-stable HTML dashboards the CLI writes.
"""

from repro.obs.events import (
    EVENT_TYPES,
    CoopHit,
    Coupling,
    Decoupling,
    Eviction,
    FaultInjected,
    PolicySwap,
    SafeModeEntry,
    ShadowHit,
    Spill,
    SpillReject,
    TraceEvent,
    event_from_dict,
)
from repro.obs.diff import MetricDelta, RunDiff, SetDivergence, diff_results
from repro.obs.explain import Attribution, SetAttribution, attribute
from repro.obs.htmlreport import (
    diff_to_html,
    explain_to_html,
    render_run_html,
)
from repro.obs.ledger import (
    CouplingEpisode,
    LedgerSink,
    RunLedger,
    SwapEpisode,
)
from repro.obs.inspect import (
    CouplingSpan,
    coupling_lifetimes,
    coupling_spans,
    event_clock,
    event_counts,
    per_set_counts,
    spill_fanout,
    summarize_events,
    swap_cadence,
)
from repro.obs.benchhistory import (
    TrajectoryVerdict,
    append_history,
    detect_regressions,
    history_document,
    load_history,
    make_entry,
    render_history,
    scheme_trajectories,
)
from repro.obs.index import (
    DEFAULT_INDEX_PATH,
    ArtifactIndex,
    IngestReport,
)
from repro.obs.server import ObservatoryServer, create_server
from repro.obs.fleet import (
    CellFleetStatus,
    FleetStatus,
    load_fleet,
    render_top,
    write_status,
)
from repro.obs.metrics import MetricsRegistry, MetricsSeries
from repro.obs.manifest import RunManifest, build_manifest, describe_scheme
from repro.obs.telemetry import (
    CellTelemetry,
    GridTelemetry,
    TelemetrySpec,
    cell_span_id,
    cell_status_path,
    read_status_lines,
    resource_sample,
)
from repro.obs.profile import ProfileRecord, RunProfiler
from repro.obs.sinks import (
    FilteredSink,
    JsonlSink,
    RingBufferSink,
    load_events,
    load_events_report,
)
from repro.obs.tracer import NULL_TRACER, Tracer, TraceSink

__all__ = [
    "DEFAULT_INDEX_PATH",
    "EVENT_TYPES",
    "ArtifactIndex",
    "Attribution",
    "CellFleetStatus",
    "CellTelemetry",
    "CoopHit",
    "Coupling",
    "CouplingEpisode",
    "CouplingSpan",
    "Decoupling",
    "Eviction",
    "FaultInjected",
    "FilteredSink",
    "FleetStatus",
    "GridTelemetry",
    "IngestReport",
    "JsonlSink",
    "LedgerSink",
    "MetricDelta",
    "MetricsRegistry",
    "MetricsSeries",
    "NULL_TRACER",
    "ObservatoryServer",
    "PolicySwap",
    "ProfileRecord",
    "RingBufferSink",
    "RunDiff",
    "RunLedger",
    "RunManifest",
    "RunProfiler",
    "SafeModeEntry",
    "SetAttribution",
    "SetDivergence",
    "ShadowHit",
    "Spill",
    "SpillReject",
    "SwapEpisode",
    "TelemetrySpec",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "TrajectoryVerdict",
    "append_history",
    "build_manifest",
    "cell_span_id",
    "cell_status_path",
    "create_server",
    "detect_regressions",
    "history_document",
    "load_fleet",
    "load_history",
    "make_entry",
    "read_status_lines",
    "render_history",
    "render_top",
    "resource_sample",
    "scheme_trajectories",
    "write_status",
    "attribute",
    "coupling_lifetimes",
    "coupling_spans",
    "describe_scheme",
    "diff_results",
    "diff_to_html",
    "event_clock",
    "explain_to_html",
    "event_counts",
    "event_from_dict",
    "load_events",
    "load_events_report",
    "per_set_counts",
    "render_run_html",
    "spill_fanout",
    "summarize_events",
    "swap_cadence",
]
