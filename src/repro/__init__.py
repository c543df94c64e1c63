"""repro — a reproduction of "STEM: Spatiotemporal Management of
Capacity for Intra-Core Last Level Caches" (Zhan, Jiang & Seth,
MICRO 2010).

The package builds the paper's whole experimental stack in pure Python:

* :mod:`repro.core` — the STEM LLC itself (shadow-set monitors,
  saturating counters, set coupling, per-set LRU/BIP dueling);
* :mod:`repro.policies` — the temporal baselines (LRU, LIP, BIP, DIP,
  PeLIFO, …) plus Belady's OPT oracle;
* :mod:`repro.spatial` — the spatial baselines (V-Way, SBC);
* :mod:`repro.cache` — the set-associative substrate, hierarchy, DRAM;
* :mod:`repro.workloads` — synthetic and SPEC-like trace generation;
* :mod:`repro.analysis` / :mod:`repro.timing` — capacity-demand
  profiling, MPKI/AMAT/CPI models, hardware overhead accounting;
* :mod:`repro.sim` / :mod:`repro.experiments` — the runner and one
  module per paper figure/table;
* :mod:`repro.obs` — observability: typed event tracing, run
  manifests/provenance, and hot-loop profiling;
* :mod:`repro.resilience` — deterministic fault injection, safe-mode
  degradation, and the crash-tolerant run harness.

Quickstart::

    from repro import CacheGeometry, StemCache, make_benchmark_trace, run_trace

    geometry = CacheGeometry(num_sets=256, associativity=16)
    cache = StemCache(geometry)
    result = run_trace(cache, make_benchmark_trace("omnetpp"))
    print(result.mpki, result.amat, result.cpi)
"""

from repro.cache import (
    AccessKind,
    CacheGeometry,
    CacheHierarchy,
    MainMemory,
    SetAssociativeCache,
)
from repro.core import StemCache, StemConfig
from repro.obs import (
    JsonlSink,
    LedgerSink,
    NULL_TRACER,
    RingBufferSink,
    RunLedger,
    RunManifest,
    RunProfiler,
    TraceEvent,
    Tracer,
    attribute,
    build_manifest,
    load_events,
    summarize_events,
)
from repro.policies import available_policies, make_policy
from repro.resilience import FaultPlan, RetryPolicy, run_fault_campaign
from repro.sim import (
    ExperimentScale,
    PAPER_SCHEMES,
    RunOptions,
    available_schemes,
    make_scheme,
    run_benchmarks,
    run_trace,
)
from repro.spatial import SbcCache, VwayCache
from repro.workloads import (
    Trace,
    benchmark_names,
    figure2_trace,
    generate_trace,
    make_benchmark_trace,
)

from repro._version import __version__

__all__ = [
    "AccessKind",
    "CacheGeometry",
    "CacheHierarchy",
    "ExperimentScale",
    "FaultPlan",
    "JsonlSink",
    "LedgerSink",
    "MainMemory",
    "NULL_TRACER",
    "PAPER_SCHEMES",
    "RetryPolicy",
    "RingBufferSink",
    "RunLedger",
    "RunManifest",
    "RunOptions",
    "RunProfiler",
    "SbcCache",
    "SetAssociativeCache",
    "StemCache",
    "StemConfig",
    "Trace",
    "TraceEvent",
    "Tracer",
    "VwayCache",
    "attribute",
    "available_policies",
    "available_schemes",
    "benchmark_names",
    "build_manifest",
    "figure2_trace",
    "generate_trace",
    "load_events",
    "make_benchmark_trace",
    "make_policy",
    "make_scheme",
    "run_benchmarks",
    "run_fault_campaign",
    "run_trace",
    "summarize_events",
    "__version__",
]
