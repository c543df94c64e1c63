"""Fault campaigns: measure degradation instead of crashing.

:func:`run_fault_campaign` runs one (scheme, benchmark) pair three
ways on the *same* trace — fault-free, faulted under a
:class:`~repro.resilience.faults.FaultPlan` with safe mode armed, and
the plain-LRU baseline — and summarises the damage as a
:class:`CampaignReport`: MPKI deltas, safe-mode entries, and the
manifest content hashes that make two identical campaigns provably
identical.  Everything in the report is deterministic (no wall-clock,
no host details), so ``render()`` output is byte-stable for a given
(scheme, benchmark, plan, seed, scale).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.common.io import atomic_write_text
from repro.core.config import StemConfig
from repro.obs.tracer import Tracer
from repro.resilience.faults import FaultInjector, FaultPlan, InjectingCache
from repro.sim.config import ExperimentScale, make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class CampaignReport:
    """Deterministic summary of one fault campaign."""

    scheme: str
    benchmark: str
    plan: str
    seed: int
    faults_applied: int
    faults_skipped: int
    faults_by_target: Dict[str, int]
    baseline_mpki: float
    faulted_mpki: float
    lru_mpki: float
    safe_mode_entries: int
    safe_mode_sets: int
    baseline_hash: str
    faulted_hash: str

    @property
    def mpki_delta(self) -> float:
        """Faulted minus fault-free MPKI (positive = degradation)."""
        return self.faulted_mpki - self.baseline_mpki

    @property
    def mpki_delta_pct(self) -> float:
        """MPKI delta as a percentage of the fault-free run."""
        if self.baseline_mpki == 0.0:
            return 0.0
        return 100.0 * self.mpki_delta / self.baseline_mpki

    @property
    def vs_lru_pct(self) -> float:
        """Faulted MPKI relative to plain LRU, as a signed percentage."""
        if self.lru_mpki == 0.0:
            return 0.0
        return 100.0 * (self.faulted_mpki - self.lru_mpki) / self.lru_mpki

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view (derived metrics included)."""
        return {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "plan": self.plan,
            "seed": self.seed,
            "faults_applied": self.faults_applied,
            "faults_skipped": self.faults_skipped,
            "faults_by_target": dict(self.faults_by_target),
            "baseline_mpki": self.baseline_mpki,
            "faulted_mpki": self.faulted_mpki,
            "lru_mpki": self.lru_mpki,
            "mpki_delta": self.mpki_delta,
            "mpki_delta_pct": self.mpki_delta_pct,
            "vs_lru_pct": self.vs_lru_pct,
            "safe_mode_entries": self.safe_mode_entries,
            "safe_mode_sets": self.safe_mode_sets,
            "baseline_hash": self.baseline_hash,
            "faulted_hash": self.faulted_hash,
        }

    def render(self) -> str:
        """Byte-stable plain-text degradation report."""
        by_target = ", ".join(
            f"{target}={count}"
            for target, count in self.faults_by_target.items()
        ) or "none"
        lines = [
            f"fault campaign — {self.scheme} on {self.benchmark}",
            f"  plan: {self.plan}  (seed {self.seed})",
            f"  faults applied: {self.faults_applied} ({by_target})"
            + (f", skipped: {self.faults_skipped}"
               if self.faults_skipped else ""),
            f"  MPKI fault-free: {self.baseline_mpki:.3f}",
            f"  MPKI faulted:    {self.faulted_mpki:.3f}  "
            f"(delta {self.mpki_delta:+.3f}, {self.mpki_delta_pct:+.2f}%)",
            f"  MPKI plain LRU:  {self.lru_mpki:.3f}  "
            f"(faulted vs LRU {self.vs_lru_pct:+.2f}%)",
            f"  safe-mode entries: {self.safe_mode_entries} "
            f"({self.safe_mode_sets} sets degraded to LRU)",
            f"  manifest hashes: fault-free {self.baseline_hash[:16]}…  "
            f"faulted {self.faulted_hash[:16]}…",
        ]
        return "\n".join(lines)

    def save(self, path: str) -> None:
        """Write the report as JSON, atomically."""
        atomic_write_text(
            path,
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
        )


def _scheme_configuration(scheme: str) -> Dict[str, Any]:
    """Extra make_scheme kwargs arming safe mode where supported."""
    if scheme.lower() == "stem":
        return {"config": StemConfig(safe_mode=True)}
    return {}


def run_fault_campaign(
    scheme: str,
    benchmark: Union[str, Trace],
    plan: Union[str, FaultPlan],
    seed: int = 0xACE1,
    scale: Optional[ExperimentScale] = None,
    tracer: Optional[Tracer] = None,
) -> CampaignReport:
    """Run one deterministic fault campaign and summarise degradation.

    All three runs (fault-free, faulted, plain-LRU reference) execute
    with ``warmup_fraction=0.0`` so the injection schedule covers the
    entire access stream and the safe-mode statistics are never reset
    mid-run.  STEM always runs with safe mode armed.  ``benchmark`` may
    be a benchmark name or a pre-built
    :class:`~repro.workloads.trace.Trace`.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if isinstance(benchmark, Trace):
        trace = benchmark
        benchmark_name = trace.name
    else:
        benchmark_name = benchmark
        trace = make_benchmark_trace(
            benchmark, num_sets=scale.num_sets, length=scale.trace_length
        )
    geometry = scale.geometry()
    extra = _scheme_configuration(scheme)

    def run(cache):
        return run_trace(
            cache, trace, warmup_fraction=0.0, machine=scale.machine
        )

    baseline = run(make_scheme(scheme, geometry, seed=seed, **extra))
    faulted_cache = make_scheme(
        scheme, geometry, seed=seed, tracer=tracer, **extra
    )
    injector = FaultInjector(
        plan, length=len(trace), seed=seed, tracer=tracer
    )
    faulted = run(InjectingCache(faulted_cache, injector))
    lru = run(make_scheme("lru", geometry, seed=seed))

    safe_sets: Tuple[int, ...] = tuple(
        getattr(faulted_cache, "safe_mode_sets", lambda: ())()
    )
    return CampaignReport(
        scheme=baseline.scheme,
        benchmark=benchmark_name,
        plan=plan.describe(),
        seed=seed,
        faults_applied=injector.applied,
        faults_skipped=injector.skipped,
        faults_by_target=injector.counts_by_target(),
        baseline_mpki=baseline.mpki,
        faulted_mpki=faulted.mpki,
        lru_mpki=lru.mpki,
        safe_mode_entries=faulted.stats.safe_mode_entries,
        safe_mode_sets=len(safe_sets),
        baseline_hash=(
            baseline.manifest.content_hash if baseline.manifest else ""
        ),
        faulted_hash=(
            faulted.manifest.content_hash if faulted.manifest else ""
        ),
    )
