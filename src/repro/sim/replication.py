"""Multi-seed replication: mean and spread of any scheme metric.

The paper reports single deterministic runs (execution-driven
simulation); our synthetic traces have a generator seed, so a careful
reproduction should show that the headline comparisons are stable
across seeds.  :func:`replicate` runs one (scheme, benchmark) pair
under several trace seeds and returns summary statistics, and
:func:`compare_with_confidence` asks whether one scheme beats another
on every seed (``tests/test_timeline_replication.py`` exercises both;
the paper-claims tests do not use them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.sim.config import ExperimentScale, make_scheme
from repro.sim.simulator import RunResult, run_trace
from repro.workloads.spec_like import make_benchmark_trace


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean / spread of one metric across trace seeds."""

    scheme: str
    benchmark: str
    values: "tuple[float, ...]"

    @property
    def mean(self) -> float:
        """Arithmetic mean across seeds."""
        return sum(self.values) / len(self.values)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for a single seed)."""
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def spread(self) -> float:
        """max - min across seeds."""
        return max(self.values) - min(self.values)


def replicate(
    scheme: str,
    benchmark: str,
    seeds: Sequence[int] = (0, 1, 2),
    scale: Optional[ExperimentScale] = None,
    metric: Callable[[RunResult], float] = lambda r: r.mpki,
    seed: int = 0xACE1,
) -> ReplicationSummary:
    """Run one scheme on one benchmark across several trace seeds.

    ``seed`` is the *scheme* seed (the controller LFSR), threaded to
    :func:`make_scheme` exactly as :func:`~repro.sim.runner.run_matrix`
    does — ``seeds`` varies only the trace generator, so the replication
    isolates workload variance from controller randomness.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    scale = scale if scale is not None else ExperimentScale.default()
    values: List[float] = []
    for seed_offset in seeds:
        trace = make_benchmark_trace(
            benchmark,
            num_sets=scale.num_sets,
            length=scale.trace_length,
            seed_offset=seed_offset,
        )
        cache = make_scheme(scheme, scale.geometry(), seed=seed)
        result = run_trace(
            cache,
            trace,
            warmup_fraction=scale.warmup_fraction,
            machine=scale.machine,
        )
        values.append(metric(result))
    return ReplicationSummary(
        scheme=scheme, benchmark=benchmark, values=tuple(values)
    )


def compare_with_confidence(
    scheme_a: str,
    scheme_b: str,
    benchmark: str,
    seeds: Sequence[int] = (0, 1, 2),
    scale: Optional[ExperimentScale] = None,
) -> "tuple[ReplicationSummary, ReplicationSummary, bool]":
    """Replicate two schemes; True when A beats B on *every* seed.

    Per-seed pairing (same trace for both schemes) removes the workload
    variance, so "wins on every seed" is a strong, assumption-free
    ordering statement.
    """
    a = replicate(scheme_a, benchmark, seeds=seeds, scale=scale)
    b = replicate(scheme_b, benchmark, seeds=seeds, scale=scale)
    dominates = all(
        va < vb for va, vb in zip(a.values, b.values)
    )
    return a, b, dominates
