"""Tests for windowed series from ``run_trace`` and multi-seed replication."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.config import ExperimentScale, RunOptions, make_scheme
from repro.sim.replication import compare_with_confidence, replicate
from repro.sim.simulator import run_trace
from repro.workloads.mixes import phased_trace
from repro.workloads.generators import SetGroupSpec, WorkloadSpec
from repro.workloads.spec_like import make_benchmark_trace

SMALL = ExperimentScale(num_sets=32, associativity=8, trace_length=10_000)


def timeline(cache, trace, window_length):
    """Whole-trace windowed run: no warm-up, so window 0 is the cold start."""
    return run_trace(
        cache, trace, warmup_fraction=0.0,
        options=RunOptions(metrics_window=window_length),
    )


class TestTimeline:
    def test_validation(self):
        cache = make_scheme("LRU", SMALL.geometry())
        trace = make_benchmark_trace("vpr", num_sets=32, length=1000)
        with pytest.raises(ConfigError):
            timeline(cache, trace, window_length=0)

    def test_window_count_and_shape(self):
        cache = make_scheme("LRU", SMALL.geometry())
        trace = make_benchmark_trace("vpr", num_sets=32, length=2500)
        series = timeline(cache, trace, window_length=1000).series
        assert series.num_windows == 3  # 1000, 1000, 500
        assert series.window_accesses == [1000, 1000, 500]
        assert len(series.series["misses"]) == 3
        assert series.scheme == "LRU"

    def test_deltas_sum_to_totals(self):
        cache = make_scheme("STEM", SMALL.geometry())
        trace = make_benchmark_trace("mcf", num_sets=32, length=4000)
        series = timeline(cache, trace, window_length=1000).series.series
        assert sum(series["accesses"]) == len(trace)
        assert sum(series["misses"]) == cache.stats.misses
        assert sum(series["spills"]) == cache.stats.spills

    def test_cold_start_visible_in_first_window(self):
        cache = make_scheme("LRU", SMALL.geometry())
        trace = make_benchmark_trace("gromacs", num_sets=32, length=6000)
        rates = timeline(cache, trace, window_length=1000).series.series[
            "miss_rate"
        ]
        assert rates[0] > rates[-1]

    def test_phase_change_spikes_miss_rate(self):
        quiet = WorkloadSpec(
            name="q",
            groups=(SetGroupSpec(fraction=1.0, weight=1.0, kind="zipf",
                                 ws_min=4, ws_max=4),),
        )
        storm = WorkloadSpec(
            name="s",
            groups=(SetGroupSpec(fraction=1.0, weight=1.0, kind="cyclic",
                                 ws_min=24, ws_max=24),),
        )
        trace = phased_trace(
            [quiet, storm], phase_length=4000, num_sets=32
        )
        cache = make_scheme("LRU", SMALL.geometry())
        rates = timeline(cache, trace, window_length=1000).series.series[
            "miss_rate"
        ]
        # The worst window must fall in the storm phase.
        assert max(range(len(rates)), key=rates.__getitem__) >= 4

    def test_window_mpki(self):
        # Per-window misses over the prorated instruction count add up
        # to the run's MPKI when nothing is discarded as warm-up.
        cache = make_scheme("LRU", SMALL.geometry())
        trace = make_benchmark_trace("mcf", num_sets=32, length=3000)
        result = timeline(cache, trace, window_length=1000)
        ipa = trace.metadata.instructions / len(trace)
        series = result.series
        mpki = [
            misses * 1000.0 / (accesses * ipa)
            for misses, accesses in zip(
                series.series["misses"], series.window_accesses
            )
        ]
        assert len(mpki) == series.num_windows
        assert all(value >= 0 for value in mpki)
        assert sum(mpki) / len(mpki) == pytest.approx(result.mpki, rel=1e-3)


class TestReplication:
    def test_requires_seeds(self):
        with pytest.raises(ConfigError):
            replicate("LRU", "vpr", seeds=())

    def test_summary_statistics(self):
        summary = replicate("LRU", "vpr", seeds=(0, 1, 2), scale=SMALL)
        assert len(summary.values) == 3
        assert summary.mean == pytest.approx(sum(summary.values) / 3)
        assert summary.spread >= 0
        assert summary.stdev >= 0

    def test_single_seed_has_zero_stdev(self):
        summary = replicate("LRU", "vpr", seeds=(0,), scale=SMALL)
        assert summary.stdev == 0.0

    def test_same_seed_reproduces(self):
        a = replicate("STEM", "mcf", seeds=(1,), scale=SMALL)
        b = replicate("STEM", "mcf", seeds=(1,), scale=SMALL)
        assert a.values == b.values

    def test_stem_dominates_lru_on_thrash_across_seeds(self):
        stem, lru, dominates = compare_with_confidence(
            "STEM", "LRU", "mcf", seeds=(0, 1),
            scale=ExperimentScale(num_sets=32, trace_length=30_000),
        )
        assert dominates
        assert stem.mean < lru.mean
