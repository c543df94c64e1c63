"""Tests for windowed metrics (:mod:`repro.obs.metrics`).

Covers the registry's delta/gauge sampling, the batch==scalar series
guarantee, exporters (JSONL + Prometheus text), ``run_trace`` series
attachment, run-cache round-trips, whole-trace series against a
hand-driven registry oracle, and the monotonic ``global_access`` clock
across the warm-up reset.
"""

import json

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigError
from repro.common.stats import CacheStats, counter_field_names
from repro.obs.metrics import MetricsRegistry, MetricsSeries
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim.cache import (
    RunCache,
    load_run,
    result_from_dict,
    result_to_dict,
    save_run,
)
from repro.sim.config import (
    PAPER_SCHEMES,
    ExperimentScale,
    RunOptions,
    make_scheme,
)
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(num_sets=64, associativity=16)
SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=20_000)


def small_trace(name="mcf", length=12_000, write_fraction=0.0):
    return make_benchmark_trace(
        name, num_sets=64, length=length, write_fraction=write_fraction
    )


class ScalarOnly:
    """Proxy hiding ``access_batch`` so run_trace takes the scalar path."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "access_batch":
            raise AttributeError(name)
        return getattr(self._inner, name)


def windowed(scheme, trace, window, seed=7, scalar=False, **kwargs):
    cache = make_scheme(scheme, SCALE.geometry(), seed=seed)
    if scalar:
        cache = ScalarOnly(cache)
    return run_trace(cache, trace, options=RunOptions(metrics_window=window),
                     **kwargs)


def fingerprint(series):
    return json.dumps(series.as_dict(), sort_keys=True)


class TestRegistry:
    def test_window_length_validated(self):
        with pytest.raises(ConfigError, match="window_length"):
            MetricsRegistry(window_length=0)

    def test_samples_are_counter_deltas(self):
        class FakeCache:
            def __init__(self):
                self.stats = CacheStats()

        cache = FakeCache()
        registry = MetricsRegistry(window_length=100)
        cache.stats.accesses = 100
        cache.stats.misses = 40
        registry.sample(cache, 100)
        cache.stats.accesses = 200
        cache.stats.misses = 50
        registry.sample(cache, 100)
        assert registry.series["accesses"] == [100.0, 100.0]
        assert registry.series["misses"] == [40.0, 10.0]
        assert registry.series["miss_rate"] == [0.4, 0.1]

    def test_every_counter_tracked(self):
        cache = make_scheme("stem", GEOMETRY, seed=1)
        registry = MetricsRegistry(window_length=1_000)
        trace = small_trace(length=2_000)
        for address in trace.addresses[:1000]:
            cache.access(address)
        registry.sample(cache, 1_000)
        for name in counter_field_names():
            assert name in registry.series, name

    def test_gauges_and_per_set_collected(self):
        cache = make_scheme("stem", GEOMETRY, seed=1)
        registry = MetricsRegistry(window_length=1_000)
        trace = small_trace(length=2_000)
        for address in trace.addresses:
            cache.access(address)
        registry.sample(cache, 2_000)
        for gauge in ("occupancy_fraction", "sc_s_saturation",
                      "sc_t_saturation", "giver_heap_depth",
                      "coupled_pairs", "taker_fraction"):
            assert gauge in registry.series, gauge
        rows = registry.set_series["occupancy"]
        assert len(rows) == 1
        assert len(rows[0]) == GEOMETRY.num_sets

    def test_hierarchy_is_samplable(self):
        llc = make_scheme("lru", GEOMETRY, seed=1)
        hierarchy = CacheHierarchy(llc)
        registry = MetricsRegistry(window_length=500)
        trace = small_trace(length=1_000)
        for address in trace.addresses:
            hierarchy.access(address)
        registry.sample(hierarchy, 1_000)
        assert "l1_mshr_outstanding" in registry.series
        assert "llc_write_buffer_occupancy" in registry.series
        assert registry.series["accesses"][0] > 0


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("scheme", ["lru", "dip", "stem"])
    def test_series_byte_identical(self, scheme):
        """The ISSUE's pinned contract: batch == scalar, per window."""
        trace = small_trace("mcf", 12_000, write_fraction=0.3)
        batch = windowed(scheme, trace, window=1_500)
        scalar = windowed(scheme, trace, window=1_500, scalar=True)
        assert fingerprint(batch.series) == fingerprint(scalar.series)

    def test_window_not_dividing_trace(self):
        trace = small_trace("vpr", 7_000)
        batch = windowed("stem", trace, window=1_999)
        scalar = windowed("stem", trace, window=1_999, scalar=True)
        assert fingerprint(batch.series) == fingerprint(scalar.series)

    def test_warmup_alignment(self):
        trace = small_trace("omnetpp", 10_000)
        batch = windowed("dip", trace, window=1_000,
                         warmup_fraction=0.25)
        scalar = windowed("dip", trace, window=1_000,
                          warmup_fraction=0.25, scalar=True)
        assert fingerprint(batch.series) == fingerprint(scalar.series)


class TestRunTraceSeries:
    def test_disabled_by_default(self):
        result = run_trace(
            make_scheme("lru", GEOMETRY, seed=1), small_trace(length=4_000)
        )
        assert result.series is None

    def test_series_attached_and_consistent(self):
        trace = small_trace(length=10_000)
        result = windowed("stem", trace, window=2_000,
                          warmup_fraction=0.0)
        series = result.series
        assert series.scheme == "STEM"
        assert series.trace_name == trace.name
        assert series.num_windows == 5
        assert series.window_accesses == [2_000] * 5
        # Window deltas sum back to the run totals.
        assert sum(series.series["misses"]) == result.stats.misses
        assert sum(series.series["accesses"]) == result.stats.accesses

    def test_windows_cover_measured_phase_only(self):
        trace = small_trace(length=10_000)
        result = windowed("lru", trace, window=2_500,
                          warmup_fraction=0.25)
        assert sum(result.series.window_accesses) == \
            result.measured_accesses


class TestExporters:
    def _series(self):
        return windowed("stem", small_trace(length=8_000),
                        window=2_000).series

    def test_jsonl_shape(self, tmp_path):
        series = self._series()
        path = tmp_path / "series.jsonl"
        series.save_jsonl(path)
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        header, windows = lines[0], lines[1:]
        assert header["kind"] == "header"
        assert header["num_windows"] == series.num_windows
        assert len(windows) == series.num_windows
        assert all(record["kind"] == "window" for record in windows)
        assert [w["index"] for w in windows] == list(range(len(windows)))
        assert "miss_rate" in windows[0]["values"]

    def test_prometheus_counter_and_gauge_semantics(self, tmp_path):
        series = self._series()
        path = tmp_path / "metrics.prom"
        series.save_prometheus(path)
        text = path.read_text()
        assert "# TYPE repro_misses counter" in text
        assert "# TYPE repro_miss_rate gauge" in text
        total = sum(series.series["misses"])
        assert (
            f'repro_misses{{benchmark="{series.trace_name}",'
            f'scheme="STEM"}} {format(total, ".10g")}'
        ) in text

    def test_prometheus_help_lines_per_family(self, tmp_path):
        text = self._series().to_prometheus()
        # Every family leads with HELP then TYPE then its sample.
        lines = text.splitlines()
        assert len(lines) % 3 == 0
        for offset in range(0, len(lines), 3):
            assert lines[offset].startswith("# HELP repro_")
            assert lines[offset + 1].startswith("# TYPE repro_")
            assert lines[offset + 2].startswith("repro_")

    def test_prometheus_extra_labels_merge_sorted(self):
        series = self._series()
        text = series.to_prometheus(extra_labels={"run": "abc123"})
        assert (
            f'{{benchmark="{series.trace_name}",run="abc123",'
            'scheme="STEM"}'
        ) in text

    def test_exports_are_byte_stable(self, tmp_path):
        series = self._series()
        assert series.to_jsonl() == series.to_jsonl()
        assert series.to_prometheus() == series.to_prometheus()

    def test_dict_round_trip(self):
        series = self._series()
        rebuilt = MetricsSeries.from_dict(series.as_dict())
        assert fingerprint(rebuilt) == fingerprint(series)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError):
            MetricsSeries.from_dict({"scheme": "x"})


class TestPrometheusEdgeCases:
    """Exposition-format corners: escaping, empties, non-finite values."""

    def _series(self, scheme="STEM", trace="mcf", **series):
        windows = max((len(v) for v in series.values()), default=0)
        return MetricsSeries(
            window_length=1_000,
            scheme=scheme,
            trace_name=trace,
            window_accesses=[1_000] * windows,
            series={name: list(vals) for name, vals in series.items()},
        )

    def test_empty_series_is_zero_byte_exposition(self):
        assert self._series().to_prometheus() == ""

    def test_metric_with_no_samples_is_skipped(self):
        text = self._series(
            occupancy=[0.5], empty_gauge=[]
        ).to_prometheus()
        assert "repro_occupancy" in text
        assert "empty_gauge" not in text

    def test_label_values_are_escaped(self):
        series = self._series(
            scheme='ST"EM\\x', trace="line1\nline2", occupancy=[0.5]
        )
        text = series.to_prometheus()
        assert 'scheme="ST\\"EM\\\\x"' in text
        assert 'benchmark="line1\\nline2"' in text
        # The raw newline must not split the sample across lines:
        # exactly HELP + TYPE + one sample for the one family.
        assert len(text.splitlines()) == 3

    def test_non_finite_gauges_use_prometheus_spellings(self):
        text = self._series(
            nan_gauge=[float("nan")],
            pos_gauge=[float("inf")],
            neg_gauge=[float("-inf")],
        ).to_prometheus()
        assert 'repro_nan_gauge{benchmark="mcf",scheme="STEM"} NaN' in text
        assert 'repro_pos_gauge{benchmark="mcf",scheme="STEM"} +Inf' in text
        assert 'repro_neg_gauge{benchmark="mcf",scheme="STEM"} -Inf' in text
        # Python's own spellings must not leak into the exposition.
        assert "inf\n" not in text and " nan" not in text

    def test_escaped_export_still_saves_atomically(self, tmp_path):
        series = self._series(scheme='a"b', occupancy=[1.0])
        path = tmp_path / "edge.prom"
        series.save_prometheus(path)
        assert 'scheme="a\\"b"' in path.read_text()


class TestPersistence:
    def test_run_cache_round_trips_series(self):
        result = windowed("stem", small_trace(length=8_000), window=2_000)
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.series is not None
        assert fingerprint(rebuilt.series) == fingerprint(result.series)
        assert rebuilt.stats == result.stats

    def test_save_and_load_run(self, tmp_path):
        result = windowed("dip", small_trace(length=6_000), window=1_500)
        path = tmp_path / "run.json"
        save_run(path, result)
        loaded = load_run(path)
        assert loaded.scheme == result.scheme
        assert fingerprint(loaded.series) == fingerprint(result.series)

    def test_load_run_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_run(path)
        path.write_text('{"format": 999}', encoding="utf-8")
        with pytest.raises(ConfigError, match="format"):
            load_run(path)
        with pytest.raises(ConfigError, match="cannot read"):
            load_run(tmp_path / "missing.json")

    def test_cache_key_sensitive_to_metrics_window(self):
        from dataclasses import replace

        from repro.sim.parallel import CellSpec, cell_cache_key

        trace = small_trace("vpr", 3_000)
        base = CellSpec(
            index=0, scheme="lru", label="lru", trace=trace,
            geometry=SCALE.geometry(), seed=1,
        )
        key = cell_cache_key(base)
        assert key is not None
        assert cell_cache_key(
            replace(base, options=RunOptions(metrics_window=2_000))
        ) != key

    def test_cached_grid_preserves_series(self, tmp_path):
        from repro.sim.runner import run_benchmarks

        run_cache = RunCache(tmp_path / "runs")
        kwargs = dict(
            benchmarks=["vpr"], scale=SCALE, run_cache=run_cache,
            options=RunOptions(metrics_window=2_000),
        )
        first = run_benchmarks(["stem"], **kwargs)
        assert (run_cache.hits, run_cache.misses) == (0, 1)
        second = run_benchmarks(["stem"], **kwargs)
        assert (run_cache.hits, run_cache.misses) == (1, 1)
        original = first.get("vpr", "STEM").series
        cached = second.get("vpr", "STEM").series
        assert fingerprint(cached) == fingerprint(original)


class TestTimelineRefactor:
    """Whole-trace series come from ``run_trace``; a hand-driven
    registry loop is the independent oracle."""

    @staticmethod
    def _timeline(cache, trace, window):
        return run_trace(
            cache, trace, warmup_fraction=0.0,
            options=RunOptions(metrics_window=window),
        ).series

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_timeline_matches_registry_sampling(self, scheme):
        trace = small_trace(length=6_000)
        series = self._timeline(
            make_scheme(scheme, GEOMETRY, seed=3), trace, 2_000
        )
        cache = make_scheme(scheme, GEOMETRY, seed=3)
        registry = MetricsRegistry(window_length=2_000)
        writes = trace.writes
        position = 0
        while position < len(trace.addresses):
            stop = min(position + 2_000, len(trace.addresses))
            for index in range(position, stop):
                is_write = bool(writes[index]) if writes is not None \
                    else False
                cache.access(trace.addresses[index], is_write)
            registry.sample(cache, stop - position)
            position = stop
        assert series.series == registry.series
        assert series.set_series == registry.set_series
        assert series.window_accesses == registry.window_accesses

    def test_timeline_includes_gauges(self):
        series = self._timeline(
            make_scheme("stem", GEOMETRY), small_trace(length=4_000), 1_000
        )
        assert "occupancy_fraction" in series.series
        assert series.num_windows == 4

    def test_timeline_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            self._timeline(
                make_scheme("lru", GEOMETRY), small_trace(length=1_000), 0
            )


class TestGlobalAccessClock:
    """Satellite: the warm-up reset must not rewind the event clock."""

    def test_reset_stats_preserves_global_accesses(self):
        cache = make_scheme("stem", GEOMETRY, seed=1)
        trace = small_trace(length=4_000)
        for address in trace.addresses[:2_000]:
            cache.access(address)
        assert cache.global_accesses == 2_000
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.global_accesses == 2_000
        for address in trace.addresses[2_000:]:
            cache.access(address)
        assert cache.global_accesses == 4_000

    def test_events_monotonic_across_warmup(self):
        sink = RingBufferSink()
        cache = make_scheme("stem", GEOMETRY, tracer=Tracer(sink))
        # warmup_fraction > 0 triggers reset_stats mid-stream — the old
        # `access` clock rewinds here, `global_access` must not.
        run_trace(cache, small_trace(length=12_000),
                  warmup_fraction=0.5)
        clocks = [event.global_access for event in sink.events]
        assert clocks, "expected events from a traced STEM run"
        assert all(clock >= 1 for clock in clocks)
        assert clocks == sorted(clocks)
        rewindable = [event.access for event in sink.events]
        assert rewindable != sorted(rewindable), (
            "warm-up should rewind the legacy access clock; if this "
            "stops holding, the regression guard needs a new trigger"
        )

    def test_manifest_hash_unchanged_by_clock_state(self):
        # _access_base is underscore-prefixed precisely so provenance
        # hashes ignore it; a warmed cache must hash like a fresh one.
        from repro.obs.manifest import describe_scheme

        fresh = make_scheme("stem", GEOMETRY, seed=1)
        warmed = make_scheme("stem", GEOMETRY, seed=1)
        for address in small_trace(length=1_000).addresses:
            warmed.access(address)
        warmed.reset_stats()
        description = describe_scheme(warmed)
        assert "_access_base" not in description["config"]
        assert "global_accesses" not in description["config"]
        assert description == describe_scheme(fresh)
