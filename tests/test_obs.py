"""Tests for the observability layer (:mod:`repro.obs`).

Covers the event bus end to end: typed events and their JSONL
round-trip, sink semantics, tracer fan-out, the zero-overhead-when-
disabled guarantee, run manifests (hash stability and seed
sensitivity), the inspection aggregates, and the profiler report.
"""

import json
import re

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cli import main
from repro.common.errors import ConfigError
from repro.common.stats import CacheStats, counter_field_names
from repro.core.stem_cache import StemCache
from repro.obs import (
    NULL_TRACER,
    JsonlSink,
    RingBufferSink,
    Tracer,
    build_manifest,
    load_events,
    summarize_events,
)
from repro.obs.events import (
    EVENT_TYPES,
    Coupling,
    Decoupling,
    Eviction,
    FaultInjected,
    PolicySwap,
    SafeModeEntry,
    ShadowHit,
    Spill,
    SpillReject,
    event_from_dict,
)
from repro.obs.inspect import (
    coupling_lifetimes,
    coupling_spans,
    event_clock,
    event_counts,
    per_set_counts,
    spill_fanout,
    swap_cadence,
)
from repro.obs.manifest import describe_scheme
from repro.obs.profile import RunProfiler
from repro.sim.config import make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(num_sets=64, associativity=16)

SAMPLE_EVENTS = [
    Eviction(access=10, set_index=3, tag=0xBEEF, dirty=True,
             cooperative=False),
    Spill(access=11, set_index=3, giver=7, tag=0xCAFE, dirty=False),
    SpillReject(access=12, set_index=3, giver=7, tag=0xF00D),
    Coupling(access=13, set_index=3, giver=7),
    Decoupling(access=40, set_index=3, giver=7),
    PolicySwap(access=50, set_index=9, mode="BIP"),
    ShadowHit(access=60, set_index=9, signature=0x5A),
]


@pytest.fixture(scope="module")
def traced_run():
    """One STEM run on omnetpp with a full in-memory event log."""
    sink = RingBufferSink()
    tracer = Tracer(sink)
    cache = make_scheme("STEM", GEOMETRY, tracer=tracer)
    trace = make_benchmark_trace("omnetpp", num_sets=64, length=30_000)
    result = run_trace(cache, trace, warmup_fraction=0.0)
    return cache, trace, result, sink, tracer


class TestEvents:
    def test_registry_covers_all_kinds(self):
        assert set(EVENT_TYPES) == {
            "eviction", "spill", "spill_reject", "coupling",
            "coop_hit", "decoupling", "policy_swap", "shadow_hit",
            "fault_injected", "safe_mode",
        }

    def test_as_dict_tags_kind(self):
        record = SAMPLE_EVENTS[0].as_dict()
        assert record["kind"] == "eviction"
        assert record["access"] == 10
        assert record["set_index"] == 3
        assert record["dirty"] is True

    @pytest.mark.parametrize("event", SAMPLE_EVENTS,
                             ids=lambda e: e.kind)
    def test_dict_round_trip(self, event):
        assert event_from_dict(event.as_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown event kind"):
            event_from_dict({"kind": "meltdown", "access": 0,
                             "set_index": 0})

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            SAMPLE_EVENTS[0].access = 99


class TestTracer:
    def test_disabled_without_sinks(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit(SAMPLE_EVENTS[0])  # silently dropped
        assert tracer.events_emitted == 0

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled

    def test_add_sink_enables(self):
        tracer = Tracer()
        tracer.add_sink(RingBufferSink())
        assert tracer.enabled

    def test_fan_out_to_all_sinks(self):
        first, second = RingBufferSink(), RingBufferSink()
        tracer = Tracer(first, second)
        for event in SAMPLE_EVENTS:
            tracer.emit(event)
        assert tracer.events_emitted == len(SAMPLE_EVENTS)
        assert first.events == second.events == SAMPLE_EVENTS


class TestRingBufferSink:
    def test_capacity_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for event in SAMPLE_EVENTS:
            sink.record(event)
        assert len(sink) == 3
        assert sink.events == SAMPLE_EVENTS[-3:]
        assert sink.total_recorded == len(SAMPLE_EVENTS)
        assert sink.dropped == len(SAMPLE_EVENTS) - 3

    def test_clear_keeps_total(self):
        sink = RingBufferSink()
        sink.record(SAMPLE_EVENTS[0])
        sink.clear()
        assert len(sink) == 0
        assert sink.total_recorded == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_round_trip_typed_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for event in SAMPLE_EVENTS:
                sink.record(event)
        loaded = load_events(path)
        assert loaded == SAMPLE_EVENTS
        assert all(type(a) is type(b)
                   for a, b in zip(loaded, SAMPLE_EVENTS))

    def test_record_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "e.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ConfigError, match="closed"):
            sink.record(SAMPLE_EVENTS[0])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "eviction", "access": 1\n')
        with pytest.raises(ConfigError, match="malformed"):
            load_events(path)


class TestLiveTracing:
    def test_multiple_event_kinds_observed(self, traced_run):
        _, _, _, sink, _ = traced_run
        kinds = set(event_counts(sink.events))
        assert len(kinds) >= 3
        assert "eviction" in kinds

    def test_event_counts_match_stats_counters(self, traced_run):
        """Each tracepoint mirrors its CacheStats counter exactly."""
        cache, _, _, sink, _ = traced_run
        counts = event_counts(sink.events)
        stats = cache.stats
        assert counts.get("eviction", 0) == stats.evictions
        assert counts.get("spill", 0) == stats.spills
        assert counts.get("spill_reject", 0) == stats.spill_rejects
        assert counts.get("coupling", 0) == stats.couplings
        assert counts.get("decoupling", 0) == stats.decouplings
        assert counts.get("policy_swap", 0) == stats.policy_swaps
        assert counts.get("shadow_hit", 0) == stats.shadow_hits

    def test_tracing_does_not_change_metrics(self, traced_run):
        """An attached tracer must be metric-invisible."""
        traced_cache, trace, traced_result, _, _ = traced_run
        plain = make_scheme("STEM", GEOMETRY)
        plain_result = run_trace(plain, trace, warmup_fraction=0.0)
        assert plain.stats.as_dict() == traced_cache.stats.as_dict()
        assert plain_result.mpki == traced_result.mpki
        assert plain_result.amat == traced_result.amat
        assert plain_result.cpi == traced_result.cpi

    def test_access_clock_is_monotonic(self, traced_run):
        _, _, _, sink, _ = traced_run
        clocks = [event.access for event in sink.events]
        assert clocks == sorted(clocks)


class TestNoOpOverhead:
    def test_default_tracer_emits_nothing(self):
        cache = StemCache(GEOMETRY)
        assert cache.tracer is NULL_TRACER
        trace = make_benchmark_trace("vpr", num_sets=64, length=5_000)
        for address in trace.addresses:
            cache.access(address)
        assert cache.tracer.events_emitted == 0

    def test_untraced_run_carries_no_ledger_state(self):
        """A plain run pays nothing for the capacity-flow ledger.

        Without ``ledger=True`` the result has no ledger, the cache's
        tracer stays the shared NULL_TRACER (never mutated in place),
        and the per-set attribution counters — maintained only under
        the tracer guard — remain all zeros.
        """
        cache = make_scheme("STEM", GEOMETRY)
        trace = make_benchmark_trace("vpr", num_sets=64, length=5_000)
        result = run_trace(cache, trace, warmup_fraction=0.0)
        assert result.ledger is None
        assert cache.tracer is NULL_TRACER
        assert not NULL_TRACER.enabled
        counters = cache.ledger_counters()
        assert set(counters) >= {"hits", "cooperative_hits"}
        for name, values in counters.items():
            assert not any(values), f"{name} counted without a tracer"

    def test_disabled_tracer_never_reaches_emit(self, monkeypatch):
        """A full STEM run on the default tracer makes zero emit calls.

        Every tracepoint sits behind an ``if tracer.enabled`` guard, so
        the disabled path does no event work at all.  A counting
        stand-in for :meth:`Tracer.emit` checks that structurally — one
        unguarded tracepoint fails on its first call, with no timing
        noise — and an explicit ``Tracer()`` run must produce the same
        stats.  The wall-clock comparison of the two paths lives in
        ``benchmarks/test_bench_tracer_overhead.py``.
        """
        calls = []
        monkeypatch.setattr(
            Tracer, "emit", lambda tracer, event: calls.append(event)
        )
        trace = make_benchmark_trace("omnetpp", num_sets=64, length=50_000)
        default = run_trace(make_scheme("STEM", GEOMETRY), trace)
        explicit = run_trace(
            make_scheme("STEM", GEOMETRY, tracer=Tracer()), trace
        )
        assert calls == []
        assert default.stats.as_dict() == explicit.stats.as_dict()
        # The stand-in is live: an enabled tracer does reach it.
        run_trace(
            make_scheme("STEM", GEOMETRY, tracer=Tracer(RingBufferSink())),
            trace,
        )
        assert calls


class TestManifest:
    def _result(self, seed=0xACE1):
        cache = make_scheme("STEM", GEOMETRY, seed=seed)
        trace = make_benchmark_trace("vpr", num_sets=64, length=8_000)
        return run_trace(cache, trace)

    def test_attached_to_run_result(self):
        result = self._result()
        manifest = result.manifest
        assert manifest is not None
        assert manifest.scheme == "STEM"
        assert manifest.trace_name == "vpr"
        assert manifest.seed == 0xACE1
        assert manifest.measured_accesses > 0
        assert manifest.measured_seconds > 0.0
        assert manifest.wall_clock_seconds >= manifest.measured_seconds
        assert manifest.accesses_per_second > 0.0

    def test_hash_stable_across_identical_runs(self):
        first = self._result().manifest
        second = self._result().manifest
        assert first.content_hash == second.content_hash
        assert len(first.content_hash) == 64  # sha256 hex

    def test_hash_changes_with_seed(self):
        first = self._result(seed=1).manifest
        second = self._result(seed=2).manifest
        assert first.content_hash != second.content_hash

    def test_hash_changes_with_scheme_config(self):
        base = self._result().manifest
        cache = make_scheme("STEM", CacheGeometry(num_sets=64,
                                                  associativity=8))
        trace = make_benchmark_trace("vpr", num_sets=64, length=8_000)
        other = run_trace(cache, trace).manifest
        assert base.content_hash != other.content_hash

    def test_wall_clock_outside_hash(self):
        payload = self._result().manifest.hashed_payload()
        assert "measured_seconds" not in payload
        assert "platform" not in payload

    def test_as_dict_is_json_serialisable(self):
        record = self._result().manifest.as_dict()
        round_tripped = json.loads(json.dumps(record))
        assert round_tripped["content_hash"] == record["content_hash"]
        assert round_tripped["accesses_per_second"] > 0.0

    def test_describe_scheme_captures_knobs(self):
        cache = make_scheme("STEM", GEOMETRY)
        description = describe_scheme(cache)
        assert description["class"] == "StemCache"
        assert description["geometry"]["num_sets"] == 64
        assert "config" in description

    def test_build_manifest_explicit_seed_wins(self):
        cache = StemCache(GEOMETRY)
        trace = make_benchmark_trace("vpr", num_sets=64, length=2_000)
        manifest = build_manifest(cache, trace, seed=42)
        assert manifest.seed == 42


class TestInspect:
    def test_event_counts(self):
        counts = event_counts(SAMPLE_EVENTS)
        assert counts["eviction"] == 1
        assert sum(counts.values()) == len(SAMPLE_EVENTS)

    def test_per_set_counts_filters_by_kind(self):
        assert per_set_counts(SAMPLE_EVENTS)[3] == 5
        assert per_set_counts(SAMPLE_EVENTS, kind="policy_swap") == {9: 1}

    def test_coupling_spans_pair_up(self):
        spans = coupling_spans(SAMPLE_EVENTS)
        assert len(spans) == 1
        span = spans[0]
        assert (span.taker, span.giver) == (3, 7)
        assert span.lifetime == 40 - 13

    def test_open_span_has_no_lifetime(self):
        events = [Coupling(access=5, set_index=1, giver=2)]
        spans = coupling_spans(events)
        assert spans[0].end_access is None
        assert spans[0].lifetime is None
        assert coupling_lifetimes(events) == []

    def test_spill_fanout(self):
        events = [
            Spill(access=1, set_index=3, giver=7),
            Spill(access=2, set_index=3, giver=7),
            Spill(access=3, set_index=3, giver=9),
            Spill(access=4, set_index=5, giver=7),
        ]
        fanout = spill_fanout(events)
        assert fanout == {3: {7: 2, 9: 1}, 5: {7: 1}}

    def test_swap_cadence_gaps(self):
        events = [
            PolicySwap(access=100, set_index=4, mode="BIP"),
            PolicySwap(access=350, set_index=4, mode="LRU"),
            PolicySwap(access=600, set_index=4, mode="BIP"),
            PolicySwap(access=50, set_index=8, mode="BIP"),
        ]
        cadence = swap_cadence(events)
        assert cadence[4] == [250, 250]
        assert cadence[8] == []  # swapped once: no gap yet

    def test_summarize_events(self):
        digest = summarize_events(SAMPLE_EVENTS)
        assert "eviction" in digest
        assert "couplings: 1 pairs" in digest
        assert summarize_events([]) == "no events recorded"

    def test_summarize_fault_only_log(self):
        """A `repro faults` JSONL can hold nothing but fault events."""
        events = [
            FaultInjected(access=5, set_index=3, target="sc_s",
                          detail="bit 2"),
            FaultInjected(access=9, set_index=3, target="sc_s"),
            FaultInjected(access=12, set_index=-1, target="trace"),
        ]
        digest = summarize_events(events)
        assert "faults: 3 injected across 2 target(s)" in digest
        assert "sc_s=2" in digest and "trace=1" in digest
        assert "1 set(s) directly hit" in digest

    def test_summarize_safe_mode_only_log(self):
        events = [
            SafeModeEntry(access=7, set_index=4, reason="heap"),
            SafeModeEntry(access=9, set_index=4, reason="heap"),
            SafeModeEntry(access=11, set_index=6, reason="counter"),
        ]
        digest = summarize_events(events)
        assert "safe mode: 3 entries pinned 2 set(s)" in digest

    def test_event_clock_prefers_global_access(self):
        stamped = Coupling(access=3, set_index=1, giver=2,
                           global_access=503)
        legacy = Coupling(access=3, set_index=1, giver=2)
        assert event_clock(stamped) == 503
        assert event_clock(legacy) == 3

    def test_old_jsonl_records_still_load(self):
        # Pre-global_access payloads must rebuild with the default 0.
        record = {"kind": "eviction", "access": 10, "set_index": 3,
                  "tag": 7, "dirty": False, "cooperative": False}
        event = event_from_dict(record)
        assert event.global_access == 0
        assert event_clock(event) == 10

    def test_coupling_spans_use_global_clock(self):
        # access rewinds (warm-up reset) but global_access does not;
        # the lifetime must come from the monotonic clock.
        events = [
            Coupling(access=900, set_index=3, giver=7,
                     global_access=900),
            Decoupling(access=150, set_index=3, giver=7,
                       global_access=1_150),
        ]
        assert coupling_lifetimes(events) == [250]
        swaps = [
            PolicySwap(access=800, set_index=4, mode="BIP",
                       global_access=800),
            PolicySwap(access=100, set_index=4, mode="LRU",
                       global_access=1_100),
        ]
        assert swap_cadence(swaps)[4] == [300]


class TestProfiler:
    def test_phase_timer_measures(self, capsys):
        # figure --profile times the whole regeneration itself.
        assert main(["figure", "table3", "--profile"]) == 0
        timed = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"figure table3: \d+\.\d{3}s wall-clock", timed)

    def test_add_reads_manifest(self):
        cache = make_scheme("LRU", GEOMETRY)
        trace = make_benchmark_trace("vpr", num_sets=64, length=6_000)
        result = run_trace(cache, trace)
        profiler = RunProfiler()
        record = profiler.add(result)
        assert record is not None
        assert record.scheme == "LRU"
        assert record.measured_seconds > 0.0
        table = profiler.per_scheme()
        assert table["LRU"]["runs"] == 1
        assert table["LRU"]["accesses_per_sec"] > 0.0
        assert "acc/sec" in profiler.render()
        assert "LRU" in profiler.render()

    def test_add_without_manifest_is_noop(self):
        class Bare:
            scheme = "X"
            trace_name = "y"
            manifest = None

        profiler = RunProfiler()
        assert profiler.add(Bare()) is None
        assert profiler.records == []

    def test_bench_json_shape(self, tmp_path):
        cache = make_scheme("LRU", GEOMETRY)
        trace = make_benchmark_trace("vpr", num_sets=64, length=6_000)
        profiler = RunProfiler()
        profiler.add(run_trace(cache, trace))
        path = tmp_path / "bench.json"
        profiler.save_bench_json(path)
        document = json.loads(path.read_text())
        assert "machine_info" in document
        (bench,) = document["benchmarks"]
        assert bench["name"] == "LRU[vpr]"
        assert bench["stats"]["rounds"] == 1
        assert bench["stats"]["ops"] > 0.0


class TestStatsDerivation:
    """Satellites: merge/as_dict/timeline derive from dataclass fields."""

    def test_counter_field_names_cover_every_counter(self):
        names = counter_field_names()
        assert "extra" not in names
        assert {"accesses", "hits", "misses", "spill_rejects",
                "policy_swaps", "total_latency_cycles"} <= set(names)

    def test_merge_accumulates_every_field(self):
        names = counter_field_names()
        left = CacheStats()
        right = CacheStats()
        for offset, name in enumerate(names):
            setattr(left, name, offset + 1)
            setattr(right, name, 100)
        right.bump("ad_hoc", 3)
        left.merge(right)
        for offset, name in enumerate(names):
            assert getattr(left, name) == offset + 1 + 100, name
        assert left.extra["ad_hoc"] == 3

    def test_as_dict_reports_every_field(self):
        table = CacheStats().as_dict()
        for name in counter_field_names():
            assert name in table
        assert "miss_rate" in table

    def test_timeline_tracks_derived_counters(self):
        from repro.sim.config import RunOptions

        cache = make_scheme("STEM", GEOMETRY)
        trace = make_benchmark_trace("vpr", num_sets=64, length=6_000)
        series = run_trace(
            cache, trace, warmup_fraction=0.0,
            options=RunOptions(metrics_window=2_000),
        ).series
        for name in counter_field_names():
            assert name in series.series, name
        assert len(series.series["spill_rejects"]) == series.num_windows == 3
