"""The columnar backend's exactness contract (DESIGN.md §13).

Every test here compares the numpy columnar path against the scalar
oracle on the surfaces the contract covers: raw counters, manifest
content hashes, windowed metric series, the RNG stream, and the final
cache state up to way relabelling (resident tags, recency order,
dirty-by-tag, free-way count — the way *labels* are explicitly outside
the contract because no observable surface exposes them).

The whole module skips when numpy is missing — except that the
missing-numpy behaviour itself is tested by monkeypatching the module,
so it runs wherever the rest does.
"""

import pickle
import random
import warnings

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import compose_address, random_addresses
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.obs import RingBufferSink, Tracer
from repro.resilience.harness import RetryPolicy, guarded_run
from repro.sim import columnar
from repro.sim.config import ExperimentScale, RunOptions, make_scheme
from repro.sim.parallel import CellSpec, cell_cache_key
from repro.sim.runner import run_matrix
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace
from repro.workloads.trace import Trace, TraceMetadata

GEOMETRY = CacheGeometry(num_sets=16, associativity=4, line_size=64)


def semantic_state(cache):
    """Final cache state, way-label free: what the contract pins.

    Per set: the resident tag set, the LRU-to-MRU *tag* order, each
    tag's dirty bit, and the free-way count.  Every observable — hits,
    victims, write-backs, continuation behaviour — is a function of
    exactly these, never of which physical way holds which tag.
    """
    out = []
    for set_index in range(cache.geometry.num_sets):
        table = cache._tag_to_way[set_index]
        order_tags = tuple(
            cache._way_tag[set_index][way]
            for way in cache.policy._order[set_index]
        )
        dirty = {
            tag: cache._dirty[set_index][way] for tag, way in table.items()
        }
        out.append((
            frozenset(table), order_tags, dirty,
            len(cache._free_ways[set_index]),
        ))
    return out


def both_backends(trace, geometry, scheme="lru", metrics_window=None,
                  **kwargs):
    """Run ``trace`` through both backends on fresh caches."""
    def run(backend):
        cache = make_scheme(scheme, geometry)
        options = RunOptions(metrics_window=metrics_window, backend=backend)
        return cache, run_trace(cache, trace, options=options, **kwargs)

    return run("python") + run("numpy")


def make_trace(addresses, writes=None, name="columnar-test"):
    return Trace(
        TraceMetadata(name=name, instructions=max(1, len(addresses) * 3)),
        addresses,
        writes,
    )


class TestExactnessPinning:
    """backend="numpy" is byte-identical to the scalar oracle."""

    def test_benchmark_trace_stats_manifest_rng_identical(self):
        geometry = CacheGeometry(num_sets=64, associativity=16, line_size=64)
        trace = make_benchmark_trace("omnetpp", num_sets=64, length=60_000)
        cache_py, result_py, cache_np, result_np = both_backends(
            trace, geometry
        )
        assert result_np.backend == "numpy"
        assert result_py.backend == "python"
        assert (result_np.stats.counter_snapshot()
                == result_py.stats.counter_snapshot())
        assert (result_np.manifest.content_hash
                == result_py.manifest.content_hash)
        assert result_np.metrics == result_py.metrics
        assert cache_np.rng.state == cache_py.rng.state
        assert semantic_state(cache_np) == semantic_state(cache_py)
        cache_np.check_invariants()

    def test_windowed_series_identical(self):
        trace = make_benchmark_trace("vpr", num_sets=16, length=24_000)
        geometry = CacheGeometry(num_sets=16, associativity=16, line_size=64)
        _, result_py, _, result_np = both_backends(
            trace, geometry, metrics_window=5_000
        )
        assert result_np.backend == "numpy"
        assert result_np.series.as_dict() == result_py.series.as_dict()

    def test_write_trace_dirty_state_and_writebacks_identical(self):
        rng = random.Random(11)
        addresses = random_addresses(GEOMETRY, 8_000, tag_space=24)
        writes = [rng.random() < 0.4 for _ in addresses]
        trace = make_trace(addresses, writes)
        cache_py, result_py, cache_np, result_np = both_backends(
            trace, GEOMETRY
        )
        assert result_np.backend == "numpy"
        assert result_py.stats.writebacks > 0  # the path under test ran
        assert (result_np.stats.counter_snapshot()
                == result_py.stats.counter_snapshot())
        assert semantic_state(cache_np) == semantic_state(cache_py)

    def test_continuation_after_sync_is_equivalent(self):
        # The synced cache must behave exactly like the scalar-run one
        # for any future accesses: hits, victims, write-backs, stats.
        trace = make_trace(random_addresses(GEOMETRY, 6_000, tag_space=24))
        cache_py, _, cache_np, _ = both_backends(trace, GEOMETRY)
        rng = random.Random(3)
        for _ in range(4_000):
            address = compose_address(
                GEOMETRY, rng.randrange(24), rng.randrange(16)
            )
            is_write = rng.random() < 0.3
            assert (cache_py.access(address, is_write)
                    == cache_np.access(address, is_write))
        assert (cache_py.stats.counter_snapshot()
                == cache_np.stats.counter_snapshot())

    def test_scalar_fallback_sets_are_exact(self):
        # A stream engineered so one set fails every ladder rung (few
        # distinct tags per lookback window, sporadic revisits of
        # ancient tags): those accesses run through the real cache
        # while other sets stay columnar, and the mix must still be
        # exact end to end.
        rng = random.Random(1)
        geometry = CacheGeometry(num_sets=2, associativity=8, line_size=64)
        addresses, writes = [], []
        for i in range(16_000):
            set_index = i % 2
            if set_index == 0:
                if rng.random() < 0.006:
                    tag = rng.randrange(60)
                else:
                    tag = 100 + (i // 2_000) % 2
            else:
                tag = rng.randrange(12)
            addresses.append(compose_address(geometry, tag, set_index))
            writes.append(rng.random() < 0.3)
        trace = make_trace(addresses, writes, name="adversarial")
        cache_py, result_py, cache_np, result_np = both_backends(
            trace, geometry, metrics_window=3_000
        )
        plan = trace._columnar_plans[(6, 1, 8, True)]
        assert list(plan["scalar_sets"]) == [0]  # the fallback fired
        assert result_np.backend == "numpy"
        assert (result_np.stats.counter_snapshot()
                == result_py.stats.counter_snapshot())
        assert result_np.series.as_dict() == result_py.series.as_dict()
        assert semantic_state(cache_np) == semantic_state(cache_py)
        cache_np.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_sets=st.sampled_from([2, 4, 8]),
        assoc=st.sampled_from([2, 3, 4, 8]),
        length=st.integers(1, 400),
        tag_space=st.sampled_from([3, 6, 20, 200]),
        warmup=st.sampled_from([0.0, 0.25]),
        with_writes=st.booleans(),
    )
    def test_fuzz_random_traces_are_exact(
        self, seed, num_sets, assoc, length, tag_space, warmup, with_writes
    ):
        rng = random.Random(seed)
        geometry = CacheGeometry(
            num_sets=num_sets, associativity=assoc, line_size=64
        )
        addresses = [
            compose_address(
                geometry, rng.randrange(tag_space), rng.randrange(num_sets)
            )
            for _ in range(length)
        ]
        writes = (
            [rng.random() < 0.4 for _ in range(length)]
            if with_writes else None
        )
        trace = make_trace(addresses, writes, name=f"fuzz-{seed}")
        cache_py, result_py, cache_np, result_np = both_backends(
            trace, geometry, warmup_fraction=warmup
        )
        assert result_np.backend == "numpy"
        assert (result_np.stats.counter_snapshot()
                == result_py.stats.counter_snapshot())
        assert (result_np.manifest.content_hash
                == result_py.manifest.content_hash)
        assert semantic_state(cache_np) == semantic_state(cache_py)
        cache_np.check_invariants()


class TestBackendResolution:
    """auto/python/numpy selection and transparent fallback."""

    def test_invalid_backend_raises(self):
        trace = make_trace(random_addresses(GEOMETRY, 100))
        with pytest.raises(ConfigError):
            run_trace(make_scheme("lru", GEOMETRY), trace,
                      options=RunOptions(backend="cuda"))

    def test_auto_picks_numpy_for_eligible_lru(self):
        trace = make_trace(random_addresses(GEOMETRY, 2_000))
        result = run_trace(make_scheme("lru", GEOMETRY), trace)
        assert result.backend == "numpy"

    @pytest.mark.parametrize("scheme", ["dip", "stem", "fifo", "random"])
    def test_schemes_without_kernel_fall_back_identically(self, scheme):
        # An explicit numpy request on a kernel-less scheme silently
        # runs scalar — and must be indistinguishable from asking for
        # scalar in the first place.
        trace = make_trace(random_addresses(GEOMETRY, 4_000, tag_space=32))
        cache_py, result_py, cache_np, result_np = both_backends(
            trace, GEOMETRY, scheme=scheme
        )
        assert result_np.backend == "python"
        assert (result_np.stats.counter_snapshot()
                == result_py.stats.counter_snapshot())
        assert (result_np.manifest.content_hash
                == result_py.manifest.content_hash)
        assert cache_np.rng.state == cache_py.rng.state

    def test_traced_cache_falls_back(self):
        # Event tracing needs per-access execution; the kernel would
        # silently drop the event stream, so eligibility rejects it.
        trace = make_trace(random_addresses(GEOMETRY, 1_000))
        cache = make_scheme("lru", GEOMETRY, tracer=Tracer(RingBufferSink()))
        result = run_trace(cache, trace, options=RunOptions(backend="numpy"))
        assert result.backend == "python"

    def test_non_pristine_cache_falls_back(self):
        # The kernel derives state from the trace alone, so a cache
        # that has already served accesses must run scalar.
        trace = make_trace(random_addresses(GEOMETRY, 1_000))
        cache = make_scheme("lru", GEOMETRY)
        cache.access(compose_address(GEOMETRY, 1, 0))
        assert not columnar.kernel_eligible(cache)

    def test_instance_access_override_falls_back(self):
        # A spy/wrapper installed as an instance attribute expects to
        # see every access; the kernel would bypass it.
        cache = make_scheme("lru", GEOMETRY)
        cache.access_batch = lambda *args: None
        assert not columnar.kernel_eligible(cache)

    def test_missing_numpy_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(columnar, "np", None)
        monkeypatch.setattr(columnar, "_warned_missing_numpy", False)
        trace = make_trace(random_addresses(GEOMETRY, 1_500))
        with pytest.warns(UserWarning, match="falls? back|fall back"):
            result = run_trace(make_scheme("lru", GEOMETRY), trace)
        assert result.backend == "python"
        # One warning per process: the second run stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = run_trace(make_scheme("lru", GEOMETRY), trace)
        assert again.backend == "python"

    def test_missing_numpy_python_backend_is_silent(self, monkeypatch):
        monkeypatch.setattr(columnar, "np", None)
        monkeypatch.setattr(columnar, "_warned_missing_numpy", False)
        trace = make_trace(random_addresses(GEOMETRY, 1_500))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_trace(
                make_scheme("lru", GEOMETRY), trace,
                options=RunOptions(backend="python"),
            )
        assert result.backend == "python"


class TestPlanCaching:
    """Plans amortise across runs and never leak into pickles."""

    def test_plan_cached_per_geometry_and_reused(self):
        trace = make_trace(random_addresses(GEOMETRY, 3_000))
        run_trace(make_scheme("lru", GEOMETRY), trace,
                  options=RunOptions(backend="numpy"))
        assert len(trace._columnar_plans) == 1
        plan = next(iter(trace._columnar_plans.values()))
        run_trace(make_scheme("lru", GEOMETRY), trace,
                  options=RunOptions(backend="numpy"))
        assert next(iter(trace._columnar_plans.values())) is plan

    def test_pickle_drops_plans(self):
        trace = make_trace(random_addresses(GEOMETRY, 3_000))
        run_trace(make_scheme("lru", GEOMETRY), trace,
                  options=RunOptions(backend="numpy"))
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._columnar_plans == {}
        assert clone.addresses == trace.addresses


class TestOrchestrationThreading:
    """backend flows through guarded_run, grids and cache keys."""

    def test_guarded_run_uses_backend(self):
        trace = make_trace(random_addresses(GEOMETRY, 3_000))
        outcome = guarded_run(
            lambda seed: make_scheme("lru", GEOMETRY, seed=seed),
            trace,
            scheme="lru",
            base_seed=7,
            options=RunOptions(backend="numpy"),
        )
        assert outcome.backend == "numpy"

    def test_guarded_run_retries_force_scalar(self):
        # Attempt 1 fails (poisoned factory); attempt 2 must run the
        # scalar oracle even though numpy was requested.
        trace = make_trace(random_addresses(GEOMETRY, 2_000))
        attempts = []

        def factory(seed):
            attempts.append(seed)
            if len(attempts) == 1:
                raise RuntimeError("poisoned first attempt")
            return make_scheme("lru", GEOMETRY, seed=seed)

        outcome = guarded_run(
            factory,
            trace,
            scheme="lru",
            base_seed=7,
            retry=RetryPolicy(max_attempts=2),
            options=RunOptions(backend="numpy"),
        )
        assert len(attempts) == 2
        assert outcome.backend == "python"

    def test_run_matrix_backends_agree(self):
        scale = ExperimentScale(
            num_sets=16, associativity=8, trace_length=6_000
        )
        traces = [make_trace(
            random_addresses(scale.geometry(), 6_000, tag_space=40),
            name="grid",
        )]
        matrix_py = run_matrix(
            traces, ["lru", "dip"], scale=scale,
            options=RunOptions(backend="python"),
        )
        matrix_np = run_matrix(
            traces, ["lru", "dip"], scale=scale,
            options=RunOptions(backend="numpy"),
        )
        table_py = matrix_py.metric_table(lambda result: result.mpki)
        table_np = matrix_np.metric_table(lambda result: result.mpki)
        assert table_py == table_np
        lru_np = matrix_np.get("grid", "LRU")
        assert lru_np.backend == "numpy"
        assert matrix_np.get("grid", "DIP").backend == "python"

    def test_campaign_spec_backend_parse_and_digest(self, tmp_path):
        import json

        from repro.common.errors import CampaignSpecError
        from repro.sim.campaign import load_campaign_spec

        base = {"schemes": ["lru"], "benchmarks": ["mcf"]}

        def write(document, name):
            path = tmp_path / name
            path.write_text(json.dumps(document), encoding="utf-8")
            return path

        plain = load_campaign_spec(write(base, "plain.json"))
        assert plain.options.backend is None
        explicit = load_campaign_spec(
            write({**base, "backend": "numpy"}, "plain.json")
        )
        assert explicit.options.backend == "numpy"
        # Specs predating the backend key keep their journal digests:
        # only an explicit backend changes the digest payload.
        assert explicit.digest() != plain.digest()
        with pytest.raises(CampaignSpecError):
            load_campaign_spec(write({**base, "backend": "cuda"}, "bad.json"))

    def test_cell_cache_key_ignores_backend(self):
        # A cached scalar result must satisfy a numpy request (and vice
        # versa): the exactness contract makes them the same result.
        trace = make_trace(random_addresses(GEOMETRY, 1_000))
        specs = [
            CellSpec(
                index=0, scheme="lru", label="lru", trace=trace,
                geometry=GEOMETRY, seed=7,
                options=RunOptions(backend=backend),
            )
            for backend in (None, "python", "numpy")
        ]
        keys = {cell_cache_key(spec) for spec in specs}
        assert len(keys) == 1
