"""Unit tests for the conventional set-associative cache."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.access import AccessKind
from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.policies.lru import LruPolicy
from repro.sim.config import make_scheme
from repro.workloads.trace import Trace, TraceMetadata

from tests.conftest import (
    ReferenceLru,
    compose_address,
    cyclic_addresses,
    random_addresses,
)


def make_cache(num_sets=16, associativity=4):
    geometry = CacheGeometry(num_sets=num_sets, associativity=associativity)
    return SetAssociativeCache(geometry, LruPolicy())


class TestBasicAccess:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        address = 0x1000
        assert cache.access(address) == AccessKind.MISS
        assert cache.access(address) == AccessKind.LOCAL_HIT

    def test_same_block_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1037) == AccessKind.LOCAL_HIT

    def test_stats_partition(self):
        cache = make_cache()
        for address in random_addresses(cache.geometry, 500):
            cache.access(address)
        stats = cache.stats
        assert stats.accesses == 500
        assert stats.hits + stats.misses == stats.accesses
        assert stats.local_hits == stats.hits
        assert stats.misses_single_probe == stats.misses

    def test_lru_eviction_order_within_set(self):
        cache = make_cache(num_sets=2, associativity=2)
        mapper = cache.geometry.mapper
        a, b, c = (mapper.compose(t, 0) for t in (1, 2, 3))
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is now MRU
        cache.access(c)  # evicts b
        assert cache.contains(a)
        assert cache.contains(c)
        assert not cache.contains(b)

    def test_working_set_within_assoc_never_misses_after_warmup(self):
        cache = make_cache(num_sets=4, associativity=4)
        stream = cyclic_addresses(cache.geometry, 1, working_set=4, length=200)
        for address in stream[:4]:
            cache.access(address)
        cache.reset_stats()
        for address in stream[4:]:
            cache.access(address)
        assert cache.stats.misses == 0

    def test_cyclic_thrash_under_lru(self):
        # The paper's core LRU pathology: ws > assoc -> 100% misses.
        cache = make_cache(num_sets=4, associativity=4)
        stream = cyclic_addresses(cache.geometry, 2, working_set=6, length=300)
        for address in stream[:60]:
            cache.access(address)
        cache.reset_stats()
        for address in stream[60:]:
            cache.access(address)
        assert cache.stats.miss_rate == 1.0


class TestDirtyAndWritebacks:
    def test_write_marks_dirty_and_evicts_with_writeback(self):
        cache = make_cache(num_sets=2, associativity=1)
        mapper = cache.geometry.mapper
        cache.access(mapper.compose(1, 0), is_write=True)
        cache.access(mapper.compose(2, 0))  # evicts the dirty block
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(num_sets=2, associativity=1)
        mapper = cache.geometry.mapper
        cache.access(mapper.compose(1, 0))
        cache.access(mapper.compose(2, 0))
        assert cache.stats.writebacks == 0

    def test_write_hit_dirties_existing_block(self):
        cache = make_cache(num_sets=2, associativity=1)
        mapper = cache.geometry.mapper
        cache.access(mapper.compose(1, 0))
        cache.access(mapper.compose(1, 0), is_write=True)
        cache.access(mapper.compose(2, 0))
        assert cache.stats.writebacks == 1

    def test_eviction_listener_reports_block_address(self):
        events = []
        geometry = CacheGeometry(num_sets=2, associativity=1)
        cache = SetAssociativeCache(
            geometry,
            LruPolicy(),
            eviction_listener=lambda addr, dirty: events.append((addr, dirty)),
        )
        mapper = geometry.mapper
        victim = mapper.compose(1, 0)
        cache.access(victim, is_write=True)
        cache.access(mapper.compose(2, 0))
        assert events == [(victim, True)]


class TestMaintenance:
    def test_invalidate_resident_block(self):
        cache = make_cache()
        cache.access(0x4000)
        assert cache.invalidate(0x4000)
        assert not cache.contains(0x4000)
        assert cache.access(0x4000) == AccessKind.MISS

    def test_invalidate_missing_block_returns_false(self):
        cache = make_cache()
        assert not cache.invalidate(0x4000)

    def test_invalidated_way_is_reused(self):
        cache = make_cache(num_sets=2, associativity=2)
        mapper = cache.geometry.mapper
        cache.access(mapper.compose(1, 0))
        cache.access(mapper.compose(2, 0))
        cache.invalidate(mapper.compose(1, 0))
        cache.access(mapper.compose(3, 0))  # should use the free way
        assert cache.contains(mapper.compose(2, 0))
        assert cache.contains(mapper.compose(3, 0))
        assert cache.stats.evictions == 0

    def test_set_occupancy_and_views(self):
        cache = make_cache(num_sets=4, associativity=4)
        mapper = cache.geometry.mapper
        for tag in range(3):
            cache.access(mapper.compose(tag, 1), is_write=(tag == 0))
        assert cache.set_occupancy(1) == 3
        views = cache.resident_blocks(1)
        assert [view.tag for view in views] == [0, 1, 2]
        assert views[0].dirty
        assert all(view.cc_bit == 0 for view in views)

    def test_reset_stats(self):
        cache = make_cache()
        cache.access(0x0)
        cache.reset_stats()
        assert cache.stats.accesses == 0


class TestDifferentialAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        tag_space=st.integers(min_value=2, max_value=32),
    )
    def test_matches_naive_lru(self, seed, tag_space):
        geometry = CacheGeometry(num_sets=4, associativity=3)
        cache = SetAssociativeCache(geometry, LruPolicy())
        reference = ReferenceLru(geometry.mapper, 3)
        for address in random_addresses(
            geometry, 400, tag_space=tag_space, seed=seed
        ):
            assert cache.access(address).is_hit == reference.access(address)
        cache.check_invariants()


def semantic_state(cache):
    """A cache's full replacement state, free of physical way labels.

    Per set: the resident tag set, the LRU-to-MRU *tag* order, each
    tag's dirty bit and the free-way count.  Every observable — hits,
    victims, write-backs, continuation behaviour — is a function of
    exactly these, never of which physical way holds which tag.
    """
    out = []
    for set_index in range(cache.geometry.num_sets):
        table = cache._tag_to_way[set_index]
        order_tags = tuple(
            cache._way_tag[set_index][way]
            for way in cache.policy.recency_order(set_index)
        )
        dirty = {
            tag: cache._dirty[set_index][way] for tag, way in table.items()
        }
        out.append((
            frozenset(table), order_tags, dirty,
            len(cache._free_ways[set_index]),
        ))
    return out


class TestBatchMatchesScalarFullState:
    """``access_batch`` in random chunks leaves exactly ``access``'s state.

    The batch path serves every LRU and DIP run, so it is compared with
    per-access ``access`` on everything that can influence a later
    access: statistics, RNG state, resident tags, dirty bits and
    recency order per set, and DIP's set-dueling selector.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(["lru", "dip"]),
        seed=st.integers(0, 10_000),
        num_sets=st.sampled_from([2, 4, 8, 64]),
        assoc=st.sampled_from([1, 2, 3, 4, 8, 16]),
        length=st.integers(1, 600),
        tag_space=st.sampled_from([3, 6, 20, 200]),
        with_writes=st.booleans(),
        cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    def test_random_traces_in_random_chunks(
        self, scheme, seed, num_sets, assoc, length, tag_space,
        with_writes, cut_fractions,
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
        trace = Trace(
            TraceMetadata(name=f"fuzz-{seed}", instructions=length * 3),
            addresses, writes,
        )
        scalar = make_scheme(scheme, geometry, seed=seed + 1)
        batched = make_scheme(scheme, geometry, seed=seed + 1)

        for n, address in enumerate(addresses):
            scalar.access(address, writes[n] if writes else False)
        set_indices, tags = trace.precompute_geometry(batched.mapper)
        cuts = sorted({round(f * length) for f in cut_fractions})
        bounds = [0, *cuts, length]
        for start, stop in zip(bounds, bounds[1:]):
            batched.access_batch(addresses, set_indices, tags, writes,
                                 start, stop)

        assert batched.stats.as_dict() == scalar.stats.as_dict()
        assert batched.rng.state == scalar.rng.state
        assert semantic_state(batched) == semantic_state(scalar)
        if scheme == "dip":
            assert batched.policy.psel.value == scalar.policy.psel.value
        batched.check_invariants()
