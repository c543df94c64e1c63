"""Unit tests for CacheStats and CacheGeometry."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.stats import CacheStats


class TestCacheStats:
    def test_zero_initialised(self):
        stats = CacheStats()
        assert stats.accesses == 0
        assert stats.miss_rate == 0.0
        assert stats.hit_rate == 0.0

    def test_rates(self):
        stats = CacheStats(accesses=10, hits=7, misses=3)
        assert stats.miss_rate == pytest.approx(0.3)
        assert stats.hit_rate == pytest.approx(0.7)

    def test_bump_accumulates_named_counters(self):
        stats = CacheStats()
        stats.bump("tag_probes")
        stats.bump("tag_probes", 4)
        assert stats.extra["tag_probes"] == 5

    def test_merge_sums_all_fields(self):
        a = CacheStats(accesses=5, hits=3, misses=2, spills=1)
        a.bump("x", 2)
        b = CacheStats(accesses=7, hits=4, misses=3, spills=2)
        b.bump("x", 3)
        a.merge(b)
        assert a.accesses == 12
        assert a.hits == 7
        assert a.misses == 5
        assert a.spills == 3
        assert a.extra["x"] == 5

    def test_as_dict_contains_core_and_extra(self):
        stats = CacheStats(accesses=4, hits=2, misses=2)
        stats.bump("custom", 9)
        table = stats.as_dict()
        assert table["accesses"] == 4
        assert table["miss_rate"] == pytest.approx(0.5)
        assert table["custom"] == 9


class TestCacheGeometry:
    def test_paper_llc(self):
        geometry = CacheGeometry(num_sets=2048, associativity=16)
        assert geometry.capacity_bytes == 2 * 1024 * 1024
        assert geometry.num_lines == 32768
        assert geometry.tag_bits == 27

    def test_from_capacity(self):
        geometry = CacheGeometry.from_capacity(
            capacity_bytes=2 * 1024 * 1024, associativity=16
        )
        assert geometry.num_sets == 2048

    def test_from_capacity_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            CacheGeometry.from_capacity(capacity_bytes=1000, associativity=3)

    def test_with_associativity_preserves_sets(self):
        geometry = CacheGeometry(num_sets=64, associativity=16)
        wider = geometry.with_associativity(32)
        assert wider.num_sets == 64
        assert wider.associativity == 32
        assert wider.mapper.index_bits == geometry.mapper.index_bits

    def test_rejects_nonpositive_associativity(self):
        with pytest.raises(ConfigError):
            CacheGeometry(num_sets=4, associativity=0)

    def test_l1_geometry_of_table1(self):
        geometry = CacheGeometry.from_capacity(
            capacity_bytes=32 * 1024, associativity=2
        )
        assert geometry.num_sets == 256
