"""Cache timing models: hits, misses, LRU, invalidation."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.cache import CacheModel, WriteBackCache, WriteThroughCache


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        assert not cache.lookup(0x100, is_write=False)
        assert cache.lookup(0x100, is_write=False)

    def test_same_line_hits(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=False)
        assert cache.lookup(0x11C, is_write=False)  # same 32-byte line

    def test_different_line_misses(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=False)
        assert not cache.lookup(0x120, is_write=False)

    def test_stats(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0, False)
        cache.lookup(0, False)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheModel(size_bytes=1000, line_bytes=32, ways=3)


class TestReplacement:
    def test_lru_eviction(self):
        cache = CacheModel(size_bytes=64, line_bytes=32, ways=2)  # 1 set
        cache.lookup(0x000, False)
        cache.lookup(0x020, False)
        cache.lookup(0x040, False)  # evicts 0x000
        assert not cache.contains(0x000)
        assert cache.contains(0x020)
        assert cache.contains(0x040)

    def test_lru_refreshed_by_hit(self):
        cache = CacheModel(size_bytes=64, line_bytes=32, ways=2)
        cache.lookup(0x000, False)
        cache.lookup(0x020, False)
        cache.lookup(0x000, False)  # refresh
        cache.lookup(0x040, False)  # evicts 0x020, not 0x000
        assert cache.contains(0x000)
        assert not cache.contains(0x020)


class TestWritePolicies:
    def test_write_through_no_allocate(self):
        cache = WriteThroughCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=True)
        assert not cache.contains(0x100)

    def test_write_through_write_hits_existing_line(self):
        cache = WriteThroughCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=False)
        assert cache.lookup(0x100, is_write=True)

    def test_write_back_allocates_on_write(self):
        cache = WriteBackCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=True)
        assert cache.contains(0x100)


class TestInvalidation:
    def test_invalidate_line(self):
        """CV32RT on NaxRiscv invalidates the bypassed snapshot lines."""
        cache = WriteBackCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x200, False)
        cache.invalidate_line(0x200)
        assert not cache.contains(0x200)

    def test_invalidate_missing_line_is_noop(self):
        cache = WriteBackCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.invalidate_line(0x200)  # must not raise
        assert not cache.contains(0x200)
